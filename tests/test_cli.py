from __future__ import annotations

import json
import logging
import os
import random
import re
import shutil
import signal
import socket
import sqlite3
import subprocess
import sys
import threading
import time
from contextlib import closing, contextmanager
from datetime import date
from urllib.parse import urlencode, urlsplit
from wsgiref.simple_server import make_server

import pytest

from conftest import DEMO_CORPUS, FIXED_CLOCK, GOLDEN, ROOT, synth_corpus
from eprint_oai import cli, harvester, protocol, server
from eprint_oai.config import RepositoryConfig
from eprint_oai.protocol import PART_CHARS, ProtocolHandler
from eprint_oai.server import MAX_BODY, ThreadingWSGIServer, _QuietHandler, make_app
from eprint_oai.ids import load_taxonomy, parse_internal_id
from eprint_oai.store import STORE_DB, Store

# an abs file to ingest; tests that open the demo store use ``demo_dir``
DEMO_ABS = DEMO_CORPUS / "cs" / "0101" / "cs.DL.0101027.abs"


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["frobnicate"])
    assert info.value.code == 2


def test_missing_data_dir_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["crosswalk", "cs.DL/0101027", "oai_dc"])
    assert info.value.code == 2
    assert "--data-dir is required" in capsys.readouterr().err


def test_crosswalk_command(capsys, demo_dir):
    rc = cli.main(
        ["crosswalk", "--data-dir", str(demo_dir), "cs.DL/0101027", "oai_dc"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "<creator>Warner, Simeon</creator>" in out
    assert "<subject>Digital Libraries</subject>" in out
    # the fragment exactly as GetRecord embeds it inside <metadata>
    golden = (GOLDEN / "getrecord_csdl_oai_dc.xml").read_text(encoding="utf-8")
    inner = golden.split("   <metadata>\n", 1)[1].split("\n   </metadata>", 1)[0]
    assert out == inner + "\n"


def test_crosswalk_unknown_record(capsys, demo_dir):
    rc = cli.main(
        ["crosswalk", "--data-dir", str(demo_dir), "hep-th/7001001", "oai_dc"]
    )
    assert rc == 1
    assert "not found" in capsys.readouterr().err


def test_crosswalk_unsupported_format(capsys, demo_dir):
    rc = cli.main(
        ["crosswalk", "--data-dir", str(demo_dir), "cs.DL/0101027", "oai_marc"]
    )
    assert rc == 1
    assert "unsupported" in capsys.readouterr().err


@pytest.mark.parametrize(
    "ident, prefix, rc",
    [("cs.DL/0101027", "oai_dc", 0), ("hep-th/7001001", "oai_dc", 1),
     ("cs.DL/0101027", "oai_marc", 1), ("cs.DL/01010", "oai_dc", 1)],
    ids=["found", "unknown", "unsupported", "malformed"],
)
def test_crosswalk_closes_its_store(capsys, demo_dir, monkeypatch, ident, prefix, rc):
    closed: list[Store] = []
    real_close = Store.close

    def close(store):
        closed.append(store)
        real_close(store)

    monkeypatch.setattr(Store, "close", close)
    assert cli.main(["crosswalk", "--data-dir", str(demo_dir), ident, prefix]) == rc
    assert len(closed) == 1


def test_config_file_with_flag_override(tmp_path, capsys, demo_dir):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data_dir": "/nonexistent"}), encoding="utf-8")
    rc = cli.main(
        ["--config", str(cfg), "crosswalk", "--data-dir", str(demo_dir),
         "cs.DL/0101027", "oai_dc"]
    )
    assert rc == 0  # flag wins over the config file


def test_config_file_sets_the_repository_identity(tmp_path, demo_dir):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {"data_dir": str(demo_dir), "abs_url_prefix": "https://example.org/a/"}
        ),
        encoding="utf-8",
    )
    done = subprocess.run(
        [sys.executable, "-m", "eprint_oai.cli", "--config", str(cfg),
         "crosswalk", "cs.DL/0101027", "oai_dc"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "<identifier>https://example.org/a/cs.DL/0101027</identifier>" in done.stdout
    assert "http://arXiv.org/abs/" not in done.stdout


def _usage_error(capsys, argv) -> str:
    """Run the CLI expecting exit 2; its stderr."""
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize(
    "key, value",
    [("scheme", "foo"), ("delimiter", "/"), ("protocol_version", "2.0"),
     ("identity_file", "id.json"), ("pagesize", 7)],
)
def test_config_file_with_unknown_key_is_usage_error(
    tmp_path, capsys, key, value, demo_dir
):
    """The oai-identifier syntax and the protocol version are constants, so
    a file cannot set them; nor can it set a key no setting has."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"data_dir": str(demo_dir), key: value}), encoding="utf-8"
    )
    err = _usage_error(capsys, ["--config", str(cfg), "crosswalk",
                                "cs.DL/0101027", "oai_dc"])
    assert f"unknown config keys: ['{key}']" in err


@pytest.mark.parametrize(
    "content, message",
    [(None, "cannot read config file"), ("{", "is not JSON"),
     ("[1]", "does not hold a JSON object"),
     ('{"data_dir": ".", "page_size": 0}', "page_size must be positive"),
     ('{"data_dir": ".", "eprints": {}}', "missing key 'content'"),
     ('{"data_dir": 5}', "invalid configuration"),
     ('{"data_dir": ".", "repository_identifier": "my repo", '
      '"sample_identifier": "oai:my repo:quant-ph/9901001"}',
      "repository_identifier may hold only A-Z a-z 0-9 - _ . ! ~ * ' ( ): 'my repo'")],
    ids=["missing", "not-json", "not-an-object", "bad-value", "bad-eprints",
         "bad-path", "bad-identifier"],
)
def test_unusable_config_file_is_usage_error(tmp_path, capsys, content, message):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content, encoding="utf-8")
    err = _usage_error(capsys, ["--config", str(cfg), "crosswalk",
                                "cs.DL/0101027", "oai_dc"])
    assert message in err


@pytest.mark.parametrize(
    "key, value, expected",
    [("port", "8099", "an integer"), ("port", True, "an integer"),
     ("min_interval_list", "fast", "a number"),
     ("min_interval_other", False, "a number"),
     ("page_size", "50", "an integer"), ("page_size", 50.0, "an integer"),
     ("base_url", 5, "a string"), ("data_dir", None, "a string"),
     ("taxonomy_file", 1, "a string or null"), ("eprints", [], "an object or null")],
)
def test_config_value_of_the_wrong_type_is_usage_error(
    tmp_path, capsys, key, value, expected, demo_dir
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"data_dir": str(demo_dir), key: value}), encoding="utf-8"
    )
    err = _usage_error(capsys, ["--config", str(cfg), "crosswalk",
                                "cs.DL/0101027", "oai_dc"])
    assert f"{key} must be {expected}, got {value!r}" in err


@pytest.mark.parametrize("source", ["file", "flag"])
def test_port_out_of_range_is_usage_error(tmp_path, capsys, source, demo_dir):
    cfg = tmp_path / "cfg.json"
    settings = {"data_dir": str(demo_dir)}
    if source == "file":
        settings["port"] = 70000
    cfg.write_text(json.dumps(settings), encoding="utf-8")
    flag = ["--port", "70000"] if source == "flag" else []
    err = _usage_error(capsys, ["--config", str(cfg), "serve", *flag])
    assert "port 70000 is not 0-65535" in err


def test_sample_identifier_of_another_repository_is_usage_error(
    tmp_path, capsys, demo_dir
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"data_dir": str(demo_dir), "repository_identifier": "demo"}),
        encoding="utf-8",
    )
    err = _usage_error(capsys, ["--config", str(cfg), "crosswalk",
                                "cs.DL/0101027", "oai_dc"])
    assert "sample_identifier 'oai:arXiv:quant-ph/9901001'" in err


def _invalid_store(capsys, argv) -> str:
    """Run the CLI expecting an ``invalid store`` failure; its stderr."""
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid store: ") and "Traceback" not in err
    return err


def test_serve_with_a_taxonomy_lacking_an_archive_fails_cleanly(
    tmp_path, capsys, demo_dir
):
    table = tmp_path / "taxonomy.tsv"
    table.write_text(
        "".join(
            line + "\n"
            for line in (ROOT / "src/eprint_oai/data/taxonomy.tsv")
            .read_text(encoding="utf-8").splitlines()
            if not line.startswith("archive\tcs\t")
        ),
        encoding="utf-8",
    )
    _invalid_store(capsys, ["serve", "--data-dir", str(demo_dir),
                            "--taxonomy", str(table), "--port", "1"])


def test_serve_with_a_group_token_holding_the_token_separator_fails_cleanly(
    tmp_path, capsys, demo_dir
):
    """A set named ``phy_sics`` cannot be written into a resumptionToken,
    whose fields "_" separates, so the taxonomy is refused when it loads."""
    table = tmp_path / "taxonomy.tsv"
    table.write_text(
        re.sub(
            r"^(group|archive\t[^\t]+)\tphysics\t", r"\1\tphy_sics\t",
            (ROOT / "src/eprint_oai/data/taxonomy.tsv").read_text(encoding="utf-8"),
            flags=re.M,
        ),
        encoding="utf-8",
    )
    err = _invalid_store(capsys, ["serve", "--data-dir", str(demo_dir),
                                  "--taxonomy", str(table), "--port", "1"])
    assert "group token may not contain '_': 'phy_sics'" in err


@pytest.mark.parametrize(
    "edit, token",
    [
        # a group no archive uses: ListSets would advertise "new group", and
        # a ListIdentifiers asking for it could not be answered
        (lambda text: text + "group\tnew group\tNew group\n", "new group"),
        # ListSets would write the control character as U+FFFD, so that a
        # harvester could never ask for the math set
        (lambda text: re.sub(r"^(group|archive\t[^\t]+)\tmath\t", "\\1\tmath\x07\t",
                             text, flags=re.M), "math\x07"),
    ],
    ids=["unused-token-with-a-space", "token-with-a-control-character"],
)
@pytest.mark.parametrize("command", ["ingest", "crosswalk"])
def test_a_group_token_a_harvester_could_not_ask_for_fails_cleanly(
    tmp_path, capsys, demo_dir, edit, token, command
):
    table = tmp_path / "taxonomy.tsv"
    table.write_text(
        edit((ROOT / "src/eprint_oai/data/taxonomy.tsv").read_text(encoding="utf-8")),
        encoding="utf-8",
    )
    args = [str(DEMO_ABS)] if command == "ingest" else ["cs.DL/0101027", "oai_dc"]
    err = _invalid_store(capsys, [command, "--data-dir", str(demo_dir),
                                  "--taxonomy", str(table), *args])
    assert f"group token may hold only A-Z a-z 0-9 - _ . ! ~ * ' ( ): {token!r}" in err


def test_crosswalk_on_a_missing_store_fails_cleanly(tmp_path, capsys):
    _invalid_store(capsys, ["crosswalk", "--data-dir", str(tmp_path / "nodir"),
                            "cs.DL/0101027", "oai_dc"])


def test_ingest_into_a_store_that_cannot_be_opened_fails_cleanly(tmp_path, capsys):
    (tmp_path / "store").write_text("a file, not a directory\n", encoding="utf-8")
    src = DEMO_ABS
    _invalid_store(capsys, ["ingest", "--data-dir", str(tmp_path / "store"), str(src)])


@pytest.mark.parametrize(
    "argv",
    [["serve", "--port", "1"],
     ["ingest", str(DEMO_ABS)]],
    ids=["serve", "ingest"],
)
def test_store_with_an_unfolded_change_log_fails_cleanly(tmp_path, capsys, argv):
    """An older store whose change log was never folded into its tables is
    refused, naming the log, rather than opened without those writes."""
    store = tmp_path / "store"
    shutil.copytree(DEMO_CORPUS, store, ignore=shutil.ignore_patterns(STORE_DB + "*"))
    (store / "changes.log").write_text("cs.DL/0101027\t2001-02-01\n", encoding="utf-8")
    assert cli.main([argv[0], "--data-dir", str(store), *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid store: ") and "Traceback" not in err
    assert str(store / "changes.log") in err


def _flags(parser) -> set[str]:
    return {
        flag for action in parser._actions for flag in action.option_strings
    } - {"-h", "--help"}


def test_each_command_takes_only_the_flags_it_reads():
    """A flag that its command ignores is a knob that does nothing."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    assert _flags(parser) == {"--config"}
    assert {name: _flags(p) for name, p in commands.items()} == {
        "serve": {"--data-dir", "--taxonomy", "--port", "--base-url",
                  "--page-size", "--min-interval-list", "--min-interval-other"},
        "ingest": {"--data-dir", "--taxonomy"},
        "harvest": {"--data-dir", "--prefix", "--from", "--until", "--set",
                    "--incremental"},
        "crosswalk": {"--data-dir", "--taxonomy"},
    }


def test_ingest_command(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.CLOCK_ENV, "2001-02-03T04:05:06+00:00")
    src = DEMO_ABS
    rc = cli.main(["ingest", "--data-dir", str(tmp_path / "store"), str(src)])
    assert rc == 0
    assert "1 ingested, 0 failed" in capsys.readouterr().out
    # the ingest is on disk: a new load holds it under the ingest's day
    reloaded = Store(load_taxonomy(), tmp_path / "store")
    assert reloaded.get(parse_internal_id("cs.DL/0101027")).datestamp == date(2001, 2, 3)
    # re-ingest of identical content is reported as a failure
    rc = cli.main(["ingest", "--data-dir", str(tmp_path / "store"), str(src)])
    assert rc == 1
    assert "duplicate" in capsys.readouterr().err


def test_ingest_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.abs"
    bad.write_text("not an abs file\n", encoding="utf-8")
    rc = cli.main(["ingest", "--data-dir", str(tmp_path / "store"), str(bad)])
    assert rc == 1


def test_clock_env_override(monkeypatch):
    monkeypatch.setenv(cli.CLOCK_ENV, "1999-12-31T23:59:59")
    assert cli.now().isoformat() == "1999-12-31T23:59:59+00:00"
    monkeypatch.delenv(cli.CLOCK_ENV)
    assert cli.now().year >= 2024


@contextmanager
def serving(app):
    """``app`` on a loopback port for the duration; yields its URL."""
    httpd = make_server(
        "127.0.0.1", 0, app,
        server_class=ThreadingWSGIServer, handler_class=_QuietHandler,
    )
    # a short poll, so that shutdown() returns at once
    thread = threading.Thread(
        target=httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield f"http://127.0.0.1:{httpd.server_port}/"
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.fixture()
def served_handler(demo_handler):
    """The handler ``live_server`` serves; a test class may override it."""
    return demo_handler


@pytest.fixture()
def live_server(served_handler):
    # no throttling: this exercises transport
    with serving(make_app(served_handler)) as url:
        yield url


def _http_get(url: str, params: list[tuple[str, str]]) -> tuple[dict, bytes]:
    """One HTTP/1.0 GET on a raw socket: the response headers and every
    byte received after them until the server closed the connection."""
    parts = urlsplit(url)
    request = f"GET {parts.path}?{urlencode(params)} HTTP/1.0\r\n\r\n"
    with socket.create_connection((parts.hostname, parts.port), timeout=10) as sock:
        sock.sendall(request.encode("ascii"))
        received = b"".join(iter(lambda: sock.recv(65536), b""))
    head, _, body = received.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines[1:])
    return headers, body


def _raw_exchange(url: str, request: bytes, end: bool = False) -> bytes:
    """``request`` sent as it is on a new connection, followed by EOF when
    ``end``: every byte received until the server closed it. A server that
    answers before reading the whole request may reset the connection after
    its answer."""
    parts = urlsplit(url)
    received = []
    with socket.create_connection((parts.hostname, parts.port), timeout=10) as sock:
        try:
            sock.sendall(request)
            if end:
                sock.shutdown(socket.SHUT_WR)
            while chunk := sock.recv(65536):
                received.append(chunk)
        except (ConnectionResetError, BrokenPipeError):
            pass
    return b"".join(received)


def _headers(n: int) -> bytes:
    return b"".join(b"X-Header-%d: %d\r\n" % (i, i) for i in range(n))


@pytest.mark.parametrize(
    "request_bytes",
    [
        b"GET /?verb=Identify\r\n\r\n",
        b"GET /?verb=Identify HTTP/2.0\r\n\r\n",
        b"GET /?verb=Identify HTTP/x\r\n\r\n",
        b"GET /?verb=Identify HTTP/1.0x\r\n\r\n",
        b"\x16\x03\x01\x00\xa5\x01\x00\x00\xa1\x03\x03\x8f\xff\r\n\r\n",
        b"GET /?verb=Identify&x=" + b"a" * 70_000 + b" HTTP/1.0\r\n\r\n",
        b"GET /?verb=Identify HTTP/1.0\r\nX-Long: " + b"a" * 9000 + b"\r\n\r\n",
        b"GET /?verb=Identify HTTP/1.0\r\n" + _headers(150) + b"\r\n",
        b"GET /?verb=Identify HTTP/1.0\r\n" + _headers(101) + b"\r\n",
        b"GET /?verb=Identify HTTP/1.0\r\nX-A: 1\r\n  folded\r\n\r\n",
        b"GET /?verb=Identify HTTP/1.0\r\nNo colon here\r\n\r\n",
        b"GET /?verb=Identify HTTP/1.0\r\nHost : x\r\n\r\n",
        b"GET /?verb=Identify HTTP/1.0\r\nHost: x\r\n",
    ],
    ids=["http-0.9", "http-2.0", "http-x", "http-1.0x", "binary", "long-request-line",
         "long-header-line", "150-headers", "101-headers", "folded-header",
         "header-without-colon", "space-before-colon", "no-end-of-header"],
)
def test_malformed_request_gets_a_400_with_a_status_line(live_server, request_bytes):
    """Whatever the bytes, the answer is a status line and a whole body;
    ``http.server`` answered some of these 414, 431 or 505, or with a body
    and no status line, and took the folded and colonless headers."""
    received = _raw_exchange(live_server, request_bytes, end=True)
    head, _, body = received.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    assert lines[0] == "HTTP/1.0 400 Bad Request"
    headers = dict(line.split(": ", 1) for line in lines[1:])
    assert int(headers["Content-Length"]) == len(body) > 0


def test_a_400_reaches_its_client_before_the_unread_request_is_dropped(
    live_server, monkeypatch
):
    """The server reads 16 KiB of a 70 KB request line in 8 KiB recvs before
    it answers 400, so the client is still sending when the answer comes.
    Closing with bytes unread would reset the connection under the client's
    next send; the server drains the rest instead, and the status line
    arrives in 20 of 20 runs."""
    monkeypatch.setattr(server, "RECV_BYTES", 8192)
    request = b"GET /?verb=Identify&x=" + b"a" * 70_000 + b" HTTP/1.0\r\n\r\n"
    parts = urlsplit(live_server)
    for _ in range(20):
        with socket.create_connection((parts.hostname, parts.port), timeout=10) as sock:
            sock.sendall(request[:20_000])
            sock.recv(1, socket.MSG_PEEK)  # the answer has come
            time.sleep(0.02)  # and the server is past writing it
            sock.sendall(request[20_000:])
            sock.shutdown(socket.SHUT_WR)
            received = b"".join(iter(lambda: sock.recv(65536), b""))
        assert received.startswith(b"HTTP/1.0 400 Bad Request\r\n")


def test_a_client_that_stops_reading_is_cut_off_at_the_send_deadline(
    monkeypatch, caplog, capsys
):
    """Each send of the answer has the timeout to go through: a client with
    a small receive buffer that reads 100 bytes of a 16 MB answer and stops
    loses its connection within the 0.5 s timeout plus a margin. Its thread
    ends, the app's iterable is closed, so the render stops, and one line
    is logged, with no traceback."""
    monkeypatch.setattr(_QuietHandler, "timeout", 0.5)
    sent = []
    closed = threading.Event()

    def app(environ, start_response):
        start_response("200 OK", [("Content-Type", "text/plain")])
        try:
            for _ in range(256):
                sent.append(65536)
                yield b"x" * 65536
        finally:
            closed.set()

    with serving(app) as url, caplog.at_level(logging.INFO, "eprint_oai.server"):
        before = threading.active_count()
        parts = urlsplit(url)
        with socket.socket() as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(5)
            sock.connect((parts.hostname, parts.port))
            sock.sendall(b"GET / HTTP/1.0\r\n\r\n")
            assert len(sock.recv(100)) > 0
            started = time.monotonic()
            assert closed.wait(0.5 + 2), "still sending after the deadline"
            elapsed = time.monotonic() - started
            deadline = time.monotonic() + 5
            while threading.active_count() > before and time.monotonic() < deadline:
                time.sleep(0.01)
            assert threading.active_count() <= before
    assert elapsed < 0.5 + 2, elapsed
    assert sum(sent) < 16 * 2**20
    logged = [r.getMessage() for r in caplog.records]
    assert logged == ["client=127.0.0.1 write timeout"]
    assert "Traceback" not in capsys.readouterr().err


def test_well_formed_get_and_post_get_the_handlers_page(live_server, served_handler):
    """Bare line breaks, repeated headers and many of them are answered
    as ``http.server`` answered them."""
    params = [("verb", "ListRecords"), ("metadataPrefix", "oai_dc")]
    query = urlencode(params).encode("ascii")
    page = served_handler.handle(params).body
    requests = [
        b"GET /?" + query + b" HTTP/1.1\r\nHost: x\r\n" + _headers(98) + b"\r\n",
        b"GET /?" + query + b" HTTP/1.0\nX-A: 1\nX-A: 2\nX_A: 3\n\n",
        b"POST / HTTP/1.0\r\nContent-Type: application/x-www-form-urlencoded\r\n"
        b"Content-Length: %d\r\n\r\n%s" % (len(query), query),
    ]
    for request in requests:
        received = _raw_exchange(live_server, request)
        head, _, body = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.0 200 OK\r\n")
        assert body == page


def test_the_environ_is_built_as_wsgiref_builds_it():
    """Also at the header cap: 100 header lines are read."""
    seen = []

    def app(environ, start_response):
        seen.append(environ)
        start_response("200 OK", [("Content-Type", "text/plain")])
        return [b"ok"]

    with serving(app) as url:
        _raw_exchange(
            url,
            b"POST /a%20b?x=1?y HTTP/1.1\r\nContent-Type: text/plain\r\n"
            b"Content-Length: 3\r\nX-Bench-Request: 7\r\nX-A: 1\r\nX-A:  2 \r\n"
            b"X_A: 3\r\n" + _headers(94) + b"\r\nabc",
        )
    environ = seen[0]
    assert {k: environ[k] for k in (
        "REQUEST_METHOD", "PATH_INFO", "QUERY_STRING", "SERVER_PROTOCOL",
        "CONTENT_TYPE", "CONTENT_LENGTH", "HTTP_X_BENCH_REQUEST", "HTTP_X_A",
        "REMOTE_ADDR",
    )} == {
        "REQUEST_METHOD": "POST", "PATH_INFO": "/a b", "QUERY_STRING": "x=1?y",
        "SERVER_PROTOCOL": "HTTP/1.1", "CONTENT_TYPE": "text/plain",
        "CONTENT_LENGTH": "3", "HTTP_X_BENCH_REQUEST": "7", "HTTP_X_A": "1,2",
        "REMOTE_ADDR": "127.0.0.1",
    }
    assert environ["wsgi.input"].read() == b"abc"


def test_idle_and_half_sent_connections_are_closed(
    live_server, monkeypatch, caplog, capsys
):
    """Neither holds its thread past the read timeout; each is logged once,
    with no traceback."""
    monkeypatch.setattr(_QuietHandler, "timeout", 0.2)
    parts = urlsplit(live_server)
    before = threading.active_count()
    with caplog.at_level(logging.INFO, logger="eprint_oai.server"):
        for sent in (b"", b"GET /?verb=Identify HTTP/1.0\r\nHost: x"):
            with socket.create_connection((parts.hostname, parts.port), timeout=5) as sock:
                sock.sendall(sent)
                assert sock.recv(1) == b""  # closed by the server, unanswered
        deadline = time.monotonic() + 5
        while threading.active_count() > before and time.monotonic() < deadline:
            time.sleep(0.01)
    assert threading.active_count() <= before
    assert [r.getMessage() for r in caplog.records] == ["client=127.0.0.1 timeout"] * 2
    assert "Traceback" not in capsys.readouterr().err


def test_a_client_that_trickles_its_request_is_cut_off_at_the_deadline(
    live_server, monkeypatch, caplog
):
    """The read timeout bounds the whole request, not each recv: a client
    that sends one byte every 0.1 s loses its connection within the 0.5 s
    timeout plus a 0.5 s margin, and its thread ends."""
    monkeypatch.setattr(_QuietHandler, "timeout", 0.5)
    parts = urlsplit(live_server)
    before = threading.active_count()
    with caplog.at_level(logging.INFO, logger="eprint_oai.server"):
        with socket.create_connection((parts.hostname, parts.port), timeout=5) as sock:
            sock.settimeout(0.1)
            started = time.monotonic()
            closed = False
            for byte in b"GET /?verb=Identify HTTP/1.0\r\nX-Slow: " + b"a" * 50:
                try:
                    sock.sendall(bytes([byte]))
                    closed = sock.recv(1) == b""
                except TimeoutError:
                    continue  # still open, nothing sent back
                except (ConnectionResetError, BrokenPipeError):
                    closed = True
                if closed:
                    break
            elapsed = time.monotonic() - started
        assert closed, "still connected after its last byte"
        assert elapsed < 0.5 + 0.5, elapsed
        deadline = time.monotonic() + 5
        while threading.active_count() > before and time.monotonic() < deadline:
            time.sleep(0.01)
    assert threading.active_count() <= before
    assert [r.getMessage() for r in caplog.records] == ["client=127.0.0.1 timeout"]


def test_head_gets_the_gets_headers_and_no_body(live_server):
    """RFC 1945: a HEAD answer is the GET's status line and headers,
    ``Content-Length`` included, with no body."""
    request = b"%s /?verb=Identify HTTP/1.0\r\n\r\n"
    answers = []
    for method in (b"GET", b"HEAD"):
        head, _, body = _raw_exchange(live_server, request % method).partition(
            b"\r\n\r\n"
        )
        lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in lines[1:])
        del headers["Date"]
        answers.append((lines[0], headers, body))
    (get_status, get_headers, get_body), (status, headers, body) = answers
    assert status == get_status == "HTTP/1.0 200 OK"
    assert headers == get_headers
    assert int(headers["Content-Length"]) == len(get_body) > 0
    assert body == b""


def test_head_of_a_page_gets_the_gets_headers_and_renders_nothing(
    live_server, monkeypatch
):
    """A ListRecords page has no ``Content-Length``, and its ``HEAD`` adds
    none: the same headers, no body, and no record put into a format."""
    calls = []
    to_format = protocol.to_format

    def counted(*args, **kwargs):
        calls.append(args)
        return to_format(*args, **kwargs)

    monkeypatch.setattr(protocol, "to_format", counted)
    request = b"%s /?verb=ListRecords&metadataPrefix=oai_dc HTTP/1.0\r\n\r\n"
    answers = {}
    for method in (b"GET", b"HEAD"):
        calls.clear()
        head, _, body = _raw_exchange(live_server, request % method).partition(
            b"\r\n\r\n"
        )
        lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in lines[1:])
        del headers["Date"]
        answers[method] = (lines[0], headers, body, len(calls))
    status, headers, body, rendered = answers[b"HEAD"]
    get_status, get_headers, get_body, get_rendered = answers[b"GET"]
    assert status == get_status == "HTTP/1.0 200 OK"
    assert headers == get_headers
    assert "Content-Length" not in headers
    assert b"</ListRecords>" in get_body and get_rendered > 0
    assert body == b"" and rendered == 0


def test_oversized_post_is_refused_at_once(live_server):
    """ROADMAP item 12's request: a long body announced, 13 bytes sent."""
    request = (
        b"POST / HTTP/1.0\r\nContent-Length: 100000000\r\n\r\nverb=Identify"
    )
    started = time.monotonic()
    received = _raw_exchange(live_server, request)
    assert time.monotonic() - started < 1
    assert received.startswith(b"HTTP/1.0 400 Bad Request\r\n")
    assert f"request body over {MAX_BODY} bytes".encode() in received


class TestPageOfManyParts:
    """A ListRecords page longer than one part, over a real socket."""

    @pytest.fixture()
    def served_handler(self, taxonomy):
        store = Store(taxonomy)
        synth_corpus(store, 400, random.Random(5))
        return ProtocolHandler(
            store, RepositoryConfig(page_size=500), clock=lambda: FIXED_CLOCK
        )

    def test_wire_bytes_are_the_handlers_page(self, live_server, served_handler):
        """The page is sent as it is rendered, with no ``Content-Length``,
        and ends where the server closes the connection (``_http_get`` reads
        until it does); Identify keeps its exact ``Content-Length``."""
        params = [("verb", "ListRecords"), ("metadataPrefix", "oai_dc")]
        headers, body = _http_get(live_server, params)
        parts = list(served_handler.handle(params).parts)
        assert len(parts) > 3  # head, two or more payload parts, tail
        assert len(body) > PART_CHARS
        assert "Content-Length" not in headers
        assert body == b"".join(parts)
        records, token = harvester._parse_page(body, "ListRecords")
        assert token is None
        assert len(records) == len(served_handler.store.scan())
        headers, body = _http_get(live_server, [("verb", "Identify")])
        assert int(headers["Content-Length"]) == len(body) > 0


def test_harvest_command_over_http(tmp_path, capsys, live_server):
    rc = cli.main(
        ["harvest", "--data-dir", str(tmp_path / "h"), live_server,
         "--prefix", "oai_dc"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "fetched=13" in out
    latest = harvester.HarvestStore(tmp_path / "h").latest()
    assert "oai:arXiv:cs.DL/0101027" in latest
    assert len(latest) == 13


@pytest.mark.parametrize(
    "name, content, message",
    [("harvest.sqlite", b"not a database\n" * 100, "not a database")],
    ids=["not-a-database"],
)
def test_harvest_into_unusable_directory_fails_cleanly(
    tmp_path, capsys, name, content, message
):
    (tmp_path / "h").mkdir()
    (tmp_path / "h" / name).write_bytes(content)
    rc = cli.main(
        ["harvest", "--data-dir", str(tmp_path / "h"),
         "http://127.0.0.1:1/", "--prefix", "oai_dc"]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("harvest failed: ") and message in err


def test_importing_the_cli_leaves_the_harvester_unloaded():
    """``serve`` never harvests, so it never pays for loading the
    harvester."""
    code = "import sys, eprint_oai.cli; print('eprint_oai.harvester' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True,
        timeout=60, check=True,
    )
    assert out.stdout == "False\n"


def test_importing_the_cli_loads_no_client_or_tls_modules():
    """``serve`` opens no outbound or TLS connection, so it does not pay for
    loading what one needs."""
    code = (
        "import sys, eprint_oai.cli; "
        "print(sorted({'ssl', 'http.client', 'http.server', 'email'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True,
        timeout=60, check=True,
    )
    assert out.stdout == "[]\n"


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_serve_command_over_a_socket(tmp_path, demo_dir, demo_handler):
    """``eprint-oai serve`` in its own process answers with the in-process
    handler's bytes, and SIGINT ends it."""
    port = _free_port()
    log_path = tmp_path / "serve.log"
    with log_path.open("wb") as log_file:
        proc = subprocess.Popen(
            [sys.executable, "-m", "eprint_oai.cli", "serve",
             "--data-dir", str(demo_dir), "--port", str(port),
             "--page-size", "7",
             "--min-interval-list", "0", "--min-interval-other", "0"],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                     **{cli.CLOCK_ENV: FIXED_CLOCK.isoformat()}),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log_file,
        )
    try:
        deadline = time.monotonic() + 30
        while True:
            try:
                socket.create_connection(("127.0.0.1", port), timeout=1).close()
                break
            except OSError:
                assert proc.poll() is None, log_path.read_text()
                assert time.monotonic() < deadline, "serve did not listen"
                time.sleep(0.02)
        url = f"http://127.0.0.1:{port}/"
        # _http_get returns once the server has closed the connection
        params = [("verb", "Identify")]
        headers, body = _http_get(url, params)
        assert body == demo_handler.handle(params).body
        assert int(headers["Content-Length"]) == len(body)
        params = [("verb", "ListRecords"), ("metadataPrefix", "oai_dc")]
        headers, body = _http_get(url, params)
        assert body == demo_handler.handle(params).body
        assert "Content-Length" not in headers
        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=5)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert "Traceback" not in log_path.read_text()


def test_harvest_incremental_state(tmp_path, capsys, live_server, monkeypatch):
    monkeypatch.setenv(cli.CLOCK_ENV, "2001-02-01T12:00:00+00:00")
    requests = _record_requests(monkeypatch)
    args = ["harvest", "--data-dir", str(tmp_path / "h"), live_server,
            "--prefix", "oai_dc", "--incremental"]
    assert cli.main(args) == 0
    with closing(sqlite3.connect(tmp_path / "h" / "harvest.sqlite")) as db:
        days = db.execute("SELECT day FROM state").fetchall()
    assert days == [("2001-02-01",)]
    # second run starts from the overlap window and still succeeds
    requests.clear()
    assert cli.main(args) == 0
    assert ("from", "2001-01-31") in requests[0]
    assert [p.name for p in (tmp_path / "h").iterdir()] == ["harvest.sqlite"]


def test_incremental_harvests_into_two_directories_each_get_every_record(
    tmp_path, capsys, live_server, monkeypatch, demo_store
):
    """Each harvest directory keeps its own incremental state, so a first
    incremental harvest into a second directory from the same working
    directory is a full harvest too."""
    monkeypatch.setenv(cli.CLOCK_ENV, "2001-02-01T12:00:00+00:00")
    monkeypatch.chdir(tmp_path)
    for name in ("hA", "hB"):
        assert cli.main(["harvest", "--data-dir", name, live_server,
                         "--prefix", "oai_dc", "--incremental"]) == 0
    for name in ("hA", "hB"):
        with closing(harvester.HarvestStore(tmp_path / name)) as store:
            assert len(store.latest()) == len(demo_store.scan()) == 13


def test_harvest_unreachable_target(tmp_path, capsys, monkeypatch):
    # no retry, so none of the real 1+2+4+8+16 s of backoff
    monkeypatch.setattr(harvester, "MAX_RETRIES", 0)
    rc = cli.main(
        ["harvest", "--data-dir", str(tmp_path / "h"),
         "http://127.0.0.1:1/", "--prefix", "oai_dc"]
    )
    assert rc == 1
    assert "harvest failed" in capsys.readouterr().err


def _record_requests(monkeypatch) -> list[list[tuple[str, str]]]:
    """The params of each request the harvest command sends, in order."""
    requests: list[list[tuple[str, str]]] = []
    send = harvester.HttpTransport.request

    def request(self, params):
        requests.append(params)
        return send(self, params)

    monkeypatch.setattr(harvester.HttpTransport, "request", request)
    return requests


@pytest.mark.parametrize(
    "name",
    ["latest.json", "harvest_state.json"],
    ids=["old-format", "old-state-file"],
)
def test_incremental_harvest_beside_older_files_is_a_full_harvest(
    tmp_path, capsys, monkeypatch, live_server, name
):
    """No date is read from an older store format's files or an older
    harvester's state file, so the directory opens with no completed day,
    and its first incremental run fetches every record. The file is left as
    it was."""
    requests = _record_requests(monkeypatch)
    old = tmp_path / "h" / name
    old.parent.mkdir()
    old.write_text('{"k": "2001-01-20"}', encoding="utf-8")
    rc = cli.main(
        ["harvest", "--data-dir", str(tmp_path / "h"), live_server,
         "--prefix", "oai_dc", "--incremental"]
    )
    assert rc == 0
    assert "fetched=13 " in capsys.readouterr().out
    assert not any(k == "from" for k, _ in requests[0])
    assert len(harvester.HarvestStore(tmp_path / "h").latest()) == 13
    assert sorted(p.name for p in old.parent.iterdir()) == ["harvest.sqlite", name]
    assert old.read_text(encoding="utf-8") == '{"k": "2001-01-20"}'


@pytest.mark.parametrize("flag", ["--from", "--until"])
@pytest.mark.parametrize("stamp", ["2001-13-45", "2001-1-4"])
def test_harvest_bad_window_flag_is_usage_error(tmp_path, capsys, flag, stamp):
    with pytest.raises(SystemExit) as info:
        cli.main(
            ["harvest", "--data-dir", str(tmp_path / "h"),
             "http://127.0.0.1:1/", "--prefix", "oai_dc", flag, stamp]
        )
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and "Traceback" not in err
    assert not (tmp_path / "h").exists()


@pytest.mark.parametrize("stamp", ["2001-13-45", "2001-1-4"])
def test_harvest_malformed_datestamp_fails_cleanly(tmp_path, capsys, stamp):
    body = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<ListRecords xmlns="http://www.openarchives.org/OAI/1.0/OAI_ListRecords">'
        "<record><header><identifier>oai:arXiv:cs.DL/0101027</identifier>"
        f"<datestamp>{stamp}</datestamp></header></record></ListRecords>\n"
    ).encode("utf-8")

    def app(environ, start_response):
        start_response("200 OK", [("Content-Type", "text/xml; charset=utf-8")])
        return [body]

    with serving(app) as url:
        rc = cli.main(
            ["harvest", "--data-dir", str(tmp_path / "h"), url, "--prefix", "oai_dc"]
        )
    err = capsys.readouterr().err
    assert rc == 1
    assert "harvest failed" in err and stamp in err
    assert "Traceback" not in err


def _tree(root):
    """Each file under ``root``: its bytes and its stat times."""
    return {
        p: (p.read_bytes(), p.stat().st_mtime_ns, p.stat().st_ctime_ns)
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_page_digest_script_is_stable_and_leaves_the_corpus_as_it_was(demo_dir):
    """``scripts/page_digest.py`` prints a page count and a digest for each
    of the bench's six harvests, then a total, the same on a second run, and
    leaves the directory it reads as it found it."""
    before = _tree(demo_dir)
    outputs = [
        subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "page_digest.py"), str(demo_dir)],
            capture_output=True, text=True, timeout=120, check=True,
        ).stdout
        for _ in range(2)
    ]
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    assert len(lines) == 7 and lines[-1].startswith("total: sha256=")
    for line in lines[:6]:
        assert re.search(r": pages=[1-9]\d* sha256=[0-9a-f]{64}$", line), line
    assert _tree(demo_dir) == before


def test_harvest_demo_script_runs(demo_store):
    """``scripts/harvest_demo.py``, as the README documents it, harvests the
    whole demo corpus."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "harvest_demo.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert f"fetched={len(demo_store.scan())} " in done.stdout
