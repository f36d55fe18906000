from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from contextlib import contextmanager
from pathlib import Path
from wsgiref.simple_server import make_server

import pytest

from conftest import GOLDEN, ROOT
from eprint_oai import cli, harvester
from eprint_oai.server import ThreadingWSGIServer, _QuietHandler, make_app

DEMO = Path(__file__).resolve().parent.parent / "corpus" / "demo"


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["frobnicate"])
    assert info.value.code == 2


def test_missing_data_dir_is_usage_error():
    with pytest.raises(SystemExit, match="data-dir"):
        cli.main(["crosswalk", "cs.DL/0101027", "oai_dc"])


def test_crosswalk_command(capsys):
    rc = cli.main(
        ["crosswalk", "--data-dir", str(DEMO), "cs.DL/0101027", "oai_dc"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "<creator>Warner, Simeon</creator>" in out
    assert "<subject>Digital Libraries</subject>" in out
    # the fragment exactly as GetRecord embeds it inside <metadata>
    golden = (GOLDEN / "getrecord_csdl_oai_dc.xml").read_text(encoding="utf-8")
    inner = golden.split("   <metadata>\n", 1)[1].split("\n   </metadata>", 1)[0]
    assert out == inner + "\n"


def test_crosswalk_unknown_record(capsys):
    rc = cli.main(
        ["crosswalk", "--data-dir", str(DEMO), "hep-th/7001001", "oai_dc"]
    )
    assert rc == 1
    assert "not found" in capsys.readouterr().err


def test_crosswalk_unsupported_format(capsys):
    rc = cli.main(
        ["crosswalk", "--data-dir", str(DEMO), "cs.DL/0101027", "oai_marc"]
    )
    assert rc == 1
    assert "unsupported" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data_dir": "/nonexistent"}), encoding="utf-8")
    rc = cli.main(
        ["--config", str(cfg), "crosswalk", "--data-dir", str(DEMO),
         "cs.DL/0101027", "oai_dc"]
    )
    assert rc == 0  # flag wins over the config file


def test_ingest_command(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.CLOCK_ENV, "2001-02-03T04:05:06+00:00")
    src = DEMO / "cs" / "0101" / "cs.DL.0101027.abs"
    rc = cli.main(["ingest", "--data-dir", str(tmp_path / "store"), str(src)])
    assert rc == 0
    assert "1 ingested, 0 failed" in capsys.readouterr().out
    # the batch ends with a compaction: the change log is folded into the table
    store = tmp_path / "store"
    assert (store / "changes.log").read_bytes() == b""
    assert (store / "datestamps.tab").read_text() == "cs.DL/0101027\t2001-02-03\n"
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
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{httpd.server_port}/"
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.fixture()
def live_server(demo_handler):
    # no throttling: this exercises transport
    with serving(make_app(demo_handler)) as url:
        yield url


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
    [
        ("latest.json", b"{}", "older harvest store format"),
        ("harvest.sqlite", b"not a database\n" * 100, "not a database"),
    ],
    ids=["old-format", "not-a-database"],
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


def test_importing_the_cli_leaves_sqlite_unloaded():
    """``serve`` never harvests, so it never pays for loading sqlite3."""
    code = "import sys, eprint_oai.cli; print('sqlite3' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True,
        timeout=60, check=True,
    )
    assert out.stdout == "False\n"


def test_harvest_incremental_state(tmp_path, capsys, live_server, monkeypatch):
    monkeypatch.setenv(cli.CLOCK_ENV, "2001-02-01T12:00:00+00:00")
    state_file = tmp_path / "state.json"
    args = ["harvest", "--data-dir", str(tmp_path / "h"), live_server,
            "--prefix", "oai_dc", "--incremental",
            "--state-file", str(state_file)]
    assert cli.main(args) == 0
    state = json.loads(state_file.read_text())
    assert list(state.values()) == ["2001-02-01"]
    # second run starts from the overlap window and still succeeds
    assert cli.main(args) == 0


def test_harvest_unreachable_target(tmp_path, capsys, monkeypatch):
    # every retry still happens, without the real 1+2+4+8+16 s of backoff
    monkeypatch.setattr(harvester, "BACKOFF_CAP_S", 0)
    rc = cli.main(
        ["harvest", "--data-dir", str(tmp_path / "h"),
         "http://127.0.0.1:1/", "--prefix", "oai_dc"]
    )
    assert rc == 1
    assert "harvest failed" in capsys.readouterr().err


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


def test_harvest_demo_script_runs(demo_store):
    """``scripts/harvest_demo.py``, as the README documents it, harvests the
    whole demo corpus."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "harvest_demo.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert f"fetched={len(demo_store.scan())} " in done.stdout
