from __future__ import annotations

import json
import threading
from pathlib import Path
from wsgiref.simple_server import make_server

import pytest

from eprint_oai import cli
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


@pytest.fixture()
def live_server(demo_handler):
    app = make_app(demo_handler)  # no throttling: this exercises transport
    httpd = make_server(
        "127.0.0.1", 0, app,
        server_class=ThreadingWSGIServer, handler_class=_QuietHandler,
    )
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_port}/"
    httpd.shutdown()
    thread.join(timeout=5)


def test_harvest_command_over_http(tmp_path, capsys, live_server):
    rc = cli.main(
        ["harvest", "--data-dir", str(tmp_path / "h"), live_server,
         "--prefix", "oai_dc"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "fetched=13" in out
    latest = json.loads((tmp_path / "h" / "latest.json").read_text())
    assert "oai:arXiv:cs.DL/0101027" in latest


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


def test_harvest_unreachable_target(tmp_path, capsys):
    rc = cli.main(
        ["harvest", "--data-dir", str(tmp_path / "h"),
         "http://127.0.0.1:1/", "--prefix", "oai_dc"]
    )
    assert rc == 1
    assert "harvest failed" in capsys.readouterr().err
