"""``eprint_oai.cli`` with the span recorder installed, for traced cold starts.

    python3 bench/traced_serve.py SPANS_OUT serve [serve options...]

Runs ``eprint_oai.cli.main`` on the remaining arguments, with every traced
name wrapped and the WSGI app that ``cmd_serve`` builds wrapped as well.
On SIGINT the server stops and the spans are written to ``SPANS_OUT``.
``src`` must be on ``PYTHONPATH``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Recorder  # noqa: E402


def main() -> int:
    out = Path(sys.argv[1])
    from eprint_oai import cli

    recorder = Recorder()
    recorder.install()
    make_app = cli.make_app
    cli.make_app = lambda *a, **k: recorder.wrap_app(make_app(*a, **k))
    try:
        return cli.main(sys.argv[2:])
    finally:
        recorder.uninstall()
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main())
