"""eprint-oai benchmark: one command, three workloads, correctness checked.

    python3 bench/run.py --workload harvest_full --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout; it uses the checkout's ``src``.
See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("harvest_full", "daily_cycle", "cold_start")
E2E_UNITS = {"setup_s": "s", "task_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms", "peak_rss_mb": "MB"}

# what the generic end-to-end metrics are called in each workload's terms
NAMED = {
    "harvest_full": {
        "task_s": "sweep_s",
        "op_ms_p50": "page_ms_p50",
        "op_ms_p90": "page_ms_p90",
        "peak_rss_mb": "process_rss_mb",
    },
    "daily_cycle": {
        "task_s": "day_cycle_s",
        "op_ms_p50": "ingest_ms_p50",
        "op_ms_p90": "ingest_ms_p90",
        "peak_rss_mb": "process_rss_mb",
    },
    "cold_start": {
        "task_s": "cold_start_s",
        "op_ms_p50": "page_ms_p50",
        "op_ms_p90": "page_ms_p90",
        "peak_rss_mb": "server_rss_mb",
    },
}


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _median(values):
    return statistics.median(values) if values else None


def _line(name: str, value, unit: str, n: int, note: str = "") -> None:
    shown = "n/a" if value is None else f"{value:.6g}"
    print(f"  {name:<38} {shown:>12} {unit:<6} n={n:<6} {note}".rstrip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "eprint_oai" / "__init__.py").is_file():
        return _fail(f"no package source at {src}/eprint_oai")
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    import eprint_oai

    if Path(eprint_oai.__file__).resolve().parent != (src / "eprint_oai").resolve():
        return _fail(f"imported eprint_oai from {eprint_oai.__file__}, not {src}")

    import layers
    import workloads
    from eprint_oai.harvester import ProtocolError, TransportFailure
    from harness import CheckFailed, p90
    from spans import Recorder

    for kind, unit_of in (("end_to_end", E2E_UNITS.get), ("per_layer", layers.unit_of)):
        for name, unit in _declared(kind):
            if unit_of(name) != unit:
                return _fail(f"BENCHMARK.json gives {name} in {unit}, the benchmark "
                             f"measures it in {unit_of(name)}")

    work = ROOT / ".bench_build" / "bench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    corpus = work / "corpus"
    recorder = Recorder() if args.trace else None
    run = workloads.Run(ROOT, work, corpus, args.seed, args.seconds, recorder)
    failure = None
    import_s: list[float] = []
    try:
        # generated in a child process, so that the generator's memory
        # stays out of this process's peak RSS
        env = dict(os.environ, PYTHONPATH=str(src))
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "corpus.py"), str(corpus), str(args.seed)],
            env=env, check=True, timeout=600,
        )
        getattr(workloads, args.workload)(run)
        workloads.measure_setups(run)
        if recorder:
            import_s = workloads.measure_imports(run)
    except (CheckFailed, ProtocolError, TransportFailure) as exc:
        failure = f"{type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(
        f"eprint-oai bench: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace} "
        f"nproc={os.cpu_count()} python={platform.python_version()} commit={_commit()}"
    )
    if failure is not None:
        print(f"CORRECTNESS CHECK FAILED: {failure}")

    measured = {
        "setup_s": (_median(run.setup_s), len(run.setup_s)),
        "task_s": (run.task_s(run.unit_s), sum(map(len, run.unit_s.values()))),
        "op_ms_p50": (_median(run.op_ms), len(run.op_ms)),
        "op_ms_p90": (p90(run.op_ms) if run.op_ms else None, len(run.op_ms)),
        "peak_rss_mb": (_median(run.rss_mb), len(run.rss_mb)),
    }
    e2e = {name: (value, E2E_UNITS[name], n) for name, (value, n) in measured.items()}
    print("end-to-end metrics (untraced units):")
    for name, (value, unit, n) in e2e.items():
        note = NAMED[args.workload].get(name, "")
        if name == "op_ms_p90" and 0 < n < 100:
            note += " (fewer than 10 samples beyond p90)"
        _line(name, value, unit, n, note)
    for name, (value, unit, n) in run.report.items():
        _line(name, value, unit, n)
    error_ratio = run.failed / run.attempted if run.attempted else None
    _line("error_ratio", error_ratio, "ratio", run.attempted,
          f"{run.failed} failed, non-200 or refused of {run.attempted} requests")

    metrics = {}
    if recorder:
        task_traced = run.task_s(run.traced_unit_s)
        overhead = (
            (task_traced - e2e["task_s"][0]) / e2e["task_s"][0] * 100
            if task_traced and e2e["task_s"][0] else None
        )
        per_layer = layers.compute(
            recorder, run.first_traced or (0, 0), run.refused, import_s, overhead,
        )
        print(f"per-layer metrics (traced units: {sum(map(len, run.traced_unit_s.values()))}; "
              f"tracing overhead on task_s: "
              + ("n/a" if overhead is None else f"{overhead:+.1f}%") + "):")
        for name, (value, unit, n) in per_layer.items():
            _line(name, value, unit, n, "-> " + layers.MOVES[name])
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        recorder.dump(traces / f"{args.workload}-seed{args.seed}.json")
        source = per_layer
        wanted = _declared("per_layer")
    else:
        source = e2e
        wanted = _declared("end_to_end")
    for name, unit in wanted:
        value = source.get(name, (None,))[0]
        if value is None and failure is None:
            failure = f"metric {name} was not measured"
            print(f"CORRECTNESS CHECK FAILED: {failure}")
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": failure is None,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if failure is None else 1


def _declared(kind: str) -> list[tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec[kind]]


if __name__ == "__main__":
    sys.exit(main())
