"""Benchmark entry point: one workload run, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload route-bound --seed 1 \\
        --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same work untraced and then traced, and reports
the per-layer metrics plus the tracing overhead.  The last line of
standard output is the JSON result; everything before it is the
human-readable report.  The exit code is non-zero when an output check
fails, a metric is missing, or the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Environment switches that silently change code paths.
FORBIDDEN_ENV = ("REPRO_SCALAR_ROUTER", "REPRO_CACHE_DISABLE",
                 "REPRO_WORKERS")

WORKLOAD_NAMES = ("route-bound", "place-bound", "timing-driven",
                  "warm-serve")

#: End-to-end metrics every ``--trace 0`` run reports, with units.
END_TO_END = {
    "flow_s.p50": "s",
    "flows_per_min": "1/min",
    "reconfig_speedup.gmean": "x",
    "wirelength_ratio.gmean": "x",
    "fmax_ratio.gmean": "x",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_ms.p50": "ms",
    "requests_per_s": "1/s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import it.

    Exits with code 2 when the sources are missing, so a directory
    holding only the benchmark never prints a result.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {src}")
    # Imported here so lazy imports inside the first flow are not timed.
    import repro.bench.campaign  # noqa: F401
    import repro.serve.server  # noqa: F401
    import repro.timing.criticality  # noqa: F401
    import repro.timing.sta  # noqa: F401
    from repro.exec.fingerprint import code_fingerprint

    code_fingerprint()


def run(workload: str, seed: int, seconds: float, trace: bool,
        work_dir: str, **shrink):
    from perfbench.cold import WORKLOADS, run_cold
    from perfbench.warm import run_warm

    if workload == "warm-serve":
        return run_warm(seed, seconds, trace, work_dir, **shrink)
    return run_cold(WORKLOADS[workload], seed, seconds, trace, work_dir,
                    **shrink)


def pin_hash_seed() -> None:
    """Re-execute under ``PYTHONHASHSEED=0`` unless already there.

    String hashing is randomised per process, and the set and dict
    layouts it produces move a flow's time by up to ten percent from
    one process to the next without changing any result.  Pinning it
    removes that term from the run-to-run spread; both sides of a
    comparison run under the same seed.
    """
    if os.environ.get("PYTHONHASHSEED") == "0":
        return
    env = dict(os.environ, PYTHONHASHSEED="0")
    os.execve(sys.executable,
              [sys.executable, str(Path(__file__).resolve())]
              + sys.argv[1:], env)


def main(argv=None) -> int:
    args = parse_args(argv)
    set_vars = [name for name in FORBIDDEN_ENV if os.environ.get(name)]
    if set_vars:
        sys.exit("perfbench: refusing to run with "
                 + ", ".join(set_vars) + " set (each switches code paths)")
    if sys.flags.optimize:
        sys.exit("perfbench: refusing to run under -O (output checks "
                 "use assert)")
    import_program()
    from perfbench.layers import PER_LAYER_METRICS
    from perfbench.report import emit, environment

    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=base)
    try:
        outcome = run(args.workload, args.seed, args.seconds,
                      bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if outcome.tracer is not None:
        traces = base / "traces"
        traces.mkdir(exist_ok=True)
        path = traces / f"{args.workload}-seed{args.seed}.json"
        meta = dict(environment(args.seed), workload=args.workload,
                    metrics=outcome.layer)
        outcome.tracer.write(str(path), meta)
        print(f"trace: {path.relative_to(ROOT)} "
              f"({len(outcome.tracer.spans)} spans)")
    wanted = PER_LAYER_METRICS if args.trace else END_TO_END
    return emit(outcome, args.workload, bool(args.trace), wanted)


if __name__ == "__main__":
    pin_hash_seed()
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
