"""Run outcome, the human-readable report and the final JSON line."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of *values*."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any reaped child."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def environment(seed: int) -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "seed": seed,
    }


@dataclass
class Outcome:
    """Everything one workload run measured and checked."""

    seed: int
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: name -> (value, unit, sample count) of end-to-end metrics.
    metrics: Dict[str, Tuple[float, str, int]] = field(
        default_factory=dict
    )
    #: Per-layer metrics of a traced run (name -> value).
    layer: Optional[Dict[str, float]] = None
    tracer: object = None
    #: Extra report lines (raw, uncalibrated figures).
    notes: List[str] = field(default_factory=list)

    def add(self, name: str, value: float, unit: str, n: int) -> None:
        self.metrics[name] = (float(value), unit, n)


def emit(
    outcome: Outcome,
    workload: str,
    trace: bool,
    wanted: Dict[str, str],
    stream=None,
) -> int:
    """Print the report and the JSON result line; returns exit code.

    *wanted* maps each metric the run must report to its unit.  A
    missing metric or a failed output check makes the result
    incorrect and the exit code 1.
    """
    stream = stream or sys.stdout
    attempted = max(1, outcome.attempted)
    failed = min(attempted, max(outcome.failed, 1 if outcome.problems else 0))
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}", file=stream)
    print(f"env: {json.dumps(environment(outcome.seed), sort_keys=True)}",
          file=stream)
    print(f"workload {workload}: attempted {attempted}, failed {failed}, "
          f"failed_frac {failed / attempted:.4f}", file=stream)
    metrics: Dict[str, Dict[str, object]] = {}
    missing = []
    if trace:
        layer = outcome.layer or {}
        for name, unit in wanted.items():
            if name not in layer:
                missing.append(name)
                continue
            metrics[name] = {"value": layer[name], "unit": unit}
            print(f"  {name:32s} {layer[name]:14.6g} {unit}", file=stream)
    else:
        for name, unit in wanted.items():
            if name not in outcome.metrics:
                missing.append(name)
                continue
            value, got_unit, n = outcome.metrics[name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:32s} {value:14.6g} {got_unit:6s} (n={n})",
                  file=stream)
    for note in outcome.notes:
        print(f"  note: {note}", file=stream)
    for name in missing:
        print(f"MISSING METRIC: {name}", file=stream)
    correct = failed == 0 and not missing
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }), file=stream, flush=True)
    return 0 if correct else 1
