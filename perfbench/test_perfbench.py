"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

They run each workload at a tiny scale, pin the metric names, check
the self-time arithmetic on a synthetic span tree, and prove that a
failing output check reaches ``failed`` and the exit code.
"""

from __future__ import annotations

import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.run import END_TO_END, ROOT, import_program, run

import_program()

from perfbench.cold import WORKLOADS, run_cold  # noqa: E402
from perfbench.layers import PER_LAYER_METRICS  # noqa: E402
from perfbench.report import emit  # noqa: E402
from perfbench.spans import Span, self_times  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
TINY = {"scale": "tiny", "limit": 1}


def _result_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS) + ["warm-serve"])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_smoke(workload, trace, tmp_path):
    outcome = run(workload, 7, 0.0, trace, str(tmp_path), **TINY)
    out = io.StringIO()
    wanted = PER_LAYER_METRICS if trace else END_TO_END
    code = emit(outcome, workload, trace, wanted, stream=out)
    result = _result_line(out.getvalue())
    assert code == 0, out.getvalue()
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(wanted)
    if not trace:
        for name in ("flow_s.p50", "setup_s", "reconfig_speedup.gmean"):
            assert result["metrics"][name]["value"] > 0


def test_metric_names_match_contract():
    names = list(END_TO_END) + list(PER_LAYER_METRICS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == set(END_TO_END)
    assert {m["name"] for m in spec["per_layer"]} == set(PER_LAYER_METRICS)
    for metric in spec["end_to_end"]:
        assert metric["unit"] == END_TO_END[metric["name"]]
    for metric in spec["per_layer"]:
        assert metric["unit"] == PER_LAYER_METRICS[metric["name"]]
    assert {w["name"] for w in spec["workloads"]} == (
        set(WORKLOADS) | {"warm-serve"}
    )


def test_self_time_of_synthetic_tree():
    def span(name, start, end, parent):
        return Span(name, start, end, parent, "f", 0)

    spans = [
        span("flow", 0.0, 10.0, None),      # 0
        span("place", 1.0, 4.0, 0),         # 1
        span("route", 3.0, 8.0, 0),         # 2: overlaps place by 1
        span("search", 5.0, 6.0, 2),        # 3
        span("search", 5.5, 7.0, 2),        # 4: overlaps sibling
        span("late", 9.5, 12.0, 0),         # 5: runs past its parent
    ]
    selfs = self_times(spans)
    # flow: 10 - union([1,8], [9.5,10]) = 10 - 7.5
    assert selfs[0] == pytest.approx(2.5)
    assert selfs[1] == pytest.approx(3.0)
    # route: 5 - union([5,6], [5.5,7]) = 5 - 2
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(1.5)
    assert all(value >= 0 for value in selfs)


def test_injected_failing_check_counts(tmp_path):
    def failing(result, modes):
        return [f"{result.name}: injected failure"]

    outcome = run_cold(WORKLOADS["route-bound"], 3, 0.0, False,
                       str(tmp_path), check=failing, **TINY)
    assert outcome.attempted >= 1
    assert outcome.failed == outcome.attempted
    out = io.StringIO()
    assert emit(outcome, "route-bound", False, END_TO_END, stream=out) == 1
    result = _result_line(out.getvalue())
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def _cli(args, cwd, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "route-bound",
         "--seed", "1", "--seconds", "1", "--trace", "0"] + args,
        cwd=cwd, env=env, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("var", ["REPRO_SCALAR_ROUTER",
                                 "REPRO_CACHE_DISABLE", "REPRO_WORKERS"])
def test_refuses_code_path_switches(var):
    env = dict(os.environ, **{var: "1"})
    proc = _cli([], ROOT, env)
    assert proc.returncode != 0
    assert var in proc.stderr
    assert '"correct"' not in proc.stdout


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = _cli([], tmp_path, env)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (Path(tmp_path) / ".perfbench").exists()
