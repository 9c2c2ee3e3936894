"""Native annealing move loop: bit-identity, probes and fallback.

``anneal()`` hands the moves of every placement problem, timed or
not, to the C kernel of :mod:`repro.place.annealkernel`.  The
problems' own ``propose``/``delta_cost``/``commit`` stay the
reference: a proxy without ``native_spec`` reaches them through the
same ``anneal()``.  Both paths must end in the same sites, net costs,
statistics, generator state and, timed, the same connection delays,
criticality weights, timing cost and ``tau``.
"""

import builtins
import json
import math
import os
import pathlib
import pickle
import random
import subprocess
import sys
import warnings

import pytest

from repro.api import FlowOptions, implement
from repro.arch.architecture import FpgaArchitecture
from repro.core.combined_placement import (
    CombinedPlacementProblem,
    TunablePlacementProblem,
)
from repro.core.merge import MergeStrategy, merge_by_index
from repro.gen.spec import build_circuit
from repro.gen.suites import suite_pair_specs
from repro.netlist.lutcircuit import LutCircuit
from repro.netlist.truthtable import TruthTable
from repro.place import annealkernel
from repro.place.annealing import AnnealingSchedule, anneal
from repro.place.placer import (
    _SinglePlacementProblem,
    circuit_cells,
    circuit_nets,
)
from repro.timing.criticality import CriticalityConfig, PlacementTimingCost
from repro.utils.rng import make_rng

from tests.test_place import chain_circuit
from tests.test_tunable import two_mode_circuits

ARCH = FpgaArchitecture(nx=4, ny=4, channel_width=6)


class Proxy:
    """A problem seen through a proxy: without ``native_spec`` when
    *native* is false (so ``anneal()`` runs the Python loop), and with
    ``max_rlim`` replaced when *rlim* is given."""

    def __init__(self, problem, native, rlim=None):
        self._problem = problem
        self._native = native
        self._rlim = rlim

    def __getattr__(self, name):
        if name == "native_spec" and not self._native:
            raise AttributeError(name)
        if name == "max_rlim" and self._rlim is not None:
            return lambda: self._rlim
        return getattr(self._problem, name)


def _single(circuit, arch=ARCH, timing=None):
    def make(rng):
        logic, pads = circuit_cells(circuit)
        timing_cost = None
        if timing is not None:
            timing_cost = PlacementTimingCost(timing)
            timing_cost.add_circuit(circuit)
        return _SinglePlacementProblem(
            arch, logic, pads, circuit_nets(circuit), rng,
            timing=timing_cost,
        )
    return make


def _combined(circuits, strategy, arch=ARCH, timing=None):
    return lambda rng: CombinedPlacementProblem(
        arch, circuits, rng, strategy, timing=timing
    )


def _tplace(circuits, randomize, arch=ARCH, timing=None):
    def make(rng):
        tunable = merge_by_index("t", circuits)
        if not randomize:
            # Start from a legal placement, as the flow does after
            # the combined placement.
            clb, pads = arch.clb_sites(), arch.pad_sites()
            for tlut, site in zip(sorted(tunable.tluts), clb):
                tunable.tluts[tlut].site = site
            for pad, site in zip(sorted(tunable.pads), pads[::-1]):
                tunable.pads[pad].site = site
        return TunablePlacementProblem(
            tunable, arch, rng, randomize=randomize, timing=timing
        )
    return make


def _occupancy(problem):
    """The occupancy maps, with the single placer's vacated (None)
    entries dropped."""
    maps = {}
    for name in ("cell_at", "block_at", "pad_at"):
        table = getattr(problem, name, None)
        if table is not None:
            maps[name] = {
                site: cell for site, cell in table.items()
                if cell is not None
            }
    return maps


def _outcome(make, seed, native, inner_num=0.5, rlim=None):
    rng = make_rng(seed, "native-anneal")
    problem = make(rng)
    stats = anneal(
        Proxy(problem, native, rlim), rng,
        AnnealingSchedule(inner_num=inner_num),
    )
    timing = problem._timing
    return {
        "sites": dict(problem.site_of),
        "net_cost": list(problem.net_cost),
        "stats": stats,
        "rng": rng.getstate(),
        "occupancy": _occupancy(problem),
        "counter": getattr(problem, "conn_counter", None),
        "timing": None if timing is None else (
            list(timing.delay), list(timing.weight), timing.cost,
            problem._tau,
        ),
    }


def _assert_identical(make, seed, inner_num=0.5, rlim=None):
    native = _outcome(make, seed, True, inner_num, rlim)
    python = _outcome(make, seed, False, inner_num, rlim)
    for key in native:
        assert native[key] == python[key], key
    return native


def _fsm_pair():
    _name, specs = suite_pair_specs("fsm", seed=0, scale="tiny", limit=1)[0]
    return [build_circuit(spec) for spec in specs]


@pytest.mark.smoke
def test_native_anneal_kernel_is_loaded():
    # A silent fallback to the Python move loop must not pass as green.
    assert annealkernel.NATIVE, annealkernel.NATIVE_ERROR


PAIR = two_mode_circuits()
PROBLEMS = {
    "single": _single(chain_circuit(12)),
    "combined-wl": _combined(PAIR, MergeStrategy.WIRE_LENGTH),
    "combined-em": _combined(PAIR, MergeStrategy.EDGE_MATCHING),
    "tplace": _tplace(PAIR, randomize=False),
    "tplace-randomize": _tplace(PAIR, randomize=True),
}


class TestBitIdentity:
    @pytest.mark.parametrize("inner_num", [0.2, 1.5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", sorted(PROBLEMS))
    def test_small_problems(self, kind, seed, inner_num):
        outcome = _assert_identical(PROBLEMS[kind], seed, inner_num)
        assert outcome["stats"].n_moves > 0

    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize("kind", [
        "single", "combined-wl", "combined-em", "tplace",
    ])
    def test_generated_pair(self, kind, seed):
        # Cells of a generated circuit sit on up to a dozen nets, so a
        # move's affected-net set grows past the set's first resize.
        pair = _fsm_pair()
        arch = FpgaArchitecture(nx=6, ny=6, channel_width=8)
        make = {
            "single": _single(pair[0], arch),
            "combined-wl": _combined(
                pair, MergeStrategy.WIRE_LENGTH, arch
            ),
            "combined-em": _combined(
                pair, MergeStrategy.EDGE_MATCHING, arch
            ),
            "tplace": _tplace(pair, randomize=True, arch=arch),
        }[kind]
        _assert_identical(make, seed, inner_num=1.0)

    def test_full_grid_without_free_sites(self):
        # One CLB and four pad slots, all occupied: every block move
        # finds only its own site, every pad move is a swap.
        circuit = LutCircuit("full", 4)
        for name in ("a", "b", "c"):
            circuit.add_input(name)
        circuit.add_block(
            "f", ("a", "b", "c"), TruthTable.var(0, 3) ^ TruthTable.var(2, 3)
        )
        circuit.add_output("f")
        arch = FpgaArchitecture(nx=1, ny=1, channel_width=4, io_rat=1)
        assert len(arch.clb_sites()) == 1 and len(arch.pad_sites()) == 4
        for seed in range(3):
            outcome = _assert_identical(_single(circuit, arch), seed)
            assert outcome["stats"].n_moves > 0

    def test_full_clb_layers_combined(self):
        # Four blocks per mode on a 2x2 grid: every block move swaps.
        arch = FpgaArchitecture(nx=2, ny=2, channel_width=4)
        pair = [chain_circuit(4), chain_circuit(4)]
        for strategy in MergeStrategy.WIRE_LENGTH, MergeStrategy.EDGE_MATCHING:
            _assert_identical(_combined(pair, strategy, arch), seed=5)
        _assert_identical(_tplace(pair, randomize=True, arch=arch), seed=5)

    def test_pads_only_circuit(self):
        circuit = LutCircuit("pads", 4)
        for name in ("a", "b", "c"):
            circuit.add_input(name)
        outcome = _assert_identical(_single(circuit), seed=0)
        assert outcome["stats"].n_moves > 0

    def test_logic_only_circuit(self):
        # The single placer's empty-pool branch can only be reached
        # with one of the two pools empty; random() < 0.0 or < 1.0
        # never picks the empty one, and both loops agree.
        circuit = LutCircuit("logic", 4)
        circuit.add_block("k", (), TruthTable.const(True))
        circuit.add_block("n", ("k",), ~TruthTable.var(0, 1))
        logic, pads = circuit_cells(circuit)
        assert pads == [] and len(logic) == 2
        _assert_identical(_single(circuit), seed=0)

    def test_one_cell_pool(self):
        _assert_identical(_single(chain_circuit(1)), seed=0)
        _assert_identical(_tplace(
            [chain_circuit(1), chain_circuit(1)], randomize=True
        ), seed=0)

    @pytest.mark.parametrize("kind", sorted(PROBLEMS))
    def test_range_limit_one(self, kind):
        outcome = _assert_identical(PROBLEMS[kind], seed=4, rlim=1)
        assert outcome["stats"].n_moves > 0

    def test_foreign_generator_keeps_the_python_loop(self):
        class Seeded(random.Random):
            pass

        problem = PROBLEMS["single"](make_rng(0))
        assert annealkernel.native_moves(problem, Seeded(0)) is None
        assert annealkernel.native_moves(problem, make_rng(0)) is not None


TIMED = {
    "single": lambda timing: _single(chain_circuit(12), timing=timing),
    "combined-wl": lambda timing: _combined(
        PAIR, MergeStrategy.WIRE_LENGTH, timing=timing
    ),
    "tplace": lambda timing: _tplace(PAIR, False, timing=timing),
    "tplace-randomize": lambda timing: _tplace(PAIR, True, timing=timing),
}


class TestTimedBitIdentity:
    """The criticality-weighted moves priced in C match the Python
    problems: sites, net costs, statistics, generator state, delays,
    weights, timing cost and tau."""

    @pytest.mark.parametrize("exponent", [0.0, 1.0, 2.5])
    @pytest.mark.parametrize("tradeoff", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", sorted(TIMED))
    def test_small_problems(self, kind, seed, tradeoff, exponent):
        config = CriticalityConfig(exponent=exponent, tradeoff=tradeoff)
        outcome = _assert_identical(TIMED[kind](config), seed)
        assert outcome["stats"].n_moves > 0
        delay, weight, cost, tau = outcome["timing"]
        if exponent == 0.0:
            # Every weight is zero, but (1 - tradeoff) * wire length
            # is still priced.
            assert set(weight) == {0.0} and cost == 0.0 and tau == 0.0
        else:
            assert cost > 0.0 and tau > 0.0

    @pytest.mark.parametrize("kind", [
        "single", "combined-wl", "tplace",
    ])
    def test_generated_pair(self, kind):
        pair = _fsm_pair()
        arch = FpgaArchitecture(nx=6, ny=6, channel_width=8)
        config = CriticalityConfig()
        make = {
            "single": _single(pair[0], arch, config),
            "combined-wl": _combined(
                pair, MergeStrategy.WIRE_LENGTH, arch, config
            ),
            "tplace": _tplace(pair, True, arch, config),
        }[kind]
        _assert_identical(make, 3, inner_num=1.0)

    def test_timed_problem_runs_the_kernel(self):
        rng = make_rng(0)
        problem = TIMED["combined-wl"](CriticalityConfig())(rng)
        spec = problem.native_spec()
        assert spec.timing is problem._timing
        if annealkernel.NATIVE:
            assert isinstance(
                annealkernel.native_moves(problem, rng),
                annealkernel.NativeMoves,
            )

    def test_timed_edge_matching_is_refused(self):
        with pytest.raises(ValueError, match="wire-length"):
            CombinedPlacementProblem(
                ARCH, PAIR, make_rng(0), MergeStrategy.EDGE_MATCHING,
                timing=CriticalityConfig(),
            )


def test_timing_driven_flow_matches_the_python_loop(monkeypatch):
    """A whole timing-driven flow (timed single, combined and TPlace
    placements) pickles to the same result through either loop."""
    if not annealkernel.NATIVE:
        pytest.skip("native annealing kernel unavailable")
    name, specs = suite_pair_specs("klut", seed=0, scale="tiny", limit=1)[0]
    modes = [build_circuit(spec) for spec in specs]
    options = FlowOptions(timing_driven=True, inner_num=0.3)
    native = pickle.dumps(implement(name, modes, options, workers=1))
    monkeypatch.setattr(
        annealkernel, "native_moves", lambda problem, rng: None
    )
    python = pickle.dumps(implement(name, modes, options, workers=1))
    assert native == python


class TestUnsupportedInput:
    """A problem the kernel cannot represent anneals through the Python
    loop without a warning; kernel errors surface as exceptions."""

    def test_site_off_the_architecture_keeps_python_loop(self):
        # A TPlace start with one Tunable LUT on a site the fabric
        # does not have: the kernel cannot index it.
        rng = make_rng(0)
        tunable = merge_by_index("t", PAIR)
        for tlut, site in zip(sorted(tunable.tluts), ARCH.clb_sites()):
            tunable.tluts[tlut].site = site
        for pad, site in zip(sorted(tunable.pads), ARCH.pad_sites()):
            tunable.pads[pad].site = site
        bigger = FpgaArchitecture(nx=9, ny=9, channel_width=6)
        tunable.tluts[sorted(tunable.tluts)[0]].site = (
            bigger.clb_sites()[-1]
        )
        problem = TunablePlacementProblem(tunable, ARCH, rng)
        assert problem.native_spec() is not None
        assert annealkernel.native_moves(problem, rng) is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = anneal(problem, rng, AnnealingSchedule(inner_num=0.3))
        assert stats.n_moves > 0

    def test_scratch_overrun_raises(self):
        if not annealkernel.NATIVE:
            pytest.skip("native annealing kernel unavailable")
        rng = make_rng(0)
        problem = PROBLEMS["combined-wl"](rng)
        moves = annealkernel.native_moves(problem, rng)
        capacity = moves._st.aff_cap
        moves._st.aff_cap = 0
        with pytest.raises(RuntimeError, match="scratch too small"):
            moves.perturb(10)
        moves._st.aff_cap = capacity
        assert len(moves.perturb(10)) > 0


class TestProbes:
    @pytest.fixture(scope="class")
    def lib(self):
        if not annealkernel.NATIVE:
            pytest.skip("native annealing kernel unavailable")
        return annealkernel._LIB

    def test_random_draws(self, lib):
        ns = [1, 3] + [2 ** k for k in range(32)] + [2 ** 31 + 1, 2 ** 32 - 1]
        ops = [0] * 50 + ns * 12 + [0] * 700
        reference = random.Random(99)
        kernel = random.Random(99)
        expected = [
            reference.randrange(op) if op else reference.random()
            for op in ops
        ]
        assert annealkernel.probe_mt(lib, kernel, ops) == expected
        assert kernel.getstate() == reference.getstate()
        # The kernel continues the stream from any saved position.
        assert kernel.random() == reference.random()

    @pytest.mark.parametrize("pattern", ["dense", "colliding", "random"])
    def test_set_order_around_resizes(self, lib, pattern):
        rng = random.Random(11)
        keys = {
            "dense": list(range(200)),
            "colliding": [8 * k + 3 for k in range(200)],
            "random": [rng.randrange(5000) for _ in range(200)],
        }[pattern]
        # The table grows at the 5th, 19th and 77th distinct insert.
        for n in (1, 4, 5, 6, 18, 19, 20, 76, 77, 78, 200):
            built = set()
            for key in keys[:n]:
                built.add(key)
            assert annealkernel.probe_set(lib, keys[:n]) == list(built), n

    def test_sum_and_exp(self, lib):
        values = [1e16, 1.0, -1e16, 0.1, 0.7, 3.3]
        assert annealkernel.probe_sum(lib, values) == sum(values)
        args = [-0.1, -2.5, -700.0, -1e-9]
        assert annealkernel.probe_exp(lib, args) == [
            math.exp(a) for a in args
        ]

    def test_self_check_passes(self, lib):
        assert annealkernel.self_check(lib) is None


def _compensated_sum(iterable, start=0):
    return math.fsum(iterable) + start


class TestFallback:
    def test_self_check_mismatch_falls_back_with_one_warning(
        self, monkeypatch
    ):
        self._check_fallback(monkeypatch, PROBLEMS["combined-wl"])

    def test_timed_self_check_mismatch_falls_back_with_one_warning(
        self, monkeypatch
    ):
        self._check_fallback(
            monkeypatch, TIMED["combined-wl"](CriticalityConfig())
        )

    @staticmethod
    def _check_fallback(monkeypatch, make):
        if not annealkernel.NATIVE:
            pytest.skip("native annealing kernel unavailable")
        native = [_outcome(make, seed, True) for seed in (0, 1)]
        # An interpreter whose sum() is compensated (as 3.12's is)
        # fails the load-time check.
        with monkeypatch.context() as patch:
            patch.setattr(builtins, "sum", _compensated_sum)
            lib, error = annealkernel._load()
        assert lib is None and "sum() differs" in error
        monkeypatch.setattr(annealkernel, "_LIB", lib)
        monkeypatch.setattr(annealkernel, "NATIVE", False)
        monkeypatch.setattr(annealkernel, "NATIVE_ERROR", error)
        annealkernel.warn_fallback.cache_clear()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                fallback = [_outcome(make, seed, True) for seed in (0, 1)]
        finally:
            annealkernel.warn_fallback.cache_clear()
        runtime = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert len(runtime) == 1
        assert "Python move loop" in str(runtime[0].message)
        assert fallback == native

    def test_no_compiler_falls_back_with_one_warning(self, tmp_path):
        """A fresh process with no compiler and an empty cache places
        through the Python loop, warns once, and places exactly as the
        native kernel does."""
        script = (
            "import json, warnings\n"
            "with warnings.catch_warnings(record=True) as caught:\n"
            "    warnings.simplefilter('always')\n"
            "    from repro.arch.architecture import FpgaArchitecture\n"
            "    from repro.core.combined_placement import combined_place\n"
            "    from repro.core.merge import MergeStrategy\n"
            "    from repro.place import annealkernel\n"
            "    from repro.place.annealing import AnnealingSchedule\n"
            "    from repro.place.placer import place_circuit\n"
            "    from tests.test_tunable import two_mode_circuits\n"
            "    arch = FpgaArchitecture(nx=4, ny=4, channel_width=6)\n"
            "    pair = two_mode_circuits()\n"
            "    fast = AnnealingSchedule(inner_num=0.5)\n"
            "    sites = [str(sorted(place_circuit(c, arch, seed=3,"
            " schedule=fast).sites.items())) for c in pair]\n"
            "    for s in MergeStrategy.WIRE_LENGTH, "
            "MergeStrategy.EDGE_MATCHING:\n"
            "        r = combined_place(pair, arch, s, seed=3,"
            " schedule=fast)\n"
            "        sites.append(str(sorted(r.block_sites.items())))\n"
            "print(json.dumps({'native': annealkernel.NATIVE,"
            " 'sites': sites, 'warnings': [str(w.message) for w in"
            " caught if issubclass(w.category, RuntimeWarning)]}))\n"
        )
        root = pathlib.Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])

        def run(extra):
            proc = subprocess.run(
                [sys.executable, "-c", script], env=dict(env, **extra),
                capture_output=True, text=True, timeout=120, cwd=root,
            )
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout.strip().splitlines()[-1])

        fallback = run({"PATH": "", "HOME": str(tmp_path)})
        native = run({})
        assert fallback["native"] is False
        assert len(fallback["warnings"]) == 1
        assert "Python move loop" in fallback["warnings"][0]
        assert native["native"] is True and native["warnings"] == []
        assert fallback["sites"] == native["sites"]
