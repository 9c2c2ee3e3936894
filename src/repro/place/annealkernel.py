"""Native annealing move loop (``anneal.c``) and its Python binding.

:func:`repro.place.annealing.anneal` keeps the schedule — the
temperatures, the range limit, the exit test — and hands the moves to
the C kernel whenever the problem can describe itself to it
(``problem.native_spec()`` returns an :class:`AnnealSpec`) and the
kernel loaded.  That covers every problem: the single-circuit placer,
the combined placement (wire length and edge matching) and TPlace,
timed or not.  A timed problem's spec also carries its timing
connections, their delays and criticality weights, the running timing
cost, the tradeoff, the scale ``tau`` and the two constants of
``DelayModel.connection_delay``; the kernel prices the
criticality-weighted delay term of a move next to its wire length,
and :meth:`NativeMoves.refresh` hands the state to the problem for
the per-temperature criticality refresh, which stays in Python.

The kernel reproduces the Python problems bit for bit: it replays
CPython's MT19937 from ``rng.getstate()`` and writes the state back,
visits affected nets in the order Python does (sorted for the single
placer, CPython's ``set`` order for the others), affected timing
connections in ascending order, and sums them left to right as
``sum()`` does.  That contract holds for the interpreter the
library is checked against: on load, :func:`self_check` compares the
kernel's random draws, set order, ``sum()`` and ``exp()`` with the
running interpreter's, and on any mismatch (or when no compiler is
available) :data:`NATIVE` is false and placement uses the Python
loop, announced once by a ``RuntimeWarning``.  Python 3.12's
compensated ``sum()`` is one such mismatch.
"""

from __future__ import annotations

import ctypes
import functools
import math
import random
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any, List, Mapping, MutableMapping, Optional, Sequence, Tuple,
)

import numpy as np

from repro.place.cost import q_factor
from repro.utils.native import NativeBuildError, load_library

#: C source of the kernel (shipped as package data).
KERNEL_SOURCE = Path(__file__).with_name("anneal.c")

#: The move conventions of a problem.  The single placer chooses
#: between blocks and pads by ``random() < n_blocks / n_cells`` and
#: visits a move's affected nets sorted; the combined placement and
#: TPlace choose by ``randrange(n_cells) < n_blocks`` and visit them
#: in CPython ``set`` iteration order.
STYLE_SINGLE, STYLE_MODES = 0, 1
COST_WIRE_LENGTH, COST_EDGE_MATCHING = 0, 1

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p


class _State(ctypes.Structure):
    """Mirror of ``anneal_t`` in ``anneal.c``."""

    _fields_ = [
        *[(name, _I64) for name in (
            "n_cells", "n_blocks", "n_layers", "n_clb", "n_sites",
            "n_nets", "n_conns", "style", "cost_kind",
        )],
        *[(name, _PTR) for name in (
            "cell_site", "occ", "cell_layer", "site_x", "site_y",
            "net_ptr", "net_cell", "cnet_ptr", "cnet_idx", "net_q",
            "net_cost", "conn_src", "conn_sink", "cconn_ptr",
            "cconn_idx", "conn_key", "ctr_key", "ctr_cnt",
        )],
        ("ctr_cap", _I64),
        ("ctr_size", _I64),
        *[(name, _PTR) for name in (
            "aff", "aff_key", "net_mark", "conn_mark", "set_a", "set_b",
            "evaluated",
        )],
        *[(name, _I64) for name in (
            "aff_cap", "set_cap", "n_aff", "epoch",
        )],
        ("mt", _PTR),
        ("mti", _I64),
        ("timed", _I64),
        *[(name, _PTR) for name in ("delay", "weight", "taff", "t_eval")],
        ("n_taff", _I64),
        *[(name, ctypes.c_double) for name in (
            "t_cost", "lam", "tau", "delay_base", "delay_per_tile",
        )],
    ]


def _bind(lib: ctypes.CDLL) -> None:
    for name, restype, argtypes in (
        ("repro_anneal_init", _I64, [_PTR]),
        ("repro_anneal_perturb", _I64, [_PTR, _I64, _PTR]),
        ("repro_anneal_temperature", _I64,
         [_PTR, _I64, ctypes.c_double, ctypes.c_double, _PTR, _PTR]),
        ("repro_anneal_probe_mt", None, [_PTR, _PTR, _PTR, _I64, _PTR]),
        ("repro_anneal_probe_set", _I64,
         [_PTR, _I64, _PTR, _PTR, _I64, _PTR]),
        ("repro_anneal_probe_sum", ctypes.c_double, [_PTR, _PTR, _I64]),
        ("repro_anneal_probe_exp", None, [_PTR, _I64, _PTR]),
    ):
        function = getattr(lib, name)
        function.restype = restype
        function.argtypes = argtypes


# -- probes (also the self-check's reference comparisons) ------------------


def _set_capacity(n_keys: int) -> int:
    """Table size a CPython set reaches after *n_keys* distinct adds."""
    size = 8
    for fill in range(1, n_keys + 1):
        if fill * 5 >= (size - 1) * 3:
            size = 8
            while size <= (fill * 2 if fill > 50000 else fill * 4):
                size <<= 1
    return size


def probe_mt(lib, rng: random.Random, ops: Sequence[int]) -> List[float]:
    """Draws of the kernel's MT19937 started from *rng*'s state: for
    each op, ``random()`` when it is 0, else ``randrange(op)``.  The
    kernel's final state is written back to *rng*."""
    version, internal, gauss = rng.getstate()
    mt = np.array(internal[:-1], np.uint32)
    mti = ctypes.c_int64(internal[-1])
    ops_a = np.array(ops, np.int64)
    out = np.empty(len(ops), np.float64)
    lib.repro_anneal_probe_mt(
        mt.ctypes.data, ctypes.byref(mti), ops_a.ctypes.data, len(ops),
        out.ctypes.data,
    )
    rng.setstate((version, tuple(mt.tolist()) + (mti.value,), gauss))
    return out.tolist()


def probe_set(lib, keys: Sequence[int]) -> List[int]:
    """Iteration order of the kernel's set built by adding *keys*."""
    cap = _set_capacity(len(keys))
    keys_a = np.array(keys, np.int64)
    tables = np.empty((2, cap), np.int64)
    out = np.empty(max(1, len(keys)), np.int64)
    n = lib.repro_anneal_probe_set(
        keys_a.ctypes.data, len(keys), tables[0].ctypes.data,
        tables[1].ctypes.data, cap, out.ctypes.data,
    )
    return out[:n].tolist()


def probe_sum(lib, values: Sequence[float]) -> float:
    """The kernel's left-to-right sum of *values*."""
    values_a = np.array(values, np.float64)
    index = np.arange(len(values), dtype=np.int64)
    return lib.repro_anneal_probe_sum(
        values_a.ctypes.data, index.ctypes.data, len(values)
    )


def probe_exp(lib, values: Sequence[float]) -> List[float]:
    """The kernel's ``exp()`` of each value."""
    values_a = np.array(values, np.float64)
    out = np.empty(len(values), np.float64)
    lib.repro_anneal_probe_exp(
        values_a.ctypes.data, len(values), out.ctypes.data
    )
    return out.tolist()


def self_check(lib) -> Optional[str]:
    """Compare the kernel's random draws, set order, ``sum()`` and
    ``exp()`` with this interpreter's; the first mismatch, or None."""
    ops = [0] * 700 + [
        1, 2, 3, 7, 8, 100, 2 ** 16, 2 ** 31, 2 ** 31 + 1, 2 ** 32 - 1,
    ] * 70
    reference = random.Random(20131)
    kernel = random.Random(20131)
    expected = [
        reference.randrange(op) if op else reference.random()
        for op in ops
    ]
    if probe_mt(lib, kernel, ops) != expected:
        return "random draws differ"
    if kernel.getstate() != reference.getstate():
        return "random state differs"
    keys = random.Random(7)
    for sequence in (
        list(range(100)),
        [8 * k for k in range(100)],
        [keys.randrange(10 ** 6) for _ in range(150)],
        [keys.randrange(40) for _ in range(60)],
    ):
        built = set()
        for key in sequence:
            built.add(key)
        # The interpreter's int-set order is what is being checked
        # (ints hash to themselves: it is the same in every process).
        # repro: allow[RPR003] the set order itself is the reference
        if probe_set(lib, sequence) != list(built):
            return "set order differs"
    for values in (
        [1e16, 1.0, -1e16],
        [0.1] * 10,
        [keys.uniform(0.0, 50.0) for _ in range(40)],
    ):
        if probe_sum(lib, values) != sum(v for v in values):
            return "sum() differs"
    args = [-keys.uniform(0.0, 40.0) for _ in range(200)]
    args += [-1e-12, -0.5, -745.0, -800.0]
    if probe_exp(lib, args) != [math.exp(a) for a in args]:
        return "exp() differs"
    return None


def _load() -> Tuple[Optional[ctypes.CDLL], Optional[str]]:
    try:
        lib = load_library(KERNEL_SOURCE)
    except NativeBuildError as exc:
        return None, str(exc)
    _bind(lib)
    mismatch = self_check(lib)
    if mismatch is not None:
        return None, f"self-check against this interpreter: {mismatch}"
    return lib, None


_LIB, NATIVE_ERROR = _load()

#: Whether the native move loop is loaded (built and self-checked).
#: Without it every placement anneals through the Python loop.
NATIVE = _LIB is not None


@functools.lru_cache(maxsize=None)
def warn_fallback() -> None:
    """Warn, once per process, that placement falls back to the Python
    move loop because the native kernel is unavailable."""
    warnings.warn(
        f"native annealing kernel unavailable ({NATIVE_ERROR}); placing "
        "with the slower Python move loop",
        RuntimeWarning,
        stacklevel=3,
    )


# -- problems ---------------------------------------------------------------


@dataclass
class AnnealSpec:
    """A placement problem as the native move loop sees it.

    Cells are the problem's cell keys; the first *n_blocks* sit on CLB
    sites, the rest on pad sites.  *site_of* is the problem's own cell
    → site map, updated in place when the kernel finishes.  *sites*
    lists the CLB sites, then the pad sites, in the order the
    architecture returns them (the order proposals index).  *nets*
    holds the cell keys of each net, *nets_of_cell* each cell's net
    indices in the order the problem adds them to its affected-net
    set, *net_cost* the current cost of each net.  *layers* puts each
    cell in an occupancy layer (a move swaps only with an occupant of
    the same layer; pads are in layer 0).  Edge matching also needs the
    ``(source key, sink key)`` connections and *conns_of_cell*.

    A timed wire-length problem sets *timing* to its
    :class:`~repro.timing.criticality.PlacementTimingCost`: *conns* and
    *conns_of_cell* are then its timing connections (each cell's list
    ascending), the kernel starts from the timing cost's ``delay``,
    ``weight`` and ``cost`` and writes ``delay`` and ``cost`` back.
    *tradeoff* and *tau* blend the terms, ``(1 - tradeoff) * wire
    length + tradeoff * tau * timing``; a connection's delay is
    ``delay_base + distance * delay_per_tile``.  Timing and edge
    matching never coexist.
    """

    cells: Sequence[Any]
    n_blocks: int
    site_of: MutableMapping[Any, Any]
    sites: Sequence[Any]
    n_clb: int
    nets: Sequence[Sequence[Any]]
    nets_of_cell: Mapping[Any, Sequence[int]]
    net_cost: Sequence[float]
    style: int
    cost: int = COST_WIRE_LENGTH
    layers: Optional[Sequence[int]] = None
    conns: Sequence[Tuple[Any, Any]] = ()
    conns_of_cell: Mapping[Any, Sequence[int]] = field(default_factory=dict)
    timing: Any = None
    tradeoff: float = 0.0
    tau: float = 0.0
    delay_base: float = 0.0
    delay_per_tile: float = 0.0


def _csr(lists) -> Tuple[np.ndarray, np.ndarray]:
    ptr = np.zeros(len(lists) + 1, np.int64)
    np.cumsum([len(items) for items in lists], out=ptr[1:])
    flat = np.fromiter(
        (item for items in lists for item in items), np.int64, int(ptr[-1])
    )
    return ptr, flat


_ERRORS = {
    -2: "set table too small",
    -3: "scratch too small",
    -4: "inconsistent problem",
    -5: "edge-matching table full",
}


def _check(code: int) -> int:
    if code < 0:
        raise RuntimeError(f"native annealing kernel: {_ERRORS[code]}")
    return code


class NativeMoves:
    """The move loop of one problem in the kernel (built by
    :func:`native_moves`).  The kernel owns the problem's placement
    and the generator's stream from construction until
    :meth:`finish` hands both back."""

    def __init__(
        self, problem, spec: AnnealSpec, rng: random.Random
    ) -> None:
        if spec.timing is not None and spec.cost != COST_WIRE_LENGTH:
            raise ValueError("a timed problem must price wire length")
        self._problem = problem
        self._spec = spec
        self._rng = rng
        index = {cell: k for k, cell in enumerate(spec.cells)}
        n_cells = len(spec.cells)
        cnets = [spec.nets_of_cell.get(c, ()) for c in spec.cells]
        cconns = [spec.conns_of_cell.get(c, ()) for c in spec.cells]
        wide = max(map(len, cnets), default=0)
        aff_cap = max(1, 2 * wide, 2 * max(map(len, cconns), default=0))
        net_ptr, net_cell = _csr(
            [[index[c] for c in net] for net in spec.nets]
        )
        cnet_ptr, cnet_idx = _csr(cnets)
        cconn_ptr, cconn_idx = _csr(cconns)
        layers = spec.layers or [0] * n_cells
        n_layers = max(layers, default=0) + 1
        n_sites = len(spec.sites)
        n_conns = len(spec.conns)
        set_cap = (
            _set_capacity(2 * wide) if spec.style == STYLE_MODES else 8
        )
        ctr_cap = 8
        while ctr_cap < 2 * (n_conns + aff_cap) + 2:
            ctr_cap <<= 1
        version, internal, gauss = rng.getstate()
        self._rng_head = (version, gauss)
        gid = {site: g for g, site in enumerate(spec.sites)}
        timing = spec.timing
        self._timing = timing
        arrays = {
            "cell_site": np.array(
                [gid.get(spec.site_of[c], -1) for c in spec.cells],
                np.int64,
            ),
            "occ": np.empty(n_layers * n_sites, np.int64),
            "cell_layer": np.array(layers, np.int64),
            "site_x": np.array([s.x for s in spec.sites], np.int64),
            "site_y": np.array([s.y for s in spec.sites], np.int64),
            "net_ptr": net_ptr,
            "net_cell": net_cell,
            "cnet_ptr": cnet_ptr,
            "cnet_idx": cnet_idx,
            "net_q": np.array(
                [q_factor(len(net)) for net in spec.nets], np.float64
            ),
            "net_cost": np.array(spec.net_cost, np.float64),
            "conn_src": np.array(
                [index[src] for src, _ in spec.conns], np.int64
            ),
            "conn_sink": np.array(
                [index[sink] for _, sink in spec.conns], np.int64
            ),
            "cconn_ptr": cconn_ptr,
            "cconn_idx": cconn_idx,
            "conn_key": np.empty(n_conns, np.int64),
            "ctr_key": np.empty(ctr_cap, np.int64),
            "ctr_cnt": np.empty(ctr_cap, np.int64),
            "aff": np.empty(aff_cap, np.int64),
            "aff_key": np.empty(aff_cap, np.int64),
            "net_mark": np.zeros(len(spec.nets), np.int64),
            "conn_mark": np.zeros(n_conns, np.int64),
            "set_a": np.empty(set_cap, np.int64),
            "set_b": np.empty(set_cap, np.int64),
            "evaluated": np.empty(aff_cap, np.float64),
            "mt": np.array(internal[:-1], np.uint32),
            "delay": np.array(
                () if timing is None else timing.delay, np.float64
            ),
            "weight": np.array(
                () if timing is None else timing.weight, np.float64
            ),
            "taff": np.empty(aff_cap, np.int64),
            "t_eval": np.empty(aff_cap, np.float64),
        }
        self._arrays = arrays
        st = _State(
            n_cells=n_cells, n_blocks=spec.n_blocks, n_layers=n_layers,
            n_clb=spec.n_clb, n_sites=n_sites, n_nets=len(spec.nets),
            n_conns=n_conns, style=spec.style, cost_kind=spec.cost,
            ctr_cap=ctr_cap, aff_cap=aff_cap, set_cap=set_cap,
            mti=internal[-1], timed=timing is not None,
            t_cost=0.0 if timing is None else timing.cost,
            lam=spec.tradeoff,
            tau=spec.tau, delay_base=spec.delay_base,
            delay_per_tile=spec.delay_per_tile,
        )
        for name, array in arrays.items():
            setattr(st, name, array.ctypes.data)
        self._st = st
        self._addr = ctypes.addressof(st)
        self.ready = _LIB.repro_anneal_init(self._addr) == 0
        self._cost = ctypes.c_double()
        self._accepted = ctypes.c_int64()

    def perturb(self, n: int) -> List[float]:
        """Run the *n* all-accepted moves at unlimited range that set
        the initial temperature; the deltas of the proposed ones."""
        deltas = np.empty(n, np.float64)
        count = _check(_LIB.repro_anneal_perturb(
            self._addr, n, deltas.ctypes.data
        ))
        return deltas[:count].tolist()

    def temperature(
        self, moves: int, rlim: float, temperature: float, cost: float
    ) -> Tuple[int, int, float]:
        """Run one temperature of *moves* proposals; (accepted,
        attempted, running cost)."""
        self._cost.value = cost
        attempted = _check(_LIB.repro_anneal_temperature(
            self._addr, moves, rlim, temperature,
            ctypes.byref(self._cost), ctypes.byref(self._accepted),
        ))
        return self._accepted.value, attempted, self._cost.value

    def _sync_timing(self) -> None:
        """Write the kernel's connection delays and timing cost into
        the problem's timing cost."""
        self._timing.delay[:] = self._arrays["delay"].tolist()
        self._timing.cost = self._st.t_cost

    def refresh(self) -> Optional[float]:
        """Run the problem's per-temperature hook; its result.  A timed
        problem first gets the kernel's net costs, delays and timing
        cost; the hook's new weights and ``tau`` go back to the
        kernel."""
        problem = self._problem
        hook = getattr(problem, "on_temperature", None)
        if self._timing is None:
            return None if hook is None else hook()
        # The hook's tau reads sum(net_cost): sync the net costs too.
        self._spec.net_cost[:] = self._arrays["net_cost"].tolist()
        self._sync_timing()
        refreshed = hook()
        self._arrays["weight"][:] = self._timing.weight
        self._st.t_cost = self._timing.cost
        self._st.tau = problem.tau
        return refreshed

    def finish(self) -> None:
        """Hand the final placement, net costs and timing state back to
        the problem (its ``site_of`` and timing cost are updated here,
        its ``native_restore`` rebuilds the rest) and the generator
        state back to its generator."""
        spec = self._spec
        spec.site_of.update(zip(spec.cells, [
            spec.sites[g] for g in self._arrays["cell_site"].tolist()
        ]))
        if self._timing is not None:
            self._sync_timing()
        self._problem.native_restore(self._arrays["net_cost"].tolist())
        version, gauss = self._rng_head
        self._rng.setstate((
            version,
            tuple(self._arrays["mt"].tolist()) + (self._st.mti,),
            gauss,
        ))


def native_moves(problem, rng) -> Optional[NativeMoves]:
    """The kernel's move loop for *problem*, or None when the problem
    cannot describe itself to the kernel (no ``native_spec``, a
    foreign generator, a placement off the architecture's sites) or
    the kernel is unavailable (warned once)."""
    spec_of = getattr(problem, "native_spec", None)
    if spec_of is None or type(rng) is not random.Random:
        return None
    if _LIB is None:
        warn_fallback()
        return None
    moves = NativeMoves(problem, spec_of(), rng)
    return moves if moves.ready else None
