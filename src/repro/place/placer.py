"""Conventional wire-length-driven placement (single circuit).

This is the "Placement" box of the MDR tool flow (paper Fig. 2(a)): a
VPR-style simulated-annealing placer that assigns every LUT block to a
logic-block tile and every primary IO to a perimeter pad slot, while
minimising the bounding-box wire-length estimate.

The combined placer of the paper (``repro.core.combined_placement``)
extends the same machinery to several mode circuits at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.arch.architecture import FpgaArchitecture, Site
from repro.netlist.lutcircuit import LutCircuit
from repro.place.annealing import AnnealingSchedule, AnnealingStats, anneal
from repro.place.annealkernel import STYLE_SINGLE, AnnealSpec
from repro.place.cost import net_bounding_box_cost, q_factor
from repro.utils.rng import make_rng


def pad_cell(signal: str) -> str:
    """Cell name of the IO pad carrying primary IO *signal*."""
    return f"pad:{signal}"


class PlacementTimingMixin:
    """Timing-term bookkeeping shared by the annealing problems.

    A problem with a bound :class:`~repro.timing.criticality
    .PlacementTimingCost` anneals the combined cost

    ``(1 - tradeoff) * wirelength + tradeoff * tau * timing``

    where ``timing`` is the criticality-weighted connection-delay sum
    and ``tau`` rescales it into wire-length units (``tau =
    wirelength / timing``, refreshed with the criticalities at every
    temperature via the engine's ``on_temperature`` hook).  With no
    timing bound every method degrades to the plain wire-length cost
    — same floats, same RNG sequence, bit-identical placements.

    The native move loop prices the same blend in C;
    :meth:`_native_timing` describes the timing term to it.
    """

    _timing = None
    _lam = 0.0
    _tau = 0.0

    def _bind_timing(self, timing) -> None:
        self._timing = timing
        if timing is None:
            return
        timing.bind(self.site_of)
        self._lam = timing.config.tradeoff
        self._refresh_tau()

    @property
    def tau(self) -> float:
        """Scale of the timing term into wire-length units."""
        return self._tau

    def _native_timing(self) -> Dict[str, Any]:
        """The timing fields of this problem's
        :class:`~repro.place.annealkernel.AnnealSpec` (none when
        untimed): the timing connections as (source key, sink key)
        with each key's connections, the timing cost itself, the
        blend and ``connection_delay``'s two constants."""
        timing = self._timing
        if timing is None:
            return {}
        model = timing.model
        return dict(
            conns=timing.endpoints(),
            conns_of_cell=timing.conns_of_key,
            timing=timing,
            tradeoff=self._lam,
            tau=self._tau,
            # DelayModel.connection_delay is
            # 2.0 * pin_delay + distance * (wire_delay + switch_delay).
            delay_base=2.0 * model.pin_delay,
            delay_per_tile=model.wire_delay + model.switch_delay,
        )

    def _refresh_tau(self) -> None:
        timing_cost = self._timing.cost
        self._tau = (
            sum(self.net_cost) / timing_cost
            if timing_cost > 0.0 else 0.0
        )

    def _combined_cost(self) -> float:
        base = sum(self.net_cost)
        if self._timing is None:
            return base
        return (
            (1.0 - self._lam) * base
            + self._lam * self._tau * self._timing.cost
        )

    def on_temperature(self):
        """Annealing hook: refresh criticalities, re-balance terms."""
        if self._timing is None:
            return None
        self._timing.refresh_criticalities()
        self._refresh_tau()
        return self._combined_cost()

    def _timing_keys(self, cell, other):
        return (cell,) if other is None else (cell, other)

    # -- per-move bookkeeping (shared by every problem's
    # delta_cost/commit; only called when self._timing is bound) ----------

    def _timing_before(self, keys):
        """(affected conn indices, their weighted cost) pre-move."""
        timing = self._timing
        affected = timing.conns_of(keys)
        return affected, timing.weighted(affected)

    def _timing_after(self, affected):
        """(evaluated delays, weighted cost) of *affected* — call
        while the move is tentatively applied; hand the evaluation to
        ``_commit_timing`` via ``_pending`` when the move commits."""
        evaluated = self._timing.eval_conns(affected)
        return evaluated, self._timing.weighted_eval(evaluated)

    def _timing_delta(self, base_delta, t_before, t_after):
        """Blend the base (wire-length) and timing deltas."""
        return (
            (1.0 - self._lam) * base_delta
            + self._lam * self._tau * (t_after - t_before)
        )

    def _commit_timing(self, keys, t_evaluated):
        """Fold a committed move's delays into the running timing
        cost (re-evaluating at the already-updated sites when
        delta_cost's pending evaluation is unavailable).  No-op for
        untimed problems."""
        timing = self._timing
        if timing is None:
            return
        if t_evaluated is None:
            t_evaluated = timing.eval_conns(timing.conns_of(keys))
        timing.commit(t_evaluated)


@dataclass
class Net:
    """One placement net: a source cell and its sink cells."""

    name: str
    cells: List[str]  # source first, then sinks (duplicates removed)


def circuit_nets(circuit: LutCircuit) -> List[Net]:
    """Extract placement nets from a LUT circuit.

    Each driven signal with at least one reader becomes a net.  Primary
    inputs source from their pad cell; primary outputs add the pad cell
    as a sink.
    """
    # Sorted so net order (and with it the whole annealing trajectory)
    # is identical in every process: ``signals()`` is a set of strings,
    # and string-set iteration order changes with PYTHONHASHSEED.
    readers: Dict[str, List[str]] = {
        s: [] for s in sorted(circuit.signals())
    }
    for block in circuit.blocks.values():
        for src in block.inputs:
            readers[src].append(block.name)
    for out in circuit.outputs:
        readers[out].append(pad_cell(out))

    nets = []
    for signal, sinks in readers.items():
        if not sinks:
            continue
        source = (
            pad_cell(signal) if signal in circuit.inputs else signal
        )
        seen: Set[str] = {source}
        cells = [source]
        for cell in sinks:
            if cell not in seen:
                seen.add(cell)
                cells.append(cell)
        if len(cells) >= 2:
            nets.append(Net(signal, cells))
    return nets


def circuit_cells(circuit: LutCircuit) -> Tuple[List[str], List[str]]:
    """(logic cells, pad cells) of a circuit."""
    logic = list(circuit.blocks)
    pads = [pad_cell(s) for s in circuit.inputs]
    pads += [pad_cell(s) for s in circuit.outputs]
    return logic, pads


@dataclass
class Placement:
    """A finished placement: cell name -> site."""

    arch: FpgaArchitecture
    sites: Dict[str, Site]
    cost: float
    stats: Optional[AnnealingStats] = None

    def position(self, cell: str) -> Tuple[int, int]:
        return self.sites[cell].pos()


class _SinglePlacementProblem(PlacementTimingMixin):
    """Annealing problem for one circuit; see repro.place.annealing.

    *timing* is an optional prebuilt
    :class:`~repro.timing.criticality.PlacementTimingCost` covering the
    circuit's connections (cells keyed by their names, as in
    ``site_of``); when given, moves are priced by the combined
    wire-length + criticality-weighted-delay cost.
    """

    def __init__(
        self,
        arch: FpgaArchitecture,
        logic_cells: Sequence[str],
        pad_cells: Sequence[str],
        nets: Sequence[Net],
        rng,
        timing=None,
    ) -> None:
        self.arch = arch
        self.logic_cells = list(logic_cells)
        self.pad_cells = list(pad_cells)
        self.nets = list(nets)
        clb_sites = arch.clb_sites()
        pad_sites = arch.pad_sites()
        if len(self.logic_cells) > len(clb_sites):
            raise ValueError(
                f"{len(self.logic_cells)} blocks exceed "
                f"{len(clb_sites)} logic tiles"
            )
        if len(self.pad_cells) > len(pad_sites):
            raise ValueError(
                f"{len(self.pad_cells)} IOs exceed "
                f"{len(pad_sites)} pad slots"
            )
        # Random legal initial placement.
        self.site_of: Dict[str, Site] = {}
        self.cell_at: Dict[Site, Optional[str]] = {}
        shuffled_clb = list(clb_sites)
        rng.shuffle(shuffled_clb)
        for cell, site in zip(self.logic_cells, shuffled_clb):
            self.site_of[cell] = site
        self.free_clb = shuffled_clb[len(self.logic_cells):]
        shuffled_pad = list(pad_sites)
        rng.shuffle(shuffled_pad)
        for cell, site in zip(self.pad_cells, shuffled_pad):
            self.site_of[cell] = site
        self.free_pad = shuffled_pad[len(self.pad_cells):]
        for cell, site in self.site_of.items():
            self.cell_at[site] = cell

        self.all_clb_sites = clb_sites
        self.all_pad_sites = pad_sites
        self.nets_of_cell: Dict[str, List[int]] = {}
        for i, net in enumerate(self.nets):
            for cell in net.cells:
                self.nets_of_cell.setdefault(cell, []).append(i)
        self.net_cost: List[float] = [
            self._compute_net_cost(net) for net in self.nets
        ]
        self._bind_timing(timing)

    # -- cost helpers -----------------------------------------------------

    def _compute_net_cost(self, net: Net) -> float:
        # Single-pass bounding box straight over the sites — same
        # arithmetic as net_bounding_box_cost, minus the per-call
        # position-tuple list (this is the move loop's hottest callee).
        cells = net.cells
        n = len(cells)
        if n < 2:
            return 0.0
        site_of = self.site_of
        site = site_of[cells[0]]
        xmin = xmax = site.x
        ymin = ymax = site.y
        for cell in cells:
            site = site_of[cell]
            x = site.x
            y = site.y
            if x < xmin:
                xmin = x
            elif x > xmax:
                xmax = x
            if y < ymin:
                ymin = y
            elif y > ymax:
                ymax = y
        return q_factor(n) * ((xmax - xmin) + (ymax - ymin))

    def initial_cost(self) -> float:
        return self._combined_cost()

    def size(self) -> int:
        return len(self.logic_cells) + len(self.pad_cells)

    def n_nets(self) -> int:
        return len(self.nets)

    def max_rlim(self) -> int:
        return max(self.arch.nx, self.arch.ny) + 2

    # -- native move loop (repro.place.annealkernel) ------------------------

    def native_spec(self) -> AnnealSpec:
        """This problem for the native move loop."""
        return AnnealSpec(
            cells=self.logic_cells + self.pad_cells,
            n_blocks=len(self.logic_cells),
            site_of=self.site_of,
            sites=self.all_clb_sites + self.all_pad_sites,
            n_clb=len(self.all_clb_sites),
            nets=[net.cells for net in self.nets],
            nets_of_cell=self.nets_of_cell,
            net_cost=self.net_cost,
            style=STYLE_SINGLE,
            **self._native_timing(),
        )

    def native_restore(self, net_cost) -> None:
        """Adopt the native loop's net costs and rebuild the occupancy
        map from the final ``site_of``."""
        self.cell_at = {site: cell for cell, site in self.site_of.items()}
        self.net_cost = net_cost

    # -- moves --------------------------------------------------------------

    def propose(self, rlim: float, rng):
        """Pick a random cell and a random target site within rlim."""
        pool = (
            self.logic_cells
            if rng.random() < (
                len(self.logic_cells) / max(1, self.size())
            )
            else self.pad_cells
        )
        if not pool:
            pool = self.logic_cells or self.pad_cells
        cell = pool[rng.randrange(len(pool))]
        src_site = self.site_of[cell]
        candidates = (
            self.all_clb_sites
            if src_site.kind == "clb"
            else self.all_pad_sites
        )
        for _ in range(8):
            dst_site = candidates[rng.randrange(len(candidates))]
            if dst_site == src_site:
                continue
            if (
                abs(dst_site.x - src_site.x) > rlim
                or abs(dst_site.y - src_site.y) > rlim
            ):
                continue
            return (cell, src_site, dst_site)
        return None

    def _affected_nets(self, cell_a: str, cell_b: Optional[str]
                       ) -> List[int]:
        nets = set(self.nets_of_cell.get(cell_a, ()))
        if cell_b is not None:
            nets.update(self.nets_of_cell.get(cell_b, ()))
        return sorted(nets)

    def delta_cost(self, move) -> float:
        cell, src_site, dst_site = move
        other = self.cell_at.get(dst_site)
        affected = self._affected_nets(cell, other)
        before = sum(self.net_cost[i] for i in affected)
        timing = self._timing
        if timing is not None:
            t_affected, t_before = self._timing_before(
                self._timing_keys(cell, other)
            )
        # Tentatively move, evaluate, revert — remembering the
        # after-costs so commit() of this same move reuses them
        # (identical floats, same order).
        self.site_of[cell] = dst_site
        if other is not None:
            self.site_of[other] = src_site
        evaluated = {}
        after = 0.0
        for i in affected:
            cost = self._compute_net_cost(self.nets[i])
            evaluated[i] = cost
            after += cost
        t_evaluated = None
        if timing is not None:
            t_evaluated, t_after = self._timing_after(t_affected)
        self.site_of[cell] = src_site
        if other is not None:
            self.site_of[other] = dst_site
        self._pending = (move, evaluated, t_evaluated)
        if timing is None:
            return after - before
        return self._timing_delta(after - before, t_before, t_after)

    def commit(self, move) -> None:
        cell, src_site, dst_site = move
        other = self.cell_at.get(dst_site)
        self.site_of[cell] = dst_site
        self.cell_at[dst_site] = cell
        if other is not None:
            self.site_of[other] = src_site
            self.cell_at[src_site] = other
        else:
            self.cell_at[src_site] = None
        pending = getattr(self, "_pending", None)
        if pending is not None and pending[0] == move:
            evaluated, t_evaluated = pending[1], pending[2]
        else:
            evaluated = t_evaluated = None
        self._pending = None
        for i in self._affected_nets(cell, other):
            self.net_cost[i] = (
                evaluated[i]
                if evaluated is not None and i in evaluated
                else self._compute_net_cost(self.nets[i])
            )
        self._commit_timing(
            self._timing_keys(cell, other), t_evaluated
        )


def place_circuit(
    circuit: LutCircuit,
    arch: FpgaArchitecture,
    seed: int = 0,
    schedule: Optional[AnnealingSchedule] = None,
    timing=None,
) -> Placement:
    """Place *circuit* on *arch*; returns the final placement.

    *timing* is an optional
    :class:`~repro.timing.criticality.CriticalityConfig`: when given,
    the annealer optimises the combined wire-length +
    criticality-weighted-delay cost (timing-driven placement); when
    ``None`` the run is bit-identical to the historical
    wire-length-driven placer.  The reported ``Placement.cost`` is the
    wire-length cost in both variants so results stay comparable.
    """
    rng = make_rng(seed, f"place:{circuit.name}")
    logic, pads = circuit_cells(circuit)
    nets = circuit_nets(circuit)
    timing_cost = None
    if timing is not None:
        # Imported lazily: repro.timing.criticality imports this
        # module (pad_cell), so a top-level import would be circular.
        from repro.timing.criticality import PlacementTimingCost

        timing_cost = PlacementTimingCost(timing)
        timing_cost.add_circuit(circuit)
    problem = _SinglePlacementProblem(
        arch, logic, pads, nets, rng, timing=timing_cost
    )
    stats = anneal(problem, rng, schedule)
    cost = sum(
        net_bounding_box_cost(
            [problem.site_of[c].pos() for c in net.cells]
        )
        for net in nets
    )
    return Placement(
        arch=arch, sites=dict(problem.site_of), cost=cost, stats=stats
    )


def placement_wirelength(
    placement: Placement, nets: Sequence[Net]
) -> float:
    """Re-evaluate the bounding-box wire length of *nets* under *placement*."""
    return sum(
        net_bounding_box_cost(
            [placement.sites[c].pos() for c in net.cells]
        )
        for net in nets
    )
