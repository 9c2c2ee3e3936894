"""Combined placement of all mode circuits (paper Sections III-A/B).

The conventional annealing placer is extended so several LUT circuits
are placed *simultaneously* on the same fabric:

* LUTs of different modes may occupy the same physical logic block
  (they will share a Tunable LUT after merging);
* a swap selects two physical blocks *and a mode*: only the chosen
  mode's occupants are interchanged;
* IO pads are shared across modes by signal name (the chip pins of a
  multi-mode system are fixed), so pad moves relocate the pad in every
  mode at once.

Two cost functions are available, matching the paper's two options:

* ``EDGE_MATCHING`` — minimise the number of distinct tunable
  connections, i.e. maximise the connections of different modes that
  end up with the same physical source and sink (Rullmann & Merker's
  criterion).  Topology-only: placement quality is ignored.
* ``WIRE_LENGTH`` — minimise the summed per-mode bounding-box wire
  length, the same estimator TPlace uses (the paper's novel approach).

:class:`TunablePlacementProblem` implements TPlace: annealing
refinement of an already-merged Tunable circuit, moving whole Tunable
cells (topology fixed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.arch.architecture import FpgaArchitecture, Site
from repro.core.merge import MergeStrategy, merge_from_placement
from repro.core.tunable import TunableCircuit
from repro.netlist.lutcircuit import LutCircuit
from repro.place.annealing import AnnealingSchedule, AnnealingStats, anneal
from repro.place.annealkernel import (
    COST_EDGE_MATCHING,
    COST_WIRE_LENGTH,
    STYLE_MODES,
    AnnealSpec,
)
from repro.place.cost import net_bounding_box_cost, q_factor
from repro.place.placer import (
    Net,
    PlacementTimingMixin,
    circuit_nets,
    pad_cell,
)
from repro.utils.rng import make_rng

# Cell keys: ("b", mode, block_name) for per-mode blocks,
#            ("p", pad_cell_name) for shared IO pads.
CellKey = Tuple


@dataclass
class CombinedPlacementResult:
    """Outcome of a combined placement run."""

    arch: FpgaArchitecture
    block_sites: Dict[Tuple[int, str], Site]
    pad_sites: Dict[str, Site]
    cost: float
    wirelength: float
    n_tunable_connections: int
    stats: Optional[AnnealingStats] = None


class CombinedPlacementProblem(PlacementTimingMixin):
    """Annealing problem placing all modes at once.

    *timing* (a :class:`~repro.timing.criticality.CriticalityConfig`)
    adds the criticality-weighted connection-delay term to the
    wire-length cost — one STA per mode, refreshed every temperature.
    It requires the ``WIRE_LENGTH`` strategy: edge matching is the
    paper's topology-only criterion (placement geometry is
    deliberately ignored), so a geometric timing term has no place in
    it; timing pressure reaches edge-matched circuits through the
    TPlace refinement instead.
    """

    def __init__(
        self,
        arch: FpgaArchitecture,
        mode_circuits: Sequence[LutCircuit],
        rng,
        strategy: MergeStrategy = MergeStrategy.WIRE_LENGTH,
        timing=None,
    ) -> None:
        if strategy == MergeStrategy.BY_INDEX:
            raise ValueError(
                "BY_INDEX is not a combined-placement strategy"
            )
        if timing is not None and strategy != MergeStrategy.WIRE_LENGTH:
            raise ValueError(
                "timing-driven combined placement requires the "
                "wire-length strategy"
            )
        self.arch = arch
        self.circuits = list(mode_circuits)
        self.n_modes = len(self.circuits)
        self.strategy = strategy
        self._mode_inputs = [
            set(circuit.inputs) for circuit in self.circuits
        ]

        # -- cells ---------------------------------------------------------
        self.block_keys: List[CellKey] = []
        for mode, circuit in enumerate(self.circuits):
            for block in circuit.blocks:
                self.block_keys.append(("b", mode, block))
        pad_modes: Dict[str, Set[int]] = {}
        for mode, circuit in enumerate(self.circuits):
            for signal in list(circuit.inputs) + list(circuit.outputs):
                pad_modes.setdefault(pad_cell(signal), set()).add(mode)
        self.pad_keys: List[CellKey] = [
            ("p", cell) for cell in sorted(pad_modes)
        ]
        self.pad_modes = pad_modes

        clb_sites = arch.clb_sites()
        pad_sites = arch.pad_sites()
        max_blocks = max(
            len(c.blocks) for c in self.circuits
        )
        if max_blocks > len(clb_sites):
            raise ValueError("largest mode does not fit the grid")
        if len(self.pad_keys) > len(pad_sites):
            raise ValueError("IO pads do not fit the perimeter")

        # -- initial placement (random, legal) --------------------------------
        self.site_of: Dict[CellKey, Site] = {}
        self.block_at: Dict[Tuple[int, Site], CellKey] = {}
        for mode, circuit in enumerate(self.circuits):
            shuffled = list(clb_sites)
            rng.shuffle(shuffled)
            for block, site in zip(sorted(circuit.blocks), shuffled):
                key = ("b", mode, block)
                self.site_of[key] = site
                self.block_at[(mode, site)] = key
        shuffled_pads = list(pad_sites)
        rng.shuffle(shuffled_pads)
        self.pad_at: Dict[Site, CellKey] = {}
        for key, site in zip(self.pad_keys, shuffled_pads):
            self.site_of[key] = site
            self.pad_at[site] = key

        self.clb_sites = clb_sites
        self.all_pad_sites = pad_sites

        # -- nets (for wire-length cost and reporting) ------------------------
        self.mode_nets: List[Tuple[int, Net]] = []
        for mode, circuit in enumerate(self.circuits):
            for net in circuit_nets(circuit):
                self.mode_nets.append((mode, net))
        self.nets_of_cell: Dict[CellKey, List[int]] = {}
        for i, (mode, net) in enumerate(self.mode_nets):
            for cell in net.cells:
                key = self._cell_key(mode, cell)
                self.nets_of_cell.setdefault(key, []).append(i)
        # Cell keys per net, resolved once: the signal->key mapping is
        # placement-independent and _compute_net_cost is the move
        # loop's hottest callee.
        self._net_keys: List[List[CellKey]] = [
            [self._cell_key(mode, cell) for cell in net.cells]
            for mode, net in self.mode_nets
        ]
        self.net_cost: List[float] = [
            self._compute_net_cost(i) for i in range(len(self.mode_nets))
        ]

        # -- connections (for edge-matching cost) -----------------------------
        # Per mode, cell-level connections as (src key, sink key).
        self.mode_conns: List[Tuple[int, CellKey, CellKey]] = []
        for mode, circuit in enumerate(self.circuits):
            for block in circuit.blocks.values():
                sink = ("b", mode, block.name)
                for src in block.inputs:
                    self.mode_conns.append(
                        (mode, self._cell_key(mode, src), sink)
                    )
            for out in circuit.outputs:
                self.mode_conns.append(
                    (
                        mode,
                        self._cell_key(mode, out),
                        ("p", pad_cell(out)),
                    )
                )
        self.conns_of_cell: Dict[CellKey, List[int]] = {}
        for i, (_mode, src, sink) in enumerate(self.mode_conns):
            self.conns_of_cell.setdefault(src, []).append(i)
            if sink != src:
                self.conns_of_cell.setdefault(sink, []).append(i)
        self._count_connections()

        # -- timing term (wire-length strategy only) --------------------------
        timing_cost = None
        if timing is not None:
            # Lazy import: repro.timing.criticality imports
            # repro.place.placer, which this module feeds.
            from repro.timing.criticality import PlacementTimingCost

            timing_cost = PlacementTimingCost(timing)
            for mode, circuit in enumerate(self.circuits):
                timing_cost.add_circuit(
                    circuit,
                    key_of=lambda cell, m=mode: self._cell_key(m, cell),
                )
        self._bind_timing(timing_cost)

    # -- helpers ---------------------------------------------------------

    def _cell_key(self, mode: int, cell: str) -> CellKey:
        if cell.startswith("pad:"):
            return ("p", cell)
        if cell in self._mode_inputs[mode]:
            return ("p", pad_cell(cell))
        return ("b", mode, cell)

    def _position(self, key: CellKey) -> Tuple[int, int]:
        return self.site_of[key].pos()

    def _compute_net_cost(self, index: int) -> float:
        # Single-pass bounding box straight over the sites — same
        # arithmetic as net_bounding_box_cost, minus the per-call
        # position-tuple list.
        keys = self._net_keys[index]
        n = len(keys)
        if n < 2:
            return 0.0
        site_of = self.site_of
        site = site_of[keys[0]]
        xmin = xmax = site.x
        ymin = ymax = site.y
        for key in keys:
            site = site_of[key]
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

    def _count_connections(self) -> None:
        # Multiset of site-level connection endpoints, plus a cache of
        # each connection's current key (commit needs the pre-move key
        # to decrement the right counter entry).
        self.conn_counter: Dict[Tuple, int] = {}
        self._conn_keys: Dict[int, Tuple] = {}
        for i in range(len(self.mode_conns)):
            key = self._conn_site_key(i)
            self.conn_counter[key] = self.conn_counter.get(key, 0) + 1
            self._conn_keys[i] = key

    def _conn_site_key(self, index: int) -> Tuple:
        _mode, src, sink = self.mode_conns[index]
        s1 = self.site_of[src]
        s2 = self.site_of[sink]
        return (s1.kind, s1.x, s1.y, s1.slot,
                s2.kind, s2.x, s2.y, s2.slot)

    # -- annealing interface -------------------------------------------------

    def size(self) -> int:
        return len(self.block_keys) + len(self.pad_keys)

    def n_nets(self) -> int:
        return len(self.mode_nets)

    def max_rlim(self) -> int:
        return max(self.arch.nx, self.arch.ny) + 2

    def wirelength_cost(self) -> float:
        return sum(self.net_cost)

    def edge_matching_cost(self) -> float:
        """Number of distinct tunable connections after merging."""
        return float(len(self.conn_counter))

    def initial_cost(self) -> float:
        if self.strategy == MergeStrategy.WIRE_LENGTH:
            return self._combined_cost()
        return self.edge_matching_cost()

    # -- native move loop (repro.place.annealkernel) ------------------------

    def native_spec(self) -> AnnealSpec:
        """This problem for the native move loop.  Blocks occupy one
        layer per mode, pads the shared layer 0; the connections are
        the edge-matching ones or, timed, the timing ones."""
        edge_matching = self.strategy == MergeStrategy.EDGE_MATCHING
        connections = dict(
            conns=[(src, sink) for _mode, src, sink in self.mode_conns],
            conns_of_cell=self.conns_of_cell,
        ) if edge_matching else self._native_timing()
        return AnnealSpec(
            cells=self.block_keys + self.pad_keys,
            n_blocks=len(self.block_keys),
            site_of=self.site_of,
            sites=self.clb_sites + self.all_pad_sites,
            n_clb=len(self.clb_sites),
            nets=self._net_keys,
            nets_of_cell=self.nets_of_cell,
            net_cost=self.net_cost,
            style=STYLE_MODES,
            cost=COST_EDGE_MATCHING if edge_matching else COST_WIRE_LENGTH,
            layers=[key[1] for key in self.block_keys]
            + [0] * len(self.pad_keys),
            **connections,
        )

    def native_restore(self, net_cost) -> None:
        """Adopt the native loop's net costs and rebuild the occupancy
        maps and the connection multiset from the final ``site_of``."""
        self.block_at = {
            (key[1], self.site_of[key]): key for key in self.block_keys
        }
        self.pad_at = {self.site_of[key]: key for key in self.pad_keys}
        self.net_cost = net_cost
        self._count_connections()

    # -- moves --------------------------------------------------------------

    def propose(self, rlim: float, rng):
        n_blocks = len(self.block_keys)
        total = n_blocks + len(self.pad_keys)
        if rng.randrange(total) < n_blocks:
            # Mode-level block swap (paper Section III-A): pick a
            # placed block (this selects the mode), then a second
            # physical block within range.
            key = self.block_keys[rng.randrange(n_blocks)]
            _tag, mode, _name = key
            src_site = self.site_of[key]
            for _ in range(8):
                dst_site = self.clb_sites[
                    rng.randrange(len(self.clb_sites))
                ]
                if dst_site == src_site:
                    continue
                if (
                    abs(dst_site.x - src_site.x) > rlim
                    or abs(dst_site.y - src_site.y) > rlim
                ):
                    continue
                return ("blk", key, src_site, dst_site)
            return None
        key = self.pad_keys[rng.randrange(len(self.pad_keys))]
        src_site = self.site_of[key]
        for _ in range(8):
            dst_site = self.all_pad_sites[
                rng.randrange(len(self.all_pad_sites))
            ]
            if dst_site == src_site:
                continue
            if (
                abs(dst_site.x - src_site.x) > rlim
                or abs(dst_site.y - src_site.y) > rlim
            ):
                continue
            return ("pad", key, src_site, dst_site)
        return None

    def _move_cells(self, move) -> List[Tuple[CellKey, Site, Site]]:
        """Cells a move displaces, with (from, to) sites."""
        kind, key, src_site, dst_site = move
        if kind == "blk":
            _tag, mode, _name = key
            other = self.block_at.get((mode, dst_site))
        else:
            other = self.pad_at.get(dst_site)
        displaced = [(key, src_site, dst_site)]
        if other is not None:
            displaced.append((other, dst_site, src_site))
        return displaced

    def delta_cost(self, move) -> float:
        displaced = self._move_cells(move)
        keys = [d[0] for d in displaced]
        self._pending = None
        if self.strategy == MergeStrategy.WIRE_LENGTH:
            affected: Set[int] = set()
            for key in keys:
                affected.update(self.nets_of_cell.get(key, ()))
            before = sum(self.net_cost[i] for i in affected)
            timing = self._timing
            if timing is not None:
                t_affected, t_before = self._timing_before(keys)
            self._apply(displaced)
            # Remember the evaluated after-costs: the annealer commits
            # the very move it just priced, so commit() can reuse them
            # instead of recomputing (identical floats, same order).
            evaluated: Dict[int, float] = {}
            after = 0.0
            for i in affected:
                cost = self._compute_net_cost(i)
                evaluated[i] = cost
                after += cost
            t_evaluated = None
            if timing is not None:
                t_evaluated, t_after = self._timing_after(t_affected)
            self._revert(displaced)
            self._pending = (move, evaluated, t_evaluated)
            if timing is None:
                return after - before
            return self._timing_delta(
                after - before, t_before, t_after
            )
        # Edge matching: track distinct site-level connection count.
        affected_conns: Set[int] = set()
        for key in keys:
            affected_conns.update(self.conns_of_cell.get(key, ()))
        delta = 0
        removed: List[Tuple] = []
        for i in affected_conns:
            conn_key = self._conn_site_key(i)
            self.conn_counter[conn_key] -= 1
            if self.conn_counter[conn_key] == 0:
                del self.conn_counter[conn_key]
                delta -= 1
            removed.append(conn_key)
        self._apply(displaced)
        added: List[Tuple] = []
        for i in affected_conns:
            conn_key = self._conn_site_key(i)
            count = self.conn_counter.get(conn_key, 0)
            if count == 0:
                delta += 1
            self.conn_counter[conn_key] = count + 1
            added.append(conn_key)
        # Revert.
        self._revert(displaced)
        for conn_key in added:
            self.conn_counter[conn_key] -= 1
            if self.conn_counter[conn_key] == 0:
                del self.conn_counter[conn_key]
        for conn_key in removed:
            self.conn_counter[conn_key] = (
                self.conn_counter.get(conn_key, 0) + 1
            )
        return float(delta)

    def _apply(self, displaced) -> None:
        for key, _from_site, to_site in displaced:
            self.site_of[key] = to_site

    def _revert(self, displaced) -> None:
        for key, from_site, _to_site in displaced:
            self.site_of[key] = from_site

    def commit(self, move) -> None:
        displaced = self._move_cells(move)
        kind = move[0]
        # Update occupancy maps.
        if kind == "blk":
            for key, from_site, _to in displaced:
                _tag, mode, _name = key
                if self.block_at.get((mode, from_site)) == key:
                    del self.block_at[(mode, from_site)]
            for key, _from, to_site in displaced:
                _tag, mode, _name = key
                self.block_at[(mode, to_site)] = key
        else:
            for key, from_site, _to in displaced:
                if self.pad_at.get(from_site) == key:
                    del self.pad_at[from_site]
            for key, _from, to_site in displaced:
                self.pad_at[to_site] = key
        self._apply(displaced)
        # Refresh caches (reusing the costs delta_cost just evaluated
        # for this same move when available).
        pending = getattr(self, "_pending", None)
        if pending is not None and pending[0] == move:
            evaluated, t_evaluated = pending[1], pending[2]
        else:
            evaluated = t_evaluated = None
        self._pending = None
        keys = [d[0] for d in displaced]
        affected_nets: Set[int] = set()
        for key in keys:
            affected_nets.update(self.nets_of_cell.get(key, ()))
        for i in affected_nets:
            self.net_cost[i] = (
                evaluated[i]
                if evaluated is not None and i in evaluated
                else self._compute_net_cost(i)
            )
        self._commit_timing(keys, t_evaluated)
        affected_conns: Set[int] = set()
        for key in keys:
            affected_conns.update(self.conns_of_cell.get(key, ()))
        # Rebuild the counter entries for affected connections: remove
        # using pre-move sites is impossible now, so recompute the
        # counter incrementally via stored keys.
        # (delta_cost left the counter unchanged; redo remove/add.)
        for i in affected_conns:
            old_key = self._conn_keys[i]
            self.conn_counter[old_key] -= 1
            if self.conn_counter[old_key] == 0:
                del self.conn_counter[old_key]
        for i in affected_conns:
            new_key = self._conn_site_key(i)
            self.conn_counter[new_key] = (
                self.conn_counter.get(new_key, 0) + 1
            )
            self._conn_keys[i] = new_key

    # -- results -----------------------------------------------------------

    def result(self, stats: Optional[AnnealingStats] = None
               ) -> CombinedPlacementResult:
        block_sites = {
            (mode, name): self.site_of[("b", mode, name)]
            for mode, circuit in enumerate(self.circuits)
            for name in circuit.blocks
        }
        pad_sites = {
            key[1]: self.site_of[key] for key in self.pad_keys
        }
        return CombinedPlacementResult(
            arch=self.arch,
            block_sites=block_sites,
            pad_sites=pad_sites,
            cost=self.initial_cost(),
            wirelength=self.wirelength_cost(),
            n_tunable_connections=int(self.edge_matching_cost()),
            stats=stats,
        )


def combined_place(
    mode_circuits: Sequence[LutCircuit],
    arch: FpgaArchitecture,
    strategy: MergeStrategy = MergeStrategy.WIRE_LENGTH,
    seed: int = 0,
    schedule: Optional[AnnealingSchedule] = None,
    timing=None,
) -> CombinedPlacementResult:
    """Run the combined placement of all modes with *strategy*.

    *timing* (a ``CriticalityConfig``) makes the wire-length variant
    timing-driven; it must be ``None`` for edge matching.
    """
    rng = make_rng(seed, f"combined:{strategy.value}")
    problem = CombinedPlacementProblem(
        arch, mode_circuits, rng, strategy, timing=timing
    )
    stats = anneal(problem, rng, schedule)
    return problem.result(stats)


def merge_with_combined_placement(
    name: str,
    mode_circuits: Sequence[LutCircuit],
    arch: FpgaArchitecture,
    strategy: MergeStrategy = MergeStrategy.WIRE_LENGTH,
    seed: int = 0,
    schedule: Optional[AnnealingSchedule] = None,
    timing=None,
) -> Tuple[TunableCircuit, CombinedPlacementResult]:
    """Combined placement followed by Tunable-circuit extraction."""
    placement = combined_place(
        mode_circuits, arch, strategy, seed, schedule, timing=timing
    )
    tunable = merge_from_placement(
        name, mode_circuits, placement.block_sites, placement.pad_sites
    )
    return tunable, placement


class TunablePlacementProblem(PlacementTimingMixin):
    """TPlace: refine the placement of a merged Tunable circuit.

    Cells are whole Tunable LUTs / pads (all modes move together); the
    topology — which LUTs share a Tunable LUT — is fixed.  The cost is
    the same summed per-mode bounding-box estimator the combined
    placement's wire-length option uses; *timing* (a
    ``CriticalityConfig``) adds the criticality-weighted delay term,
    analysed per mode on the specialised circuits at the Tunable
    cells' sites.
    """

    def __init__(self, tunable: TunableCircuit,
                 arch: FpgaArchitecture, rng,
                 randomize: bool = False,
                 timing=None) -> None:
        self.arch = arch
        self.tunable = tunable
        self.tlut_names = sorted(tunable.tluts)
        self.pad_names = sorted(tunable.pads)
        clb_sites = arch.clb_sites()
        pad_sites = arch.pad_sites()
        if len(self.tlut_names) > len(clb_sites):
            raise ValueError("tunable circuit does not fit the grid")
        if len(self.pad_names) > len(pad_sites):
            raise ValueError("tunable pads do not fit the perimeter")

        self.site_of: Dict[str, Site] = {}
        self.cell_at: Dict[Site, str] = {}
        if randomize or any(
            tunable.tluts[n].site is None for n in self.tlut_names
        ):
            shuffled = list(clb_sites)
            rng.shuffle(shuffled)
            for name, site in zip(self.tlut_names, shuffled):
                self.site_of[name] = site
            shuffled_pads = list(pad_sites)
            rng.shuffle(shuffled_pads)
            for name, site in zip(self.pad_names, shuffled_pads):
                self.site_of[name] = site
        else:
            for name in self.tlut_names:
                self.site_of[name] = tunable.tluts[name].site
            for name in self.pad_names:
                self.site_of[name] = tunable.pads[name].site
        for name, site in self.site_of.items():
            self.cell_at[site] = name

        self.clb_sites = clb_sites
        self.all_pad_sites = pad_sites

        # Per-mode nets in tunable-cell space, derived from the
        # tunable connections (the fixed topology).
        sinks_by_source: Dict[Tuple[int, str], List[str]] = {}
        for conn in tunable.connections:
            for mode in conn.activation:
                sinks_by_source.setdefault(
                    (mode, conn.source), []
                ).append(conn.sink)
        self.nets: List[List[str]] = []
        for (_mode, source), sinks in sorted(sinks_by_source.items()):
            cells = [source]
            seen = {source}
            for sink in sinks:
                if sink not in seen:
                    seen.add(sink)
                    cells.append(sink)
            if len(cells) >= 2:
                self.nets.append(cells)
        self.nets_of_cell: Dict[str, List[int]] = {}
        for i, cells in enumerate(self.nets):
            for cell in cells:
                self.nets_of_cell.setdefault(cell, []).append(i)
        self.net_cost = [
            self._compute_net_cost(i) for i in range(len(self.nets))
        ]

        timing_cost = None
        if timing is not None:
            from repro.timing.criticality import (
                PlacementTimingCost,
                tunable_carriers,
            )

            carriers = tunable_carriers(tunable)
            timing_cost = PlacementTimingCost(timing)
            for mode in range(tunable.n_modes):
                timing_cost.add_circuit(
                    tunable.specialize(mode),
                    key_of=lambda cell, m=mode: carriers[(m, cell)],
                )
        self._bind_timing(timing_cost)

    def _compute_net_cost(self, index: int) -> float:
        # Same single-pass inline as the combined problem's.
        cells = self.nets[index]
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
        return len(self.tlut_names) + len(self.pad_names)

    def n_nets(self) -> int:
        return len(self.nets)

    def max_rlim(self) -> int:
        return max(self.arch.nx, self.arch.ny) + 2

    def native_spec(self) -> AnnealSpec:
        """This problem for the native move loop."""
        return AnnealSpec(
            cells=self.tlut_names + self.pad_names,
            n_blocks=len(self.tlut_names),
            site_of=self.site_of,
            sites=self.clb_sites + self.all_pad_sites,
            n_clb=len(self.clb_sites),
            nets=self.nets,
            nets_of_cell=self.nets_of_cell,
            net_cost=self.net_cost,
            style=STYLE_MODES,
            **self._native_timing(),
        )

    def native_restore(self, net_cost) -> None:
        """Adopt the native loop's net costs and rebuild the occupancy
        map from the final ``site_of``."""
        self.cell_at = {site: cell for cell, site in self.site_of.items()}
        self.net_cost = net_cost

    def propose(self, rlim: float, rng):
        n_tluts = len(self.tlut_names)
        total = n_tluts + len(self.pad_names)
        if rng.randrange(total) < n_tluts:
            cell = self.tlut_names[rng.randrange(n_tluts)]
            candidates = self.clb_sites
        else:
            cell = self.pad_names[
                rng.randrange(len(self.pad_names))
            ]
            candidates = self.all_pad_sites
        src_site = self.site_of[cell]
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

    def delta_cost(self, move) -> float:
        cell, src_site, dst_site = move
        other = self.cell_at.get(dst_site)
        affected: Set[int] = set(self.nets_of_cell.get(cell, ()))
        if other is not None:
            affected.update(self.nets_of_cell.get(other, ()))
        before = sum(self.net_cost[i] for i in affected)
        timing = self._timing
        if timing is not None:
            t_affected, t_before = self._timing_before(
                self._timing_keys(cell, other)
            )
        self.site_of[cell] = dst_site
        if other is not None:
            self.site_of[other] = src_site
        # Remember the after-costs for commit() of this same move
        # (identical floats, same order).
        evaluated: Dict[int, float] = {}
        after = 0.0
        for i in affected:
            cost = self._compute_net_cost(i)
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
            del self.cell_at[src_site]
        pending = getattr(self, "_pending", None)
        if pending is not None and pending[0] == move:
            evaluated, t_evaluated = pending[1], pending[2]
        else:
            evaluated = t_evaluated = None
        self._pending = None
        affected: Set[int] = set(self.nets_of_cell.get(cell, ()))
        if other is not None:
            affected.update(self.nets_of_cell.get(other, ()))
        for i in affected:
            self.net_cost[i] = (
                evaluated[i]
                if evaluated is not None and i in evaluated
                else self._compute_net_cost(i)
            )
        self._commit_timing(
            self._timing_keys(cell, other), t_evaluated
        )

    def apply_to_tunable(self) -> None:
        """Write the refined sites back into the Tunable circuit."""
        for name in self.tlut_names:
            self.tunable.tluts[name].site = self.site_of[name]
        for name in self.pad_names:
            self.tunable.pads[name].site = self.site_of[name]


def tplace(
    tunable: TunableCircuit,
    arch: FpgaArchitecture,
    seed: int = 0,
    schedule: Optional[AnnealingSchedule] = None,
    randomize: bool = False,
    timing=None,
) -> AnnealingStats:
    """Run TPlace on *tunable*; sites are updated in place.

    *timing* (a ``CriticalityConfig``) makes the refinement
    timing-driven; ``None`` is bit-identical to the historical run.
    """
    rng = make_rng(seed, "tplace")
    problem = TunablePlacementProblem(
        tunable, arch, rng, randomize=randomize, timing=timing
    )
    stats = anneal(problem, rng, schedule)
    problem.apply_to_tunable()
    return stats
