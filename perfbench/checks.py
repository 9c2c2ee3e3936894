"""Output checks, run outside every timed section.

Each check returns a list of problems (empty when the output is
correct), so one failing flow is counted against ``failed`` without
stopping the run.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence


def check_flow(result, modes: Sequence) -> List[str]:
    """Routing legality and functional equivalence of one flow.

    * every MDR and DCS routing passes ``validate_routing``;
    * each DCS strategy's ``tunable.specialize(mode)`` simulates
      equivalent to that mode's circuit.
    """
    from repro.netlist.simulate import equivalent
    from repro.route.router import validate_routing

    problems: List[str] = []
    routings = [
        (f"mdr/mode{impl.mode}", impl.routing)
        for impl in result.mdr.implementations
    ] + [
        (f"dcs/{strategy.value}", dcs.routing)
        for strategy, dcs in result.dcs.items()
    ]
    for label, routing in routings:
        try:
            validate_routing(routing)
        except AssertionError as exc:
            problems.append(f"{result.name} {label}: illegal routing: {exc}")
    for strategy, dcs in result.dcs.items():
        for mode, circuit in enumerate(modes):
            if not equivalent(dcs.tunable.specialize(mode), circuit):
                problems.append(
                    f"{result.name} dcs/{strategy.value}: mode {mode} "
                    "is not equivalent to its circuit"
                )
    return problems


def check_payload(
    name: str, served: Dict[str, object], reference: Dict[str, object]
) -> List[str]:
    """A served QoR payload must equal the cold run's, key for key."""
    expected = json.loads(json.dumps(reference))
    if served == expected:
        return []
    differing = sorted(
        key for key in set(served) | set(expected)
        if served.get(key) != expected.get(key)
    )
    return [f"{name}: served payload differs in {', '.join(differing)}"]
