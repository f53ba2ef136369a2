"""Output checks, computed apart from the program under test.

Every check takes plain data (tuples, dicts, lists) and returns a list of
problem strings; an empty list means the output passed. Keeping the checks
free of ``repro`` objects lets the tests feed them deliberately corrupted
outputs, and keeps each recomputation independent of the code it checks.

A flow record is ``(ingress, volume, paths)`` where ``paths`` is a list of
``(routers, status, fraction)``: the per-flow ECMP spread the traffic
simulator reports.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict, deque
from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

#: statuses that end a path with the traffic handed off (not dropped)
DELIVERED_STATUSES = frozenset({"delivered", "exited"})

FlowRecord = Tuple[str, float, Sequence[Tuple[Sequence[str], str, float]]]
LinkKey = Tuple[str, str]

_REL_TOL = 1e-9
_ABS_TOL = 1e-3  # bits/second; loads are in the 1e6..1e12 range


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_REL_TOL, abs_tol=_ABS_TOL)


def _key(a: str, b: str) -> LinkKey:
    return (a, b) if a <= b else (b, a)


def check_flow_shares(flows: Iterable[FlowRecord]) -> List[str]:
    """Each flow's path shares sum to its volume; paths start at ingress."""
    problems = []
    for index, (ingress, volume, paths) in enumerate(flows):
        carried = sum(volume * fraction for _, _, fraction in paths)
        if not _close(carried, volume):
            problems.append(
                f"flow {index} at {ingress}: paths carry {carried:.6g} "
                f"of volume {volume:.6g}"
            )
        for routers, _, _ in paths:
            if not routers or routers[0] != ingress:
                problems.append(
                    f"flow {index}: path {list(routers)} does not start at "
                    f"its ingress {ingress}"
                )
    return problems


def recompute_link_loads(flows: Iterable[FlowRecord]) -> Dict[LinkKey, float]:
    """Per-link load summed over every flow's paths (undirected links)."""
    loads: Dict[LinkKey, float] = defaultdict(float)
    for _, volume, paths in flows:
        for routers, _, fraction in paths:
            for a, b in zip(routers, routers[1:]):
                loads[_key(a, b)] += volume * fraction
    return dict(loads)


def check_link_loads(
    flows: Sequence[FlowRecord], reported: Mapping[LinkKey, float]
) -> List[str]:
    """Each reported link load equals the sum of path volumes over it."""
    expected = recompute_link_loads(flows)
    got = {_key(a, b): load for (a, b), load in reported.items()}
    problems = []
    for key in sorted(set(expected) | set(got)):
        want, have = expected.get(key, 0.0), got.get(key, 0.0)
        if not _close(want, have):
            problems.append(
                f"link {key[0]}-{key[1]}: reported load {have:.6g}, "
                f"paths carry {want:.6g}"
            )
    return problems


def check_flow_conservation(
    flows: Sequence[FlowRecord], links: Iterable[LinkKey]
) -> List[str]:
    """Per router: in + originated = out + delivered + dropped.

    ``originated`` comes from the flows' ingress and volume, the other four
    terms from the per-flow paths; every hop must be a topology link.
    """
    adjacent: Set[LinkKey] = {_key(a, b) for a, b in links}
    into: Dict[str, float] = defaultdict(float)
    out: Dict[str, float] = defaultdict(float)
    originated: Dict[str, float] = defaultdict(float)
    delivered: Dict[str, float] = defaultdict(float)
    dropped: Dict[str, float] = defaultdict(float)
    problems = []
    for ingress, volume, paths in flows:
        originated[ingress] += volume
        for routers, status, fraction in paths:
            share = volume * fraction
            for a, b in zip(routers, routers[1:]):
                if _key(a, b) not in adjacent:
                    problems.append(f"path hop {a}-{b} is not a topology link")
                out[a] += share
                into[b] += share
            if routers:
                sink = delivered if status in DELIVERED_STATUSES else dropped
                sink[routers[-1]] += share
    routers = set(into) | set(out) | set(originated) | set(delivered) | set(dropped)
    for router in sorted(routers):
        arriving = into[router] + originated[router]
        leaving = out[router] + delivered[router] + dropped[router]
        if not _close(arriving, leaving):
            problems.append(
                f"router {router}: in+originated {arriving:.6g} != "
                f"out+delivered+dropped {leaving:.6g}"
            )
    return problems


def check_verdicts(records: Iterable[Tuple[str, bool, bool]]) -> List[str]:
    """``(plan, expect_risk, risky)``: every verdict matches the generator."""
    return [
        f"plan {name}: verdict {'risk' if risky else 'pass'}, generator "
        f"expects {'risk' if expect else 'pass'}"
        for name, expect, risky in records
        if expect != risky
    ]


def closed_form_scenarios(n_links: int, k: int = 2) -> int:
    """Failure scenarios of 1..k links out of n: C(n,1) + ... + C(n,k).

    The engine's scenario space leaves out the no-failure scenario C(n,0);
    the benchmark checks that one against the base solve itself.
    """
    return sum(math.comb(n_links, size) for size in range(1, k + 1))


def check_sweep_counts(
    n_links: int, checked: int, simulated: int, pruned: int, coverage: float
) -> List[str]:
    """Scenario accounting of one sweep of every ≤2-link failure."""
    problems = []
    expected = closed_form_scenarios(n_links)
    if checked != expected:
        problems.append(
            f"sweep checked {checked} scenarios, closed form over "
            f"{n_links} links gives {expected}"
        )
    if coverage != 1.0:
        problems.append(f"sweep coverage {coverage}, expected 1.0")
    if simulated + pruned != checked:
        problems.append(
            f"simulated {simulated} + pruned {pruned} != checked {checked}"
        )
    return problems


def scenario_link_sets(
    links: Sequence[LinkKey], k: int = 2
) -> List[Tuple[LinkKey, ...]]:
    """The failed-link endpoints of every scenario, in enumeration order."""
    return [
        combo
        for size in range(1, k + 1)
        for combo in itertools.combinations(links, size)
    ]


def disconnected_devices(
    all_links: Sequence[LinkKey],
    failed: Sequence[int],
    devices: Sequence[str],
    origins: Iterable[str],
) -> Set[str]:
    """Devices with no physical path to any origin once ``failed`` go down.

    ``failed`` indexes ``all_links`` (parallel members share endpoints, so
    links are identified by position). Plain BFS over the surviving links.
    """
    dead = set(failed)
    neighbours: Dict[str, List[str]] = defaultdict(list)
    for index, (a, b) in enumerate(all_links):
        if index not in dead:
            neighbours[a].append(b)
            neighbours[b].append(a)
    reached = set(origins)
    queue = deque(reached)
    while queue:
        node = queue.popleft()
        for other in neighbours[node]:
            if other not in reached:
                reached.add(other)
                queue.append(other)
    return {device for device in devices if device not in reached}


def check_disconnects_reported(
    expected: Mapping[Tuple[LinkKey, ...], Tuple[int, Set[str]]],
    reported: Mapping[Tuple[LinkKey, ...], Sequence[Sequence[str]]],
    prefix: str,
) -> List[str]:
    """Every physically cut-off device is reported as having lost the prefix.

    ``expected`` maps a scenario's failed-link endpoints to (number of
    scenarios with those endpoints, devices the BFS finds cut off);
    ``reported`` maps endpoints to the violation lists of the sweep.
    """
    problems = []
    for key, (count, lost) in expected.items():
        if not lost:
            continue
        records = reported.get(key, ())
        label = "+".join("-".join(ends) for ends in key)
        if len(records) != count:
            problems.append(
                f"scenario {label}: {len(records)} violation records for "
                f"{count} scenarios that cut {sorted(lost)} off"
            )
        for violations in records:
            missing = sorted(d for d in lost if f"{d} lost {prefix}" not in violations)
            if missing:
                problems.append(
                    f"scenario {label}: {missing} are cut off from every "
                    f"origin but not reported"
                )
    return problems


def check_equal(label: str, got: object, want: object) -> List[str]:
    """One problem when two fingerprints (or verdicts) differ."""
    return [] if got == want else [f"{label}: {got!r} != {want!r}"]
