"""The three workloads: inputs, one operation, and output checks.

The program receives only the generated inputs; everything the checks
compare against is recomputed here or by a second, independent code path.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.core import ChangeVerifier
from repro.distsim.chaos import rib_fingerprint
from repro.exec import CentralizedBackend, RouteSimRequest, make_backend
from repro.incremental.engine import MODE_INCREMENTAL
from repro.kfailure import KFailureEngine, reachability_property
from repro.obs import RunContext
from repro.routing.simulator import RouteSimulator
from repro.workload import changes, flows, routes, wan

from perfbench import checks

#: the corpus's root-cause and template draws are fixed, so every seed
#: verifies the same mix of change types (the median latency sits inside
#: one change type's cluster instead of jumping between clusters); the
#: seed still moves the WAN, routes, flows, plan targets and stream order.
CORPUS_SEED = 232


def _seed(base: int, salt: int) -> int:
    return base * 1000 + salt


def _fingerprint(device_ribs) -> str:
    return rib_fingerprint(device_ribs).hex()[:16]


def _flow_records(flow_list, traffic) -> List[checks.FlowRecord]:
    return [
        (
            flow.ingress,
            flow.volume,
            [(path.routers, path.status, fraction) for path, fraction in traffic.path_of(flow)],
        )
        for flow in flow_list
    ]


class Workload:
    """The surface the harness drives.

    ``select(seed, size)`` makes the benchmark's own choices about the
    inputs (untimed, once per run); ``__init__(seed, size, selection)``
    then ``setup()`` generate the inputs from the seed and build the
    verifier or engine (timed as set-up); ``inputs()``
    fingerprints them, so equal seeds can be shown to give equal inputs;
    ``before_op(i)`` prepares operation ``i``'s inputs (untimed); ``op(i)``
    is the timed operation, and a run attempts whole rounds of
    ``round_ops`` operations; ``check_op(i, output)`` runs the cheap checks
    of its output (untimed) and returns ``(problems, scenarios decided,
    counters)``; ``check_final()`` runs the expensive cross-checks once per
    run (untimed).
    """

    name = ""
    round_ops = 1

    @classmethod
    def select(cls, seed: int, size: str) -> Dict[str, object]:
        return {}

    def __init__(self, seed: int, size: str, selection: Optional[dict] = None) -> None:
        self.seed = seed
        self.size = self.SIZES[size]
        self.selection = self.select(seed, size) if selection is None else selection

    def before_op(self, i: int) -> None:
        pass


class Presim(Workload):
    """Daily pre-processing: one fresh WAN "day" per operation.

    Set-up generates day 0; every later day is generated just before its
    operation, so only one day's inputs are alive at a time.
    """

    name = "presim"
    SIZES = {
        "full": dict(params=wan.WanParams.large_smoke, prefixes=50, flows=1000),
        "smoke": dict(
            params=lambda seed: wan.WanParams(regions=2, seed=seed), prefixes=8, flows=40
        ),
    }

    def __init__(self, seed: int, size: str, selection: Optional[dict] = None) -> None:
        super().__init__(seed, size, selection)
        self.day0: tuple = ()
        self.day: tuple = ()
        self._fingerprint0: Optional[str] = None

    def _generate(self, day: int) -> tuple:
        day_seed = _seed(self.seed, day)
        model, inventory = wan.generate_wan(self.size["params"](day_seed))
        day_routes = routes.generate_input_routes(
            inventory, n_prefixes=self.size["prefixes"], seed=day_seed
        )
        day_flows = flows.generate_flows(
            inventory, day_routes, n_flows=self.size["flows"], seed=day_seed
        )
        return model, day_routes, day_flows

    def setup(self) -> None:
        self.day0 = self.day = self._generate(0)

    def inputs(self) -> Dict[str, object]:
        model, day_routes, day_flows = self.day0
        return {
            "wan": wan.wan_fingerprint(model)[:16],
            "routes": len(day_routes),
            "flows": len(day_flows),
        }

    def before_op(self, i: int) -> None:
        if i > 0:
            self.day = ()  # free the previous day before generating the next
            self.day = self._generate(i)

    def op(self, i: int):
        model, day_routes, day_flows = self.day
        verifier = ChangeVerifier(model, day_routes, day_flows)
        verifier.prepare_base(ctx=RunContext("presim"))
        return verifier.base_world

    def check_op(self, i: int, world) -> Tuple[List[str], int, Dict[str, int]]:
        model, _, day_flows = self.day
        records = _flow_records(day_flows, world.traffic)
        links = [link.endpoints for link in model.topology.links]
        problems = (
            checks.check_flow_shares(records)
            + checks.check_link_loads(records, world.traffic.loads.loads)
            + checks.check_flow_conservation(records, links)
        )
        if i == 0:
            self._fingerprint0 = _fingerprint(world.device_ribs)
        return problems, 1, {}

    def check_final(self) -> List[str]:
        """Day 0's RIBs equal the modular backend's (a separate solver)."""
        model, day_routes, _ = self.day0
        modular = ChangeVerifier(
            model, day_routes, backend=make_backend("modular"), incremental=False
        )
        modular.prepare_base(ctx=RunContext("presim-modular"))
        return checks.check_equal(
            "day 0 RIB fingerprint, centralized vs modular",
            self._fingerprint0,
            _fingerprint(modular.base_world.device_ribs),
        )


class VerifyStream(Workload):
    """Change plans of the Table-6 corpus verified one after another.

    Set-up prepares several bases, each a WAN of its own with its own
    stream of plans, and the operations take the bases in turn. The
    latency figures then pool the bases' plans, so they depend less on
    any one generated WAN.
    """

    name = "verify_stream"
    SIZES = {
        "full": dict(
            bases=3, round=12, regions=4, prefixes=45, flows=150, risky=40, correct=12
        ),
        "smoke": dict(bases=2, round=4, regions=2, prefixes=10, flows=30, risky=6, correct=2),
    }
    #: incremental-mode plans re-checked against a full re-simulation
    SAMPLE = 3

    def __init__(self, seed: int, size: str, selection: Optional[dict] = None) -> None:
        super().__init__(seed, size, selection)
        self.round_ops = self.size["round"]
        #: per base: (prepared verifier, stream of plans, left-out plan names)
        self.bases: List[Tuple[ChangeVerifier, list, List[str]]] = []
        self._sampled: List[Tuple[int, object, str]] = []

    def setup(self) -> None:
        self.bases = [self._prepare(base) for base in range(self.size["bases"])]
        if any(len(stream) < self.round_ops for _, stream, _ in self.bases):
            raise ValueError("a base's stream is shorter than the round")

    def _prepare(self, base: int) -> Tuple[ChangeVerifier, list, List[str]]:
        size = self.size
        salt = 10 * base
        model, inventory = wan.generate_wan(
            wan.WanParams(regions=size["regions"], seed=_seed(self.seed, salt))
        )
        base_routes = routes.generate_input_routes(
            inventory, n_prefixes=size["prefixes"], seed=_seed(self.seed, salt + 1)
        )
        corpus = changes.generate_change_corpus(
            model, inventory, n_risky=size["risky"], n_correct=size["correct"],
            seed=CORPUS_SEED,
        )
        # Plans whose defect is a mutation of the base need a base of their
        # own; the stream shares one prepared base.
        shared = [change for change in corpus if change.prepare_base is None]
        left_out = [c.plan.name for c in corpus if c.prepare_base is not None]
        stream = _stratified(shared, random.Random(_seed(self.seed, salt + 2)))
        all_routes = base_routes + [
            item for change in shared for item in change.extra_input_routes
        ]
        base_flows = flows.generate_flows(
            inventory, base_routes, n_flows=size["flows"], seed=_seed(self.seed, salt + 3)
        )
        verifier = ChangeVerifier(model, all_routes, base_flows)
        verifier.prepare_base(ctx=RunContext("verify-base"))
        return verifier, stream, left_out

    def inputs(self) -> Dict[str, object]:
        return {
            "bases": [
                {"wan": wan.wan_fingerprint(verifier.base_model)[:16], "left_out": left_out}
                for verifier, _, left_out in self.bases
            ],
            "round": [
                f"{base}:{change.plan.name}"
                for base, change in map(self._change, range(self.round_ops))
            ],
        }

    def _change(self, i: int) -> Tuple[int, object]:
        """Operation ``i``'s base and plan.

        Every round verifies the same plans: position ``j`` of the round
        is position ``j`` of base ``j mod bases``'s stream, so the round
        covers the first ``round`` positions of the stratified order and
        every run measures the same mix.
        """
        position = i % self.round_ops
        base = position % len(self.bases)
        return base, self.bases[base][1][position]

    def op(self, i: int):
        base, change = self._change(i)
        return self.bases[base][0].verify(change.plan, ctx=RunContext("verify"))

    def check_op(self, i: int, report) -> Tuple[List[str], int, Dict[str, int]]:
        base, change = self._change(i)
        problems = checks.check_verdicts(
            [(change.plan.name, change.expect_risk, not report.ok)]
        )
        mode = report.incremental.mode
        sampled = [(b, c) for b, c, _ in self._sampled]
        if (
            mode == MODE_INCREMENTAL
            and len(self._sampled) < self.SAMPLE
            and (base, change) not in sampled
        ):
            self._sampled.append(
                (base, change, _fingerprint(report.updated_world.device_ribs))
            )
        return problems, 1, {f"incremental.plans_{mode}": 1, **_covered(report)}

    def check_final(self) -> List[str]:
        """Sampled incremental plans equal a full re-simulation."""
        if not self._sampled:
            return ["no plan of the run took the incremental path"]
        full: Dict[int, ChangeVerifier] = {}
        problems = []
        for base, change, fingerprint in self._sampled:
            if base not in full:
                verifier = self.bases[base][0]
                full[base] = ChangeVerifier(
                    verifier.base_model, verifier.input_routes, verifier.input_flows,
                    incremental=False,
                )
                full[base].prepare_base(ctx=RunContext("verify-full"))
            world, _ = full[base].simulate_plan(change.plan, ctx=RunContext("verify-full"))
            problems += checks.check_equal(
                f"base {base} plan {change.plan.name} RIB fingerprint, incremental vs full",
                fingerprint,
                _fingerprint(world.device_ribs),
            )
        return problems


def _covered(report) -> Dict[str, int]:
    stats = report.incremental
    if stats.mode != MODE_INCREMENTAL:
        return {}
    return {
        "incremental.covered_inputs": stats.resimulated_inputs,
        "incremental.total_inputs": stats.total_inputs,
    }


def _stratified(plans: list, rng: random.Random) -> list:
    """Interleave plan kinds so every stretch of the stream has the mix.

    A round verifies the first positions of the stream, not the whole
    stream. Spreading each kind (change type and root cause, which set a
    plan's cost) evenly over the stream keeps that prefix representative.
    """
    groups: Dict[tuple, list] = defaultdict(list)
    for change in plans:
        groups[(change.plan.change_type, change.root_cause or "")].append(change)
    keyed = []
    for kind in sorted(groups):
        members = groups[kind]
        rng.shuffle(members)
        for rank, change in enumerate(members):
            keyed.append(((rank + 0.5) / len(members), kind, change))
    keyed.sort(key=lambda item: item[:2])
    return [change for _, _, change in keyed]


class KFailureSweep(Workload):
    """Every ≤2-link failure over a fixed link set, one sweep per operation.

    Set-up prepares an engine for each of several WANs, and the sweeps
    take the engines in turn, so the latency figures depend less on any
    one generated WAN.
    """

    name = "kfailure_sweep"
    SIZES = {
        "full": dict(bases=3, regions=4, members=3, prefixes=80, trunks=6, intra=2),
        "smoke": dict(bases=2, regions=2, members=2, prefixes=10, trunks=2, intra=1),
    }
    K = 2

    def __init__(self, seed: int, size: str, selection: Optional[dict] = None) -> None:
        super().__init__(seed, size, selection)
        self.round_ops = self.size["bases"]  # one sweep of every base
        self.bases: List[SweepBase] = []

    @classmethod
    def _generate(cls, seed: int, size: dict, base: int) -> tuple:
        model, inventory = wan.generate_wan(
            wan.WanParams(
                regions=size["regions"], trunk_members=size["members"],
                seed=_seed(seed, 10 * base),
            )
        )
        sweep_routes = routes.generate_input_routes(
            inventory, n_prefixes=size["prefixes"], seed=_seed(seed, 10 * base + 1)
        )
        devices = [
            name for name in model.device_names
            if name.endswith(("-rr0", "-rr1", "-core0"))
        ]
        return model, sweep_routes, devices

    @classmethod
    def select(cls, seed: int, size: str) -> Dict[str, object]:
        """Each base's checked prefix and its origins, chosen outside set-up.

        The choice screens candidates with a route solve the program itself
        never runs, so it must not count as the program's set-up time.
        """
        spec = cls.SIZES[size]
        return {
            "checked": [
                _checked_prefix(*cls._generate(seed, spec, base))
                for base in range(spec["bases"])
            ]
        }

    def setup(self) -> None:
        self.bases = [
            SweepBase(*self._generate(self.seed, self.size, base), checked, self.size)
            for base, checked in enumerate(self.selection["checked"])
        ]

    def inputs(self) -> Dict[str, object]:
        return {
            "bases": [
                {
                    "wan": wan.wan_fingerprint(base.model)[:16],
                    "links": len(base.links),
                    "prefix": str(base.prefix),
                    "origins": base.origins,
                }
                for base in self.bases
            ]
        }

    def op(self, i: int):
        ctx = RunContext("kfailure")
        base = self.bases[i % len(self.bases)]
        return base.engine.check(self.K, base.property, ctx=ctx), ctx

    def check_op(self, i: int, output) -> Tuple[List[str], int, Dict[str, int]]:
        result, ctx = output
        problems = self.bases[i % len(self.bases)].check_sweep(result)
        counters = {
            "kfailure.noop_classes": int(ctx.counters().get("kfailure.noop_classes", 0)),
            "kfailure.simulated": result.scenarios_simulated,
            "kfailure.checked": result.scenarios_checked,
        }
        return problems, result.scenarios_checked, counters

    def check_final(self) -> List[str]:
        problems = []
        for index, base in enumerate(self.bases):
            # The cold re-simulations are spread over the bases by turns.
            cold = [j for j in range(len(COLD_SAMPLE)) if j % len(self.bases) == index]
            problems += [
                f"base {index}: {problem}" for problem in base.check_final(self.K, cold)
            ]
        return problems


class SweepBase:
    """One WAN of the sweep: its link set, checked property and engine."""

    def __init__(self, model, sweep_routes, devices, checked, size: dict) -> None:
        self.model = model
        self.devices = devices
        self.prefix, self.origins = checked
        all_links = list(model.topology.links)
        trunks = [ln for ln in all_links if ln.igp_cost >= 30]
        uplinks = [ln for ln in all_links if set(ln.endpoints) & set(self.origins)]
        intra = [
            ln for ln in all_links
            if ln.igp_cost < 30 and ln not in uplinks
            and model.topology.router(ln.a.router).role != "isp"
            and model.topology.router(ln.b.router).role != "isp"
        ]
        stride = max(1, len(intra) // size["intra"])
        self.n_trunk = size["trunks"] * size["members"]
        self.links = trunks[: self.n_trunk] + uplinks + intra[::stride][: size["intra"]]
        self.property = reachability_property(str(self.prefix), self.devices)
        self.engine = KFailureEngine(model, sweep_routes, links=self.links)
        self.engine.prepare(ctx=RunContext("kfailure-base"))
        self._first: Optional[list] = None
        self._reported: Dict[tuple, List[List[str]]] = {}

    def check_sweep(self, result) -> List[str]:
        """Counts against the closed form; every sweep repeats the first."""
        problems = checks.check_sweep_counts(
            len(self.links),
            result.scenarios_checked,
            result.scenarios_simulated,
            result.scenarios_pruned,
            result.coverage,
        )
        verdicts = [
            (v.failed_links, tuple(v.violations)) for v in result.violations
        ]
        if self._first is None:
            self._first = verdicts
            self._reported = _by_endpoints(result)
        elif verdicts != self._first:
            problems.append("a sweep's verdicts differ from the first sweep's")
        return problems

    def check_final(self, k: int, cold: List[int]) -> List[str]:
        """Base scenario, BFS disconnects, and the ``cold`` entries of
        :data:`COLD_SAMPLE` re-simulated cold."""
        if self._first is None:
            return []  # no sweep of this base finished
        # The no-failure scenario, C(n,0): the property holds on the base.
        problems = [
            f"no-failure scenario: {v}"
            for v in self.property(self.model, self.engine.base_result)
        ]
        endpoints = [ln.endpoints for ln in self.links]
        expected: Dict[tuple, Tuple[int, set]] = {}
        all_links = list(self.model.topology.links)
        position = {id(ln): index for index, ln in enumerate(all_links)}
        combos = [
            combo
            for size in range(1, k + 1)
            for combo in itertools.combinations(range(len(self.links)), size)
        ]
        disconnecting = 0
        for combo in combos:
            key = tuple(endpoints[j] for j in combo)
            lost = checks.disconnected_devices(
                [ln.endpoints for ln in all_links],
                [position[id(self.links[j])] for j in combo],
                self.devices,
                self.origins,
            )
            count, _ = expected.get(key, (0, set()))
            expected[key] = (count + 1, lost)
            disconnecting += bool(lost)
        if not disconnecting:
            problems.append("no scenario of the link set disconnects a device")
        problems += checks.check_disconnects_reported(
            expected, self._reported, str(self.prefix)
        )
        problems += self._cold_sample(endpoints, cold)
        return problems

    def _cold_sample(self, endpoints, cold: List[int]) -> List[str]:
        """Scenarios of the fixed sample re-simulated cold from scratch.

        The failures are applied link by link on a copy of the model, not
        through the engine's scenario overlay.
        """
        backend = CentralizedBackend()
        problems = []
        for entry in cold:
            combo = COLD_SAMPLE[entry](self.n_trunk, len(self.origins), len(self.links))
            key = tuple(endpoints[j] for j in combo)
            scenario_model = self.model.copy()
            for j in combo:
                scenario_model.topology.fail_link(self.links[j])
            outcome = backend.run_routes(
                RouteSimRequest(model=scenario_model, inputs=self.engine.inputs),
                RunContext("kfailure-cold"),
            )
            cold = self.property(scenario_model, outcome.result)
            warm = list(self._reported.get(key, [[]])[0])
            problems += checks.check_equal(
                f"scenario {key} verdict, sweep vs cold", sorted(warm), sorted(cold)
            )
        return problems


#: the scenarios re-simulated cold, as link indices computed from the
#: number of trunk members, origin uplinks and links of the set
COLD_SAMPLE = [
    lambda trunk, up, n: (0,),  # one trunk member: pruned into the base class
    lambda trunk, up, n: (trunk,),  # one origin uplink
    lambda trunk, up, n: (trunk, trunk + 1),  # both origin uplinks: disconnects
    lambda trunk, up, n: (trunk + up,),  # one intra-region link
    lambda trunk, up, n: (0, n - 1),  # trunk member plus intra link
]


def _checked_prefix(model, sweep_routes, devices) -> Tuple[object, List[str]]:
    """The first prefix announced by two single-homed ISPs that every
    checked device learns in the base network.

    Cutting both ISP uplinks then disconnects every checked device from the
    prefix. A prefix the border's bogon filter drops never reaches the
    devices, so candidates are screened with a solve of their routes alone
    (prefixes propagate independently; the sweep's no-failure check
    confirms the choice on the full base).
    """
    origins: Dict[object, set] = defaultdict(set)
    for item in sweep_routes:
        origins[item.route.prefix].add(item.router)
    candidates = [
        prefix for prefix, routers in origins.items()
        if len(routers) == 2
        and all(model.topology.router(r).role == "isp" for r in routers)
    ]
    screened = RouteSimulator(model).simulate(
        [item for item in sweep_routes if item.route.prefix in set(candidates)]
    )
    for prefix in candidates:
        if all(screened.device_ribs[d].routes_for(prefix) for d in devices):
            return prefix, sorted(origins[prefix])
    raise ValueError("no ISP prefix reaches every checked device")


def _by_endpoints(result) -> Dict[tuple, List[List[str]]]:
    reported: Dict[tuple, List[List[str]]] = defaultdict(list)
    for violation in result.violations:
        reported[violation.failed_links].append(violation.violations)
    return dict(reported)


WORKLOADS = {cls.name: cls for cls in (Presim, VerifyStream, KFailureSweep)}
