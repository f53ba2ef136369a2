"""The timed loop shared by every workload, and the metrics it reports.

One process, one thread, one operation at a time (a closed loop with a
single client). Set-up runs several times and reports its median;
operations then run back to back, in whole rounds of the workload's
``round_ops``, until their summed wall time reaches the run length. Output checks run between operations and after the loop, never
inside an operation's timed interval.

Garbage is collected before every timed operation, so cyclic garbage left
by input generation, checks or the previous operation is not collected
inside the next one.

With ``trace=True`` every input runs twice, once untraced and once traced,
in an order that alternates from one input to the next. Per-layer metrics
come from the traced runs, which therefore cover every input, and the
median of the per-input differences is the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from collections import Counter
from contextlib import nullcontext
from typing import Callable, Dict, List, Optional

from perfbench.tracing import HOOKS, Tracer
from perfbench.workloads import WORKLOADS

#: set-up repeats until it has run at least this many times and this long
#: (bounded by SETUP_MAX_REPEATS); ``setup_s`` is the median, so a set-up of
#: a few hundredths of a second still gets enough samples to be steady
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 20
#: the reported tail percentile; a run of verify_stream holds three or four
#: rounds of 12 operations on the reference machine, so 9 or 12 lie beyond it
TAIL_PERCENTILE = 75

#: (name, unit, better) of every end-to-end metric, reported untraced
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("op_p50_s", "s", "lower"),
    ("op_tail_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("scenarios_per_s", "1/s", "higher"),
    ("cpu_per_op_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

#: op-scope layers: (metric, span name) — self seconds per traced operation
OP_LAYERS = [
    ("routing.compute_igp_s", "routing.compute_igp"),
    ("routing.route_sim_s", "routing.route_sim"),
    ("routing.assemble_ribs_s", "routing.assemble_ribs"),
    ("routing.global_rib_s", "routing.global_rib"),
    ("traffic.sim_s", "traffic.sim"),
    ("ec.flow_ecs_s", "ec.flow_ecs"),
    ("incremental.snapshot_base_s", "incremental.snapshot_base"),
    ("incremental.analyze_s", "incremental.analyze"),
    ("incremental.splice_s", "incremental.splice"),
    ("core.build_updated_model_s", "core.build_updated_model"),
    ("core.intents_s", "core.intents"),
    ("rcl.verify_s", "rcl.verify"),
    ("kfailure.class_key_s", "kfailure.class_key"),
    ("kfailure.effect_s", "kfailure.effect"),
    ("trace.hooks_s", HOOKS),
]

#: set-up-scope layers: (metric, span name) — self seconds per set-up
SETUP_LAYERS = [
    ("workload.generate_s", "workload.generate"),
    ("kfailure.prepare_s", "kfailure.prepare"),
    ("setup.compute_igp_s", "routing.compute_igp"),
    ("setup.route_sim_s", "routing.route_sim"),
    ("setup.assemble_ribs_s", "routing.assemble_ribs"),
    ("setup.global_rib_s", "routing.global_rib"),
    ("setup.traffic_sim_s", "traffic.sim"),
    ("setup.flow_ecs_s", "ec.flow_ecs"),
    ("setup.snapshot_base_s", "incremental.snapshot_base"),
    ("setup.hooks_s", HOOKS),
]

#: op-scope counters copied per traced operation: (metric, counter, better)
OP_COUNTS = [
    ("routing.route_sim_calls", "routing.route_sim_calls", "lower"),
    ("routing.bgp_messages", "routing.bgp_messages", "lower"),
    ("routing.bgp_rounds", "routing.bgp_rounds", "lower"),
    ("routing.rib_rows", "routing.rib_rows", "lower"),
    ("core.intents_checked", "core.intents_checked", "lower"),
    ("kfailure.class_keys", "kfailure.class_keys", "lower"),
    ("runtime.gc_collections", "runtime.gc_collections", "lower"),
]


def per_layer_spec() -> List[tuple]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = [(name, "s", "lower") for name, _ in OP_LAYERS]
    spec += [
        ("trace.unattributed_s", "s", "lower"),
        ("trace.op_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("runtime.gc_s", "s", "lower"),
    ]
    spec += [(name, "count/op", better) for name, _, better in OP_COUNTS]
    spec += [
        ("kfailure.noop_classes", "count/op", "higher"),
        ("incremental.plans_incremental", "share", "higher"),
        ("incremental.plans_widened", "share", "lower"),
        ("incremental.plans_noop", "share", "higher"),
        ("ec.flow_ec_reduction", "ratio", "higher"),
        ("incremental.covered_input_ratio", "ratio", "lower"),
        ("kfailure.simulated_ratio", "ratio", "lower"),
    ]
    spec += [(name, "s", "lower") for name, _ in SETUP_LAYERS]
    spec += [("setup.unattributed_s", "s", "lower"), ("trace.setup_s", "s", "lower")]
    return spec


def percentile(values: List[float], pct: float) -> float:
    """Interpolated percentile (inclusive method) of a non-empty list."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(pct) - 1]


class NoOperationSucceeded(RuntimeError):
    """Every attempted operation raised; there is no latency to report."""


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    size: str = "full",
    log: Callable[[str], None] = print,
) -> Dict[str, object]:
    """Run one workload; returns the result object printed by ``run.py``."""
    cls = WORKLOADS[name]
    tracer = Tracer() if trace else None
    uninstall: Optional[Callable[[], None]] = tracer.install() if tracer else None
    problems: List[str] = []

    selection = cls.select(seed, size)  # the benchmark's own choices, untimed
    setup_times: List[float] = []
    workload = None
    while len(setup_times) < SETUP_MAX_REPEATS and (
        len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS
    ):
        workload = None  # free the previous set-up before timing the next
        gc.collect()
        with tracer.root("setup") if tracer else nullcontext():
            started = time.perf_counter()
            workload = cls(seed, size, selection)
            workload.setup()
            setup_times.append(time.perf_counter() - started)
    log("inputs: " + json.dumps(workload.inputs(), sort_keys=True))
    if uninstall is not None:
        uninstall()
        uninstall = None

    durations: Dict[bool, List[float]] = {False: [], True: []}
    overheads: List[float] = []
    counters: Counter = Counter()
    attempted = failed = 0
    busy = cpu = 0.0
    scenarios = 0
    index = 0
    while busy < seconds or index % workload.round_ops:  # whole rounds only
        workload.before_op(index)
        if tracer is None:
            order = (False,)
        else:  # alternate the order so neither variant always runs first
            order = (False, True) if index % 2 == 0 else (True, False)
        pair: Dict[bool, float] = {}
        for traced in order:
            if traced:
                uninstall = tracer.install()
            output = None
            gc.collect()
            cpu_started = time.process_time()
            started = time.perf_counter()
            try:
                with tracer.root("op") if traced else nullcontext():
                    output = workload.op(index)
            except Exception as exc:  # a failed operation is counted, not fatal
                failed += 1
                log(f"operation {index} failed: {exc!r}")
            elapsed = time.perf_counter() - started
            cpu += time.process_time() - cpu_started
            busy += elapsed
            attempted += 1
            if uninstall is not None:
                uninstall()
                uninstall = None
            if output is None:
                continue
            durations[traced].append(elapsed)
            pair[traced] = elapsed
            try:
                op_problems, decided, op_counters = workload.check_op(index, output)
            except Exception as exc:
                op_problems, decided, op_counters = [f"check raised {exc!r}"], 0, {}
            problems += op_problems
            scenarios += decided
            counters.update(op_counters)
            output = None
        if len(pair) == 2:
            overheads.append(pair[True] - pair[False])
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        problems += workload.check_final()
    except Exception as exc:
        problems.append(f"final check raised {exc!r}")
    log("operation seconds: " + " ".join(f"{d:.3f}" for d in durations[False] + durations[True]))
    for problem in problems[:20]:
        log(f"CHECK FAILED: {problem}")

    succeeded = durations[False] + durations[True]
    if not succeeded:
        raise NoOperationSucceeded(f"{name}: all {attempted} operations failed")
    tail = percentile(succeeded, TAIL_PERCENTILE)
    tail_beyond = sum(1 for duration in succeeded if duration > tail)
    log(
        f"workload {name}: {attempted} operations attempted, {failed} failed; "
        f"op_tail_s is p{TAIL_PERCENTILE} over {len(succeeded)} samples "
        f"({tail_beyond} beyond it)"
    )
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_p50_s": statistics.median(succeeded),
            "op_tail_s": tail,
            "ops_per_s": len(succeeded) / busy,
            "scenarios_per_s": scenarios / busy,
            "cpu_per_op_s": cpu / attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        units = {name: unit for name, unit, _ in END_TO_END}
    else:
        metrics = _layer_metrics(tracer, overheads, counters, len(succeeded))
        units = {name: unit for name, unit, _ in per_layer_spec()}
    report = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    for metric, entry in report.items():
        log(f"metric {metric} = {entry['value']:.6g} {entry['unit']}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": report,
    }


def _layer_metrics(
    tracer: Tracer,
    overheads: List[float],
    counters: Counter,
    ops: int,
) -> Dict[str, float]:
    """Per-layer metrics of a traced run.

    Op-scope self times plus ``trace.unattributed_s`` add up to
    ``trace.op_s``; set-up-scope ones plus ``setup.unattributed_s`` add up
    to ``trace.setup_s``. ``runtime.gc_s`` overlaps the layers it
    interrupted and is not part of either sum.
    """
    op_self = tracer.self_time["op"]
    traced_ops = len(tracer.roots["op"])
    setups = len(tracer.roots["setup"])
    metrics: Dict[str, float] = {}
    for metric, span in OP_LAYERS:
        metrics[metric] = op_self[span] / traced_ops
    op_mean = sum(tracer.roots["op"]) / traced_ops
    metrics["trace.unattributed_s"] = op_mean - sum(
        metrics[metric] for metric, _ in OP_LAYERS
    )
    metrics["trace.op_s"] = op_mean
    metrics["trace.overhead_s"] = statistics.median(overheads) if overheads else 0.0
    op_counts = tracer.counts["op"]
    metrics["runtime.gc_s"] = op_counts["runtime.gc_s"] / traced_ops
    for metric, counter, _ in OP_COUNTS:
        metrics[metric] = op_counts[counter] / traced_ops
    metrics["kfailure.noop_classes"] = counters["kfailure.noop_classes"] / ops
    for mode in ("incremental", "widened", "noop"):
        metrics[f"incremental.plans_{mode}"] = counters[f"incremental.plans_{mode}"] / ops
    metrics["ec.flow_ec_reduction"] = _ratio(op_counts["ec.flows"], op_counts["ec.classes"])
    metrics["incremental.covered_input_ratio"] = _ratio(
        counters["incremental.covered_inputs"], counters["incremental.total_inputs"]
    )
    metrics["kfailure.simulated_ratio"] = _ratio(
        counters["kfailure.simulated"], counters["kfailure.checked"]
    )
    setup_self = tracer.self_time["setup"]
    for metric, span in SETUP_LAYERS:
        metrics[metric] = setup_self[span] / setups
    setup_mean = sum(tracer.roots["setup"]) / setups
    metrics["setup.unattributed_s"] = setup_mean - sum(
        metrics[metric] for metric, _ in SETUP_LAYERS
    )
    metrics["trace.setup_s"] = setup_mean
    return metrics


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
