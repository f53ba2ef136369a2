"""Tests of the benchmark itself: it runs, and its checks catch bad output.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests``.
Every workload runs at its smallest size (``size="smoke"``).
"""

import copy
import json

import pytest

from perfbench import checks
from perfbench.harness import END_TO_END, per_layer_spec, run
from perfbench.workloads import WORKLOADS, KFailureSweep, Presim, VerifyStream, _flow_records


def quiet(line):
    pass


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_finishes_with_no_failed_operation(name):
    result = run(name, seed=3, seconds=0.2, size="smoke", log=quiet)
    assert result["correct"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [metric for metric, _, _ in END_TO_END]
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_layer_metric(name):
    result = run(name, seed=3, seconds=0.2, trace=True, size="smoke", log=quiet)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [metric for metric, _, _ in per_layer_spec()]
    assert result["metrics"]["trace.op_s"]["value"] > 0


@pytest.mark.parametrize("trace", [False, True])
def test_runs_attempt_whole_rounds(trace):
    result = run("verify_stream", seed=3, seconds=0.2, trace=trace, size="smoke", log=quiet)
    per_input = 2 if trace else 1  # a traced run runs every input twice
    assert result["attempted"] % (VerifyStream.SIZES["smoke"]["round"] * per_input) == 0


def test_verify_round_repeats_the_same_plans_over_every_base():
    workload = VerifyStream(3, "smoke")
    workload.setup()
    first = [workload._change(i) for i in range(workload.round_ops)]
    second = [workload._change(i + workload.round_ops) for i in range(workload.round_ops)]
    assert first == second
    assert {base for base, _ in first} == set(range(len(workload.bases)))


@pytest.mark.parametrize("cls", [Presim, VerifyStream, KFailureSweep])
def test_same_seed_gives_same_inputs(cls):
    fingerprints = []
    for _ in range(2):
        workload = cls(5, "smoke")
        workload.setup()
        fingerprints.append(workload.inputs())
    assert fingerprints[0] == fingerprints[1]


def test_presim_checks_reject_a_dropped_flow_volume():
    workload = Presim(1, "smoke")
    workload.setup()
    workload.before_op(0)
    world = workload.op(0)
    model, _, day_flows = workload.day
    records = _flow_records(day_flows, world.traffic)
    links = [link.endpoints for link in model.topology.links]
    loads = world.traffic.loads.loads
    assert not checks.check_flow_shares(records)
    assert not checks.check_link_loads(records, loads)
    assert not checks.check_flow_conservation(records, links)

    # Drop the first path of the first flow that has a multi-hop path.
    index = next(i for i, (_, _, paths) in enumerate(records) if len(paths[0][0]) > 1)
    corrupted = copy.deepcopy(records)
    corrupted[index] = (corrupted[index][0], corrupted[index][1], corrupted[index][2][1:])
    assert checks.check_flow_shares(corrupted)
    assert checks.check_link_loads(corrupted, loads)
    assert checks.check_flow_conservation(corrupted, links)


def test_verify_check_rejects_a_flipped_verdict():
    workload = VerifyStream(1, "smoke")
    workload.setup()
    _, change = workload._change(0)
    report = workload.op(0)
    problems, _, _ = workload.check_op(0, report)
    assert not problems
    flipped = [(change.plan.name, change.expect_risk, report.ok)]
    assert checks.check_verdicts(flipped)


def test_kfailure_checks_reject_a_wrong_scenario_count():
    workload = KFailureSweep(1, "smoke")
    workload.setup()
    output = workload.op(0)
    problems, decided, _ = workload.check_op(0, output)
    assert not problems
    n = len(workload.bases[0].links)
    assert decided == checks.closed_form_scenarios(n)
    assert not workload.check_final()

    result, _ = output
    args = (result.scenarios_checked, result.scenarios_simulated, result.scenarios_pruned)
    assert checks.check_sweep_counts(n, args[0] + 1, *args[1:], 1.0)
    assert checks.check_sweep_counts(n, args[0], args[1] + 1, args[2], 1.0)
    assert checks.check_sweep_counts(n, *args, 0.5)


def test_kfailure_check_rejects_an_unreported_disconnect():
    links = [("a", "b"), ("b", "c"), ("b", "c")]
    # Failing both parallel b-c links cuts c off from the origin a.
    lost = checks.disconnected_devices(links, [1, 2], ["c"], ["a"])
    assert lost == {"c"}
    assert not checks.disconnected_devices(links, [1], ["c"], ["a"])
    expected = {(("b", "c"), ("b", "c")): (1, lost)}
    reported = {(("b", "c"), ("b", "c")): [["c lost 10.0.0.0/24"]]}
    assert not checks.check_disconnects_reported(expected, reported, "10.0.0.0/24")
    assert checks.check_disconnects_reported(expected, {}, "10.0.0.0/24")
    assert checks.check_disconnects_reported(
        expected, {(("b", "c"), ("b", "c")): [["d lost 10.0.0.0/24"]]}, "10.0.0.0/24"
    )


def test_benchmark_json_lists_the_reported_metrics():
    from perfbench.run import ROOT, WORKLOAD_NAMES

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOAD_NAMES)
    assert sorted(WORKLOADS) == sorted(WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == per_layer_spec()
