"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench

The checkers must reject tampered outputs, failed ops must be charged the
penalty, self times must add up to the traced wall time, golden digests must
be checked op by op, and a tiny run of every workload must print every
metric that BENCHMARK.json names.
"""

from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import checks
import harness
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

PATH4 = workloads.Graph(4, ((0, 1), (1, 2), (2, 3)))
STAR = workloads.Graph(5, ((0, 1), (0, 2), (0, 3), (0, 4)))


def result(text, code=0, extra=None):
    return harness.OpResult("op", "ok", 0.0, code, text, extra or {})


def rejects(check, res) -> bool:
    try:
        check(res)
    except checks.CheckFailed:
        return True
    return False


def test_cutwidth_checker_rejects_a_swapped_order():
    check = checks.cutwidth_checker(PATH4, "exact")
    good = "width,1\nkind,exact\norder,0 1 2 3\nprofile,0 1 1 1\n"
    assert not rejects(check, result(good))
    assert rejects(check, result(good.replace("order,0 1 2 3", "order,1 0 2 3")))
    assert rejects(check, result(good.replace("kind,exact", "kind,upper_bound")))


def test_cheeger_checker_rejects_a_wrong_fraction():
    check = checks.cheeger_checker(STAR)
    good = "value,1/2\nwitness,1 2\n"
    assert not rejects(check, result(good))
    assert rejects(check, result("value,1/3\nwitness,1 2\n"))
    assert rejects(check, result("value,1/2\nwitness,0 1 2\n"))  # more than n/2 vertices


def test_translate_checker_rejects_a_bad_count():
    roots = [(0, 0), (0, 1), (1, 0), (1, 1)]
    check = checks.translate_checker(2, 2, 1, roots)
    v = (0, 0)
    count = sum(1 for m in roots if sum(1 for x, d in zip(m, v) if (x - d + 1) % 2 == 0) >= 1)
    good = f"v,0 0\ncount,{count}\nbound,4\n"
    assert not rejects(check, result(good))
    assert rejects(check, result(f"v,0 0\ncount,{count - 1}\nbound,4\n"))
    assert rejects(check, result(f"v,0 0\ncount,{count}\nbound,5\n"))


def test_cut_and_extract_checkers_recompute_from_the_output():
    cut = checks.cut_checker(STAR)
    assert not rejects(cut, result("cut,1\nseparator,0\nmax_component,1\n"))
    assert rejects(cut, result("cut,1\nseparator,1\nmax_component,1\n"))
    extract = checks.extract_checker(workloads.Graph(3, ((0, 1), (1, 2), (0, 2))), "1")
    assert not rejects(extract, result("success,true\ncheeger,2\nvertices,0 1 2\n"))
    assert rejects(extract, result("success,true\ncheeger,3\nvertices,0 1 2\n"))


def test_pinned_strata_are_those_of_their_distributions():
    assert workloads.FULL["construct"]["fvectors"] == workloads.recipe_fvectors(8, 40, 40000)
    (big, big_targets), (small, small_targets) = workloads.FULL["profile"]["random"]
    assert big_targets == workloads.host_strata(*big, len(big_targets), 1000)
    assert small_targets == workloads.host_strata(*small, len(small_targets), 2000)


def test_recipe_draws_conditioned_on_an_f_vector_have_it():
    rng = random.Random(5)
    for fvector in workloads.FULL["construct"]["fvectors"]:
        cx = workloads.recipe_with_fvector(rng, fvector)
        assert (cx.n, len(cx.edges), len(cx.triangles)) == fvector
        assert checks.max_degree(cx.n, cx.edges) <= 6


def test_hosts_drawn_in_a_stratum_are_in_it():
    rng = random.Random(5)
    for (n, m, rmax), targets in workloads.FULL["profile"]["random"]:
        for target in targets[:: len(targets) - 1]:
            g = workloads.host_in_stratum(rng, n, m, rmax, target)
            assert len(g.edges) == m
            assert abs(workloads.connected_sets(g, rmax) - target) <= target // 50


class _Refusal(ValueError):
    pass


def _fake_package(main):
    return SimpleNamespace(cli=SimpleNamespace(main=main), SizeLimitError=_Refusal)


def test_timed_out_and_refused_ops_are_charged_the_penalty(tmp_path):
    budget = 0.05
    slow = harness.run_op(
        workloads.Op("slow", None, argv=[]), _fake_package(lambda argv: time.sleep(5)), budget, str(tmp_path / "o")
    )
    refused = harness.run_op(workloads.Op("big", None, argv=[]), _fake_package(lambda argv: 2), budget, str(tmp_path / "o"))
    assert slow.status == "timed_out" and slow.seconds < 1.0
    assert refused.status == "refused"
    for r in (slow, refused):
        assert harness.charged(r, budget) >= 2 * budget + r.seconds
    e2e = harness.end_to_end([[slow, refused]], budget)
    assert e2e["classes"]["timed_out"] == 1 and e2e["classes"]["refused"] == 1
    assert e2e["par2_s"] >= 4 * budget


def test_a_wrong_output_is_a_failed_op(tmp_path):
    def main(argv):
        Path(argv[-1]).write_text("width,9\nkind,exact\norder,0 1 2 3\nprofile,0 1 1 1\n")
        return 0

    op = workloads.Op("cw", checks.cutwidth_checker(PATH4, "exact"), argv=["cutwidth"])
    (res,) = harness.run_round([op], _fake_package(main), 1.0, tmp_path)
    assert res.status == "wrong"


def test_self_times_account_for_the_traced_wall_time():
    def span(i, name, parent, start, end, leaf=None):
        s = tracing.Span(i, name, parent, "op")
        s.start, s.end, s.leaf = start, end, leaf
        return s

    spans = [
        span(1, "bench.op", None, 0.0, 10.0),
        span(2, "cli.main", 1, 0.5, 9.5),
        span(3, "a", 2, 1.0, 4.0, {"leaf": [3, 1.0]}),
        span(4, "b", 2, 3.0, 6.0),  # overlaps a, as pool threads do
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(1.0)
    assert selfs[2] == pytest.approx(9.0 - 5.0)
    assert selfs[3] == pytest.approx(2.0)
    metrics = tracing.layer_metrics(spans)
    assert metrics["leaf.calls"] == 3 and metrics["leaf.self_s"] == pytest.approx(1.0)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_a_tiny_run_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    line = json.loads(lines[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    wanted = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in line["metrics"].items()}
    report = "\n".join(lines[:-1])
    for name in ("setup_s", "par2_s", "op_p50_ms", "op_p90_ms", "fail_rate", "peak_rss_mb"):
        assert name in report


def test_a_refused_required_op_is_a_failure_but_a_refused_optional_op_is_not(tmp_path):
    refuse = _fake_package(lambda argv: 2)
    must = harness.run_op(workloads.Op("small", None, argv=[]), refuse, 1.0, str(tmp_path / "o"))
    may = harness.run_op(workloads.Op("big", None, argv=[], required=False), refuse, 1.0, str(tmp_path / "o"))
    assert must.status == may.status == "refused"
    assert must.unexpected and not may.unexpected


def test_a_round_runs_groups_together_and_reports_in_list_order(tmp_path):
    ops = [workloads.Op(f"{g}.{k}", lambda r: None, call=lambda topo: "x", group=g) for g in "abcdef" for k in range(3)]
    ops.append(workloads.Op("alone", lambda r: None, call=lambda topo: "y"))
    order = harness.round_order(ops, random.Random(1))
    assert sorted(order) == list(range(len(ops))) and order != sorted(order)
    for g in "abcdef":
        at = [order.index(i) for i, op in enumerate(ops) if op.group == g]
        assert at == list(range(at[0], at[0] + 3))
    results = harness.run_round(ops, _fake_package(None), 5.0, tmp_path, order=order)
    assert [r.op for r in results] == [op.id for op in ops]
    for r in results:
        assert r.speed > 0 and r.scaled == pytest.approx(r.seconds * r.speed)


def test_outputs_that_change_between_rounds_are_wrong():
    first = [harness.OpResult("a", "ok", 0.1, 0, digest="1"), harness.OpResult("b", "ok", 0.1, 0, digest="2")]
    second = [harness.OpResult("a", "ok", 0.1, 0, digest="1"), harness.OpResult("b", "ok", 0.1, 0, digest="3")]
    harness.mark_unstable([first, second])
    assert [r.status for r in second] == ["ok", "wrong"]


def test_golden_digests_are_checked_per_op(tmp_path, monkeypatch):
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps({"reach": {"7": {"a": "0" * 16, "b": "1" * 16}}}))
    monkeypatch.setattr(run, "GOLDEN", golden)

    def rnd(b_status, b_digest="1" * 64):
        return [
            harness.OpResult("a", "ok", 0.1, 0, digest="0" * 64),
            harness.OpResult("b", b_status, 0.1, 0, digest=b_digest, required=False),
        ]

    assert run.golden_status("reach", 7, [rnd("ok")])[0]
    assert not run.golden_status("reach", 7, [rnd("ok", "f" * 64)])[0]
    # an op recorded as completed that now fails to complete fails the
    # check, even an op whose refusal alone would not count as a failure
    for status in ("refused", "timed_out", "raised"):
        ok, text = run.golden_status("reach", 7, [rnd("ok"), rnd(status)])
        assert not ok and "b did not complete" in text
    assert run.golden_status("reach", 8, [rnd("refused")])[0]


def test_connected_sets_counts_every_connected_vertex_set_once():
    rng = random.Random(2)
    for n, m, rmax in ((8, 10, 4), (9, 12, 9), (12, 18, 5)):
        g = workloads.random_graph(rng, n, m)
        adj = checks.adjacency(g.n, g.edges)
        brute = sum(
            1
            for r in range(1, rmax + 1)
            for subset in itertools.combinations(range(n), r)
            if len(checks.component_sizes(subset, adj)) == 1
        )
        assert workloads.connected_sets(g, rmax) == brute
