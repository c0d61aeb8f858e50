"""Self-test of the span recorder: its wraps see every call they must.

Run from the repository root with

    python -m pytest -q perfbench/tests
"""

import dataclasses

import pytest

import bench
import schubert_galois as sg
import tracer


def traced_run(workload):
    """The acceptance instance (seed 7) taken to its verdict, traced."""
    problem, d, instance = bench.setup(workload)
    recorder = tracer.Recorder()
    outcome = bench.run_instance(d, instance, verdict=True, recorder=recorder)
    assert outcome.issues == []
    return problem, d, recorder.spans


@pytest.fixture(scope="module")
def g25_twice():
    return [traced_run("galois-g25") for _ in range(2)]


def test_every_leg_tracks_d_starts_and_every_node_is_seen(g25_twice):
    problem, d, spans = g25_twice[0]
    assert tracer.check_spans(spans, problem, d) == []
    metrics = tracer.layer_metrics(spans)
    assert metrics["pieri.nodes"][0] == 9
    assert metrics["pieri.paths"][0] == tracer.expected_first_pass(problem)[1]
    assert metrics["monodromy.leg_attempt_ratio"][0] >= 1


def test_dual_workload_passes_the_same_checks():
    problem, d, spans = traced_run("galois-g35")
    assert tracer.check_spans(spans, problem, d) == []


def test_counts_repeat_exactly_for_one_seed(g25_twice):
    first, second = (tracer.layer_metrics(spans) for _, _, spans in g25_twice)
    counts = {n for n, (_, unit) in first.items() if unit not in ("s", "us")}
    assert counts
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


@pytest.mark.parametrize("hidden_under", ["pieri.solve_master",
                                          "monodromy.monodromy_permutation"])
def test_checks_catch_a_missed_binding(g25_twice, hidden_under):
    """Dropping the track_all spans under one caller, as a recorder that
    patched only tracker.track_all would, must fail the checks."""
    problem, d, spans = g25_twice[0]
    kids = tracer._children(spans)
    hidden = {j for i, s in enumerate(spans) if s.name == hidden_under
              for j in tracer._descendants(kids, i) if spans[j].name == "tracker.track_all"}
    blinded = [dataclasses.replace(s, name="unseen") if i in hidden else s
               for i, s in enumerate(spans)]
    assert hidden and tracer.check_spans(blinded, problem, d)


def test_recursion_node_count_of_g36():
    nodes, _ = tracer.expected_first_pass(sg.SimpleSchubertProblem(3, 6, (), ()))
    assert nodes == 19


def test_bindings_are_restored():
    owners = (sg, sg.linalg, sg.tracker, sg.pieri, sg.monodromy, sg.schubert.StackedSystem)
    before = [dict(vars(o)) for o in owners]
    with tracer.Recorder().installed():
        assert hasattr(sg.monodromy.track_all, "__wrapped__")
        assert hasattr(sg.pieri.track_all, "__wrapped__")
    for owner, old in zip(owners, before):
        assert all(vars(owner)[k] is v for k, v in old.items())


def test_paired_run_gives_both_sides_checked_times():
    import reference

    sides = [bench.Side.of(pkg, "galois-g25") for pkg in (sg, reference)]
    pair = bench.run_pair(sides, [s.drawn(7, 0) for s in sides], verdict=False)
    assert [o.issues for o in pair] == [[], []]
    assert all(o.solve_s > 0 for o in pair)


def test_run_together_returns_each_exception():
    def boom():
        raise ValueError("boom")

    assert [type(r) for r in bench.run_together([boom, lambda: 1])] == [ValueError, int]
