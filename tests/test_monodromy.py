"""Loops in the space of the last plane and the permutations they induce.

The pinned G(2,4) instance with its pinned third plane is the anchor:
its short loop provably swaps the two solutions.  Structural checks
(leg chaining, degenerate strategies, reversal, constant loops) run on
top of that same instance.
"""

import numpy as np
import pytest

from schubert_galois import linalg
from schubert_galois.groups import compose, identity
from schubert_galois.monodromy import (
    MatchAmbiguityError,
    NotBijectiveError,
    _match_endpoints,
    accumulate,
    loop_stream,
    make_loop,
    monodromy_permutation,
)
from schubert_galois.pieri import MasterSet, solve_master
from schubert_galois.rng import Lcg64
from schubert_galois.schubert import SimpleSchubertProblem, random_instance
from schubert_galois.tracker import LinearHomotopy


class TestLoopStream:
    def test_loop_stream_is_the_second_child(self):
        root = Lcg64(42)
        root.next_u64()
        expected = root.spawn()
        got = loop_stream(42)
        assert got.state == expected.state

    def test_distinct_from_the_solver_stream(self):
        solver = Lcg64(42).spawn()
        loops = loop_stream(42)
        assert solver.state != loops.state


class TestMakeLoop:
    def test_leg_counts_by_strategy(self):
        problem = SimpleSchubertProblem(2, 5, (), ())  # q = 3
        instance = random_instance(problem, 1)
        gen = Lcg64(2)
        assert len(make_loop(instance, "long", gen).legs) == 6
        assert len(make_loop(instance, "short", gen).legs) == 4
        assert len(make_loop(instance, "half", gen).legs) == 2

    def test_legs_chain_and_close(self):
        problem = SimpleSchubertProblem(2, 5, (), ())
        instance = random_instance(problem, 1)
        for strategy in ("long", "short", "half"):
            loop = make_loop(instance, strategy, Lcg64(3))
            legs = loop.legs
            assert np.array_equal(legs[0].start_plane, instance.planes[-1])
            assert np.array_equal(legs[-1].target_plane, instance.planes[-1])
            for a, b in zip(legs, legs[1:]):
                assert np.array_equal(a.target_plane, b.start_plane)

    def test_each_leg_moves_one_row(self):
        problem = SimpleSchubertProblem(2, 5, (), ())
        instance = random_instance(problem, 1)
        loop = make_loop(instance, "long", Lcg64(4))
        for leg in loop.legs:
            changed = [
                r for r in range(3)
                if not np.array_equal(leg.start_plane[r], leg.target_plane[r])
            ]
            assert len(changed) == 1

    def test_short_loop_touches_the_first_two_rows(self):
        problem = SimpleSchubertProblem(2, 5, (), ())
        instance = random_instance(problem, 1)
        loop = make_loop(instance, "short", Lcg64(5))
        base, fresh = loop.base_plane, loop.fresh_plane
        v1 = loop.legs[0].target_plane
        v2 = loop.legs[1].target_plane
        assert np.array_equal(v1[0], fresh[0]) and np.array_equal(v1[1], base[1])
        assert np.array_equal(v2[0], fresh[0]) and np.array_equal(v2[1], fresh[1])
        assert np.array_equal(v2[2], base[2])

    def test_gamma_only_twists_half_loop_returns(self):
        problem = SimpleSchubertProblem(2, 5, (), ())
        instance = random_instance(problem, 1)
        for strategy in ("long", "short"):
            loop = make_loop(instance, strategy, Lcg64(6))
            assert all(leg.gamma == 1.0 for leg in loop.legs)
        half = make_loop(instance, "half", Lcg64(6))
        assert half.legs[0].gamma == 1.0
        assert half.legs[1].gamma != 1.0
        assert abs(abs(half.legs[1].gamma) - 1.0) < 1e-12

    def test_single_row_planes_degenerate_to_half(self):
        problem = SimpleSchubertProblem(1, 2, (), ())  # q = 1
        instance = random_instance(problem, 7)
        for strategy in ("long", "short", "half"):
            loop = make_loop(instance, strategy, Lcg64(8))
            assert len(loop.legs) == 2
            assert loop.legs[1].gamma != 1.0

    def test_each_distinct_plane_gets_one_kernel(self, monkeypatch):
        problem = SimpleSchubertProblem(2, 5, (), ())  # m = 6 planes, q = 3
        instance = random_instance(problem, 1)
        calls = []
        kernel_basis = linalg.kernel_basis
        monkeypatch.setattr(linalg, "kernel_basis",
                            lambda g: calls.append(g) or kernel_basis(g))
        # the short loop's 4 legs share the 5 fixed planes and visit the
        # base plane and 3 other vertices
        kernels = {}
        loop = make_loop(instance, "short", Lcg64(5), kernels=kernels)
        assert len(loop.legs) == 4
        assert len(calls) == len(kernels) == 5 + 4
        # a second loop over the same instance adds only its 3 vertices
        make_loop(instance, "short", Lcg64(6), kernels=kernels)
        assert len(calls) == 5 + 4 + 3

    def test_rejects_unknown_strategy_and_fixed_problems(self):
        problem = SimpleSchubertProblem(2, 5, (), ())
        instance = random_instance(problem, 1)
        with pytest.raises(ValueError):
            make_loop(instance, "diagonal", Lcg64(9))
        point = SimpleSchubertProblem(2, 4, (2, 1), (1,))
        point_instance = random_instance(point, 1)
        with pytest.raises(ValueError):
            make_loop(point_instance, "short", Lcg64(9))


class TestMatching:
    def test_far_endpoint_is_ambiguous(self):
        master = [np.array([0.0 + 0j]), np.array([1.0 + 0j])]
        with pytest.raises(MatchAmbiguityError):
            _match_endpoints([np.array([0.5 + 0j])], master)

    def test_near_tie_is_ambiguous(self):
        master = [np.array([0.0 + 0j]), np.array([1e-8 + 0j])]
        with pytest.raises(MatchAmbiguityError):
            _match_endpoints([np.array([5e-9 + 0j])], master)

    def test_duplicate_images_are_rejected(self):
        master = [np.array([0.0 + 0j]), np.array([1.0 + 0j])]
        endpoints = [np.array([1e-9 + 0j]), np.array([0.0 + 1e-9j])]
        with pytest.raises(NotBijectiveError):
            _match_endpoints(endpoints, master)

    def test_clean_matching(self):
        master = [np.array([0.0 + 0j]), np.array([1.0 + 0j])]
        perm = _match_endpoints([master[1], master[0]], master)
        assert list(perm) == [1, 0]


class TestMonodromyPermutation:
    def test_pinned_short_loop_swaps_the_solutions(
        self, pinned_instance, pinned_master, pinned_fresh_plane
    ):
        loop = make_loop(pinned_instance, "short", Lcg64(0),
                         fresh_plane=pinned_fresh_plane)
        perm, traces = monodromy_permutation(pinned_master, loop)
        assert list(perm) == [1, 0]
        assert traces is None

    def test_constant_loop_is_the_identity(self, pinned_instance, pinned_master):
        loop = make_loop(pinned_instance, "short", Lcg64(1),
                         fresh_plane=pinned_instance.planes[-1])
        perm, _ = monodromy_permutation(pinned_master, loop)
        assert np.array_equal(perm, identity(2))

    def test_reversed_loop_inverts_the_permutation(
        self, pinned_instance, pinned_master, pinned_fresh_plane
    ):
        loop = make_loop(pinned_instance, "short", Lcg64(2),
                         fresh_plane=pinned_fresh_plane)
        back_legs = [
            LinearHomotopy(leg.chart, leg.fixed_planes, leg.target_plane,
                           leg.start_plane, leg.gamma.conjugate())
            for leg in reversed(loop.legs)
        ]
        back = type(loop)("short", back_legs, loop.base_plane, loop.fresh_plane)
        fwd_perm, _ = monodromy_permutation(pinned_master, loop)
        back_perm, _ = monodromy_permutation(pinned_master, back)
        assert np.array_equal(compose(back_perm, fwd_perm), identity(2))

    def test_traces_cover_every_path_and_leg(
        self, pinned_instance, pinned_master, pinned_fresh_plane
    ):
        loop = make_loop(pinned_instance, "short", Lcg64(3),
                         fresh_plane=pinned_fresh_plane)
        _, traces = monodromy_permutation(pinned_master, loop, record_trace=True)
        assert len(traces) == 2
        for path in traces:
            assert [leg for leg, _ in path] == [0, 1, 2, 3]
            for _, steps in path:
                ts = [t for t, _ in steps]
                assert ts[0] == 0.0 and ts[-1] == 1.0
                assert ts == sorted(ts)


class TestAccumulate:
    def test_pinned_instance_reaches_full_symmetric(self, pinned_master):
        result = accumulate(pinned_master)
        assert result.full_symmetric
        assert result.status == "FullSymmetric"
        assert 1 <= len(result.permutations) <= 15
        assert len(result.loops) == len(result.permutations)
        assert result.group.d == 2

    def test_accumulate_is_reproducible(self, pinned_master):
        a = accumulate(pinned_master)
        b = accumulate(pinned_master)
        assert len(a.permutations) == len(b.permutations)
        for pa, pb in zip(a.permutations, b.permutations):
            assert np.array_equal(pa, pb)
        assert a.group.reason == b.group.reason

    def test_zero_loop_budget_is_inconclusive(self, pinned_master):
        result = accumulate(pinned_master, max_loops=0)
        assert result.status == "Inconclusive"
        assert result.permutations == []

    def test_corrupted_master_is_rejected(self, pinned_master):
        bad = MasterSet(
            pinned_master.instance,
            [pinned_master.solutions[0]],
            pinned_master.residual_max,
        )
        with pytest.raises(ValueError):
            accumulate(bad)

    def test_single_solution_is_trivially_full(self):
        problem = SimpleSchubertProblem(1, 2, (), ())
        master = solve_master(random_instance(problem, 5))
        assert len(master.solutions) == 1
        result = accumulate(master)
        assert result.full_symmetric
        assert result.permutations == []

    def test_first_trace_recorded_on_request(self, pinned_master):
        result = accumulate(pinned_master, record_first_trace=True)
        assert result.first_trace is not None
        assert len(result.first_trace) == 2
        plain = accumulate(pinned_master)
        assert plain.first_trace is None
