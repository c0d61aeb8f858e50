"""Partitions, charts, counts and the determinant system.

Chart layouts are pinned by hand for small cases; counts are checked
against the skew-tableaux determinant formula, an entirely different
computation from the package's cover recursion.
"""

import numpy as np
import pytest

import oracles
from schubert_galois import linalg, solve_master
from schubert_galois.rng import Lcg64
from schubert_galois.schubert import (
    EmptyProblemError,
    IncompatibleConditionsError,
    ProblemInstance,
    SimpleSchubertProblem,
    StackedSystem,
    box_partition,
    chart,
    children,
    count_solutions,
    is_dual_pair,
    normalize_partition,
    random_instance,
    special_plane,
)


def random_coords(gen, num):
    return np.array([gen.complex_entry() for _ in range(num)])


def stacked_cofactor(a, r, c):
    """Signed (r, c) minor of a square matrix, the slow way."""
    minor = np.delete(np.delete(a, r, axis=0), c, axis=1)
    return (-1) ** (r + c) * np.linalg.det(minor)


class TestPartitions:
    def test_normalize_pads_to_length_k(self):
        assert normalize_partition((2, 1), 4, 3) == (2, 1, 0, 0)
        assert normalize_partition((), 3, 2) == (0, 0, 0)

    def test_normalize_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            normalize_partition((1, 2), 3, 4)  # increasing
        with pytest.raises(ValueError):
            normalize_partition((1, 1, 1), 2, 4)  # too many parts
        with pytest.raises(ValueError):
            normalize_partition((-1,), 2, 4)
        with pytest.raises(ValueError):
            normalize_partition((5,), 2, 4)  # exceeds box width

    def test_box_partition(self):
        assert box_partition(1) == (1,)
        assert box_partition(3) == (1, 0, 0)

    def test_children_grow_one_part(self):
        assert children((1, 0), 2) == [(2, 0), (1, 1)]
        assert children((2, 2), 2) == []
        assert children((2, 1), 3) == [(3, 1), (2, 2)]

    def test_dual_pairs(self):
        assert is_dual_pair((2, 1), (1, 0), 2)
        assert not is_dual_pair((2, 1), (1, 1), 2)


class TestProblem:
    def test_basic_quantities(self):
        p = SimpleSchubertProblem(2, 5, (1,), (2, 1))
        assert p.q == 3
        assert p.lam == (1, 0)
        assert p.mu == (2, 1)
        assert p.num_moving == 6 - 1 - 3 == 2

    def test_with_mu_swaps_the_second_condition(self):
        p = SimpleSchubertProblem(2, 5, (1,), ())
        assert p.with_mu((2, 2)).mu == (2, 2)
        assert p.mu == (0, 0)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            SimpleSchubertProblem(0, 4, (), ())
        with pytest.raises(ValueError):
            SimpleSchubertProblem(4, 4, (), ())

    def test_rejects_overfull_conditions(self):
        with pytest.raises(ValueError):
            SimpleSchubertProblem(2, 4, (2, 2), (1,))


class TestChart:
    def test_two_plane_chart_layout(self):
        # [[1, x0, 0, 0], [0, 0, 1, x1]]
        ch = chart(SimpleSchubertProblem(2, 4, (1,), (1,)))
        assert ch.one_cols == (0, 2)
        assert ch.rightmost_cols == (1, 3)
        assert ch.var_cells == ((0, 1), (1, 3))
        assert ch.num_vars == 2

    def test_all_simple_chart_layout(self):
        ch = chart(SimpleSchubertProblem(2, 4, (), ()))
        assert ch.one_cols == (0, 1)
        assert ch.rightmost_cols == (2, 3)
        assert ch.var_cells == ((0, 1), (0, 2), (1, 2), (1, 3))

    def test_named_conditions_chart_layout(self):
        ch = chart(SimpleSchubertProblem(3, 7, (2, 1), (2, 1)))
        assert ch.one_cols == (0, 2, 4)
        assert ch.rightmost_cols == (2, 4, 6)
        assert ch.var_cells == ((0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6))

    def test_cell_kinds_and_var_index(self):
        ch = chart(SimpleSchubertProblem(2, 4, (1,), (1,)))
        assert ch.cell_kind(0, 0) == "one"
        assert ch.cell_kind(0, 1) == "var"
        assert ch.cell_kind(0, 2) == "zero"
        assert ch.var_index(1, 3) == 1

    def test_instantiate_and_rightmost(self):
        ch = chart(SimpleSchubertProblem(2, 4, (1,), (1,)))
        e = ch.instantiate([2j, 3.0])
        expected = np.array([[1, 2j, 0, 0], [0, 0, 1, 3.0]], dtype=complex)
        assert np.array_equal(e, expected)
        assert np.array_equal(ch.rightmost_values([2j, 3.0]), [2j, 3.0])
        with pytest.raises(ValueError):
            ch.instantiate([1.0])

    def test_chart_dimension_equals_moving_conditions(self):
        for k, n, lam, mu in [
            (2, 6, (2,), (1, 1)),
            (3, 6, (1, 1), ()),
            (3, 8, (3, 2, 1), (2,)),
            (4, 8, (2, 1), (1,)),
        ]:
            p = SimpleSchubertProblem(k, n, lam, mu)
            assert chart(p).num_vars == p.num_moving

    def test_empty_zero_dimensional_problem(self):
        with pytest.raises(EmptyProblemError):
            chart(SimpleSchubertProblem(2, 4, (2,), (1, 1)))

    def test_dual_zero_dimensional_problem_is_a_point(self):
        ch = chart(SimpleSchubertProblem(2, 4, (2, 1), (1,)))
        assert ch.num_vars == 0

    def test_incompatible_overlapping_conditions(self):
        with pytest.raises(IncompatibleConditionsError):
            chart(SimpleSchubertProblem(2, 5, (3,), (1, 1)))


class TestCounts:
    def test_pinned_small_counts(self):
        assert count_solutions(SimpleSchubertProblem(2, 4, (), ())) == 2
        assert count_solutions(SimpleSchubertProblem(2, 5, (), ())) == 5
        assert count_solutions(SimpleSchubertProblem(2, 6, (), ())) == 14
        assert count_solutions(SimpleSchubertProblem(3, 6, (), ())) == 42

    def test_named_condition_counts(self):
        assert count_solutions(SimpleSchubertProblem(2, 5, (2,), (1,))) == 3
        assert count_solutions(SimpleSchubertProblem(4, 8, (2, 1), (1,))) == 8580
        assert count_solutions(SimpleSchubertProblem(3, 9, (2, 1), (2,))) == 17589

    def test_incompatible_conditions_count_zero(self):
        assert count_solutions(SimpleSchubertProblem(2, 5, (3,), (1, 1))) == 0

    def test_counts_match_tableaux_formula(self):
        for k, n in [(2, 5), (2, 7), (3, 6), (3, 7), (4, 7)]:
            q = n - k
            shapes = [(), (1,), (2,), (1, 1), (2, 1), (q,), (2, 2)]
            for lam in shapes:
                for mu in shapes:
                    if sum(lam) + sum(mu) > k * q:
                        continue
                    got = count_solutions(SimpleSchubertProblem(k, n, lam, mu))
                    want = oracles.count_via_tableaux(k, n, lam, mu)
                    assert got == want, (k, n, lam, mu)

    def test_point_problems_count_one(self):
        assert count_solutions(SimpleSchubertProblem(2, 4, (2, 1), (1,))) == 1
        assert count_solutions(SimpleSchubertProblem(3, 6, (3, 2, 1), (2, 1))) == 1


class TestSpecialPlane:
    def test_rows_are_signed_unit_vectors(self):
        g = special_plane(2, 5, (1, 0))
        assert g.shape == (3, 5)
        for row in g:
            assert np.sum(np.abs(row) > 0) == 1
            assert abs(np.abs(row).max() - 1.0) < 1e-15

    def test_determinant_equals_rightmost_product(self):
        # the degenerate plane is scaled so the determinant picks out
        # exactly the product of each row's rightmost chart entry
        gen = Lcg64(21)
        cases = [
            (2, 4, (1,), (1, 0)),
            (2, 5, (), (2, 1)),
            (3, 6, (1,), (1, 1, 0)),
            (3, 7, (2, 1), (2, 1, 1)),
        ]
        for k, n, lam, mu in cases:
            p = SimpleSchubertProblem(k, n, lam, mu)
            ch = chart(p.with_mu(mu))
            g = special_plane(k, n, mu)
            for _ in range(3):
                x = random_coords(gen, ch.num_vars)
                stacked = np.vstack([ch.instantiate(x), g])
                product = np.prod(ch.rightmost_values(x))
                assert abs(linalg.batched_det(stacked) - product) < 1e-12 * max(
                    1.0, abs(product)
                )


class TestStackedSystem:
    def test_values_match_plain_determinants(self):
        gen = Lcg64(31)
        p = SimpleSchubertProblem(2, 5, (1,), ())
        ch = chart(p)
        planes = [gen.complex_matrix(3, 5) for _ in range(p.num_moving)]
        system = StackedSystem(ch, planes)
        x = random_coords(gen, ch.num_vars)
        [vals] = system.values_many(x[None])
        e = ch.instantiate(x)
        for j, g in enumerate(planes):
            assert abs(vals[j] - linalg.batched_det(np.vstack([e, g]))) < 1e-10

    def test_jacobian_matches_finite_differences(self):
        gen = Lcg64(32)
        p = SimpleSchubertProblem(3, 6, (1,), (1,))
        ch = chart(p)
        planes = [gen.complex_matrix(3, 6) for _ in range(p.num_moving)]
        x = random_coords(gen, ch.num_vars)
        sys_ = StackedSystem(ch, planes)
        [vals], [jac] = sys_.values_and_jacobian_many(x[None])
        h = 1e-6
        for v in range(ch.num_vars):
            xp, xm = x.copy(), x.copy()
            xp[v] += h
            xm[v] -= h
            fd = (sys_.values_many(xp[None]) - sys_.values_many(xm[None]))[0] / (2 * h)
            scale = np.maximum(1.0, np.abs(fd))
            assert np.max(np.abs(jac[:, v] - fd) / scale) < 1e-6

    def test_batched_evaluation_matches_scalar(self):
        gen = Lcg64(33)
        p = SimpleSchubertProblem(2, 6, (), ())
        ch = chart(p)
        planes = [gen.complex_matrix(4, 6) for _ in range(p.num_moving)]
        system = StackedSystem(ch, planes)
        xs = np.array([random_coords(gen, ch.num_vars) for _ in range(5)])
        vals, jac = system.values_and_jacobian_many(xs)
        assert np.array_equal(system.values_many(xs), vals)
        for i in range(5):
            [v1], [j1] = system.values_and_jacobian_many(xs[i : i + 1])
            assert np.allclose(vals[i], v1, rtol=1e-13, atol=0)
            assert np.allclose(jac[i], j1, rtol=1e-13, atol=0)


class TestSmallDeterminants:
    """The k x k evaluation against the n x n determinants it replaces."""

    # one problem per k with a small master set; the named conditions
    # leave some chart rows without variables
    CASES = [
        (1, 3, (), ()),
        (2, 4, (1,), (1,)),
        (3, 5, (2,), (1,)),
        (4, 6, (2, 1), (1, 1)),
        (5, 7, (2, 2), (2, 1)),
    ]

    @pytest.mark.parametrize("k,n,lam,mu", CASES)
    def test_values_and_jacobian_match_stacked_determinants(self, k, n, lam, mu):
        p = SimpleSchubertProblem(k, n, lam, mu)
        ch = chart(p)
        instance = random_instance(p, 40 + k)
        master = solve_master(instance)
        assert len(master.solutions) == count_solutions(p)
        system = StackedSystem(ch, instance.planes)
        gen = Lcg64(50 + k)
        # at master solutions every k x k matrix is singular
        points = list(master.solutions) + [random_coords(gen, ch.num_vars) for _ in range(3)]
        for x in points:
            [vals], [jac] = system.values_and_jacobian_many(x[None])
            e = ch.instantiate(x)
            for j, g in enumerate(instance.planes):
                stacked = np.vstack([e, g])
                want = [stacked_cofactor(stacked, r, c) for r, c in ch.var_cells]
                scale = max(1.0, float(np.max(np.abs(want))))
                assert abs(vals[j] - np.linalg.det(stacked)) < 1e-12 * scale
                assert np.max(np.abs(jac[j] - want)) < 1e-12 * scale

    # k = 5 takes LAPACK's determinants, k <= 4 linalg's Leibniz kernel
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_batched_rows_are_bit_identical_to_single_points(self, k):
        gen = Lcg64(60 + k)
        p = SimpleSchubertProblem(k, k + 2, (), ())
        ch = chart(p)
        planes = [gen.complex_matrix(2, k + 2) for _ in range(p.num_moving + 1)]
        system = StackedSystem(ch, planes)
        xs = np.array([random_coords(gen, ch.num_vars) for _ in range(42)])
        alone = [system.values_and_jacobian_many(xs[i : i + 1]) for i in range(42)]
        want_vals = np.concatenate([v for v, _ in alone])
        want_jac = np.concatenate([j for _, j in alone])
        for size in (1, 3, 42):
            for lo in range(0, 42, size):
                chunk = xs[lo : lo + size]
                vals, jac = system.values_and_jacobian_many(chunk)
                assert np.array_equal(vals, want_vals[lo : lo + size])
                assert np.array_equal(jac, want_jac[lo : lo + size])
                assert np.array_equal(system.values_many(chunk), vals)

    # the tracker's residual check reads values only, and must read what
    # an evaluation with derivatives would
    @pytest.mark.parametrize("k,n,lam,mu", CASES)
    def test_values_only_is_bit_identical_at_master_solutions(self, k, n, lam, mu):
        p = SimpleSchubertProblem(k, n, lam, mu)
        instance = random_instance(p, 40 + k)
        master = solve_master(instance)
        system = StackedSystem(chart(p), instance.planes)
        gen = Lcg64(70 + k)
        # every M_j is singular at a master solution: every seventh
        # point is one
        xs = np.array([random_coords(gen, p.num_moving) for _ in range(42)])
        sols = master.solutions[:6]
        xs[: 7 * len(sols) : 7] = sols
        for size in (1, 3, 42):
            for lo in range(0, 42, size):
                chunk = xs[lo : lo + size]
                vals, _ = system.values_and_jacobian_many(chunk)
                assert np.array_equal(system.values_many(chunk), vals)


class TestInstances:
    def test_random_instance_reproducible_and_well_formed(self):
        p = SimpleSchubertProblem(2, 5, (), ())
        a = random_instance(p, 17)
        b = random_instance(p, 17)
        assert len(a.planes) == p.num_moving
        for ga, gb in zip(a.planes, b.planes):
            assert ga.shape == (3, 5)
            assert np.array_equal(ga, gb)

    def test_random_instance_consumes_the_seed_stream(self):
        p = SimpleSchubertProblem(2, 4, (1,), (1,))
        inst = random_instance(p, 23)
        probe = Lcg64(23)
        for g in inst.planes:
            assert np.array_equal(g, probe.complex_matrix(2, 4))

    def test_instance_validation(self):
        p = SimpleSchubertProblem(2, 4, (1,), (1,))
        good = random_instance(p, 1)
        with pytest.raises(ValueError):
            ProblemInstance(p, good.planes[:1], 1)
        with pytest.raises(ValueError):
            ProblemInstance(p, (np.ones((3, 4)), good.planes[1]), 1)
        degenerate = np.vstack([good.planes[0][0], good.planes[0][0]])
        with pytest.raises(ValueError):
            ProblemInstance(p, (degenerate, good.planes[1]), 1)
