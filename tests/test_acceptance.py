"""End-to-end acceptance checks, one guarantee per test.

The suite covers: the reference table of solution counts, agreement of
all-simple counts with the hook length formula, a fully pinned
two-solution regression instance (solve and monodromy), desk-scale
Galois certification, cross-checks against an independent multistart
Newton solver, structural identities of the numerics, and bit-for-bit
determinism of seeded runs.  The two multi-minute stretch problems run
only with --heavy.
"""

import json
import time

import numpy as np
import pytest

from schubert_galois import (
    Lcg64,
    LinearHomotopy,
    accumulate,
    chart,
    cli,
    count_solutions,
    make_loop,
    monodromy_permutation,
    random_instance,
    solve_master,
)
from schubert_galois import linalg
from schubert_galois.groups import compose, identity, inverse, is_full_symmetric
from schubert_galois.schubert import SimpleSchubertProblem, StackedSystem, special_plane
from schubert_galois.tracker import track_many

from oracles import (
    _fd_jacobian,
    hook_length_count,
    make_det_system,
    multistart_roots,
    same_point_sets,
)

# the two solutions of the pinned instance, quoted to five digits
PINNED_SOLUTIONS = (
    np.array([-0.23714 - 0.0028980j, -0.51680 - 0.10520j]),
    np.array([0.97009 + 1.2705j, 0.44336 + 0.38248j]),
)


def all_simple(k, n):
    return SimpleSchubertProblem(k, n, (), ())


def test_count_table_matches_reference_values():
    reference = {
        (2, 4): 2, (2, 5): 5, (2, 6): 14, (2, 7): 42, (2, 8): 132,
        (2, 9): 429, (2, 10): 1430, (2, 11): 4862,
        (3, 5): 5, (3, 6): 42, (3, 7): 462, (3, 8): 6006,
        (4, 6): 14, (4, 7): 462,
        (5, 7): 42,
    }
    t0 = time.perf_counter()
    got = {kn: count_solutions(all_simple(*kn)) for kn in reference}
    with_conditions = (
        count_solutions(SimpleSchubertProblem(4, 8, (2, 1), (1,))),
        count_solutions(SimpleSchubertProblem(3, 9, (2, 1), (2,))),
    )
    elapsed = time.perf_counter() - t0
    assert got == reference
    assert with_conditions == (8580, 17589)
    assert elapsed < 1.0


def test_all_simple_counts_equal_hook_length_formula():
    t0 = time.perf_counter()
    checked = 0
    for k in range(1, 22):
        for q in range(1, 22):
            if k * q > 21:
                continue
            assert count_solutions(all_simple(k, k + q)) == hook_length_count(k, q)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert checked > 50
    assert elapsed < 1.0


def test_pinned_planes_solve_recovers_quoted_solutions(
    tmp_path, capsys, pinned_planes_file
):
    spec = tmp_path / "problem.json"
    spec.write_text(json.dumps({"k": 2, "n": 4, "lambda": "box", "mu": "box"}))
    t0 = time.perf_counter()
    code = cli.main(
        ["solve", str(spec), "--planes", str(pinned_planes_file),
         "--out", str(tmp_path)]
    )
    elapsed = time.perf_counter() - t0
    capsys.readouterr()
    assert code == 0
    blob = json.loads((tmp_path / "problem_master.json").read_text())
    found = [np.array([complex(re, im) for re, im in sol]) for sol in blob["solutions"]]
    assert len(found) == 2
    matched = set()
    for quoted in PINNED_SOLUTIONS:
        gaps = [np.max(np.abs(quoted - f)) for f in found]
        j = int(np.argmin(gaps))
        assert gaps[j] < 1e-4 and j not in matched
        matched.add(j)
    assert blob["residual_max"] < 1e-8
    assert elapsed < 1.0


def test_pinned_short_loop_is_the_transposition(
    pinned_instance, pinned_master, pinned_fresh_plane
):
    t0 = time.perf_counter()
    loop = make_loop(pinned_instance, "short", Lcg64(0),
                     fresh_plane=pinned_fresh_plane)
    perm, _ = monodromy_permutation(pinned_master, loop)
    elapsed = time.perf_counter() - t0
    assert np.array_equal(perm, [1, 0])
    assert elapsed < 1.0


DESK_SCALE = [
    (2, 4, 2),
    (2, 5, 5),
    (2, 6, 14),
    (3, 5, 5),
    (3, 6, 42),
    (4, 6, 14),
]


@pytest.mark.parametrize("k,n,expected_d", DESK_SCALE)
def test_desk_scale_runs_certify_full_symmetric(k, n, expected_d):
    t0 = time.perf_counter()
    instance = random_instance(all_simple(k, n), seed=7)
    master = solve_master(instance)
    result = accumulate(master, strategy="short", max_loops=15)
    elapsed = time.perf_counter() - t0
    assert len(master.solutions) == expected_d
    assert result.status == "FullSymmetric"
    assert len(result.permutations) <= 15
    assert elapsed < 300.0


@pytest.mark.heavy
@pytest.mark.parametrize("k,n,expected_d", [(2, 7, 42), (3, 7, 462)])
def test_stretch_runs_certify_full_symmetric(k, n, expected_d):
    t0 = time.perf_counter()
    instance = random_instance(all_simple(k, n), seed=7)
    master = solve_master(instance)
    result = accumulate(master, strategy="short", max_loops=25)
    elapsed = time.perf_counter() - t0
    assert len(master.solutions) == expected_d
    assert result.status == "FullSymmetric"
    assert elapsed < 7200.0


@pytest.mark.parametrize("k,n", [(2, 5), (3, 5)])
def test_master_sets_agree_with_multistart_newton(k, n):
    instance = random_instance(all_simple(k, n), seed=11)
    master = solve_master(instance)
    ch = chart(instance.problem)
    fn = make_det_system(k, n, ch.one_cols, ch.var_cells, instance.planes)
    roots = multistart_roots(fn, ch.num_vars, expected=5, seed=5,
                             num_starts=2000, iters=50)
    assert same_point_sets(list(master.solutions), roots, tol=1e-6)


class TestStructuralProperties:
    def test_determinant_is_linear_in_each_row(self):
        gen = Lcg64(41)
        a = gen.complex_matrix(5, 5)
        u, v = gen.complex_matrix(2, 5)
        alpha, beta = gen.complex_entry(), gen.complex_entry()
        for r in range(5):
            au, av, mix = a.copy(), a.copy(), a.copy()
            au[r], av[r], mix[r] = u, v, alpha * u + beta * v
            combo = alpha * linalg.batched_det(au) + beta * linalg.batched_det(av)
            assert abs(linalg.batched_det(mix) - combo) < 1e-8 * max(1.0, abs(combo))

    def test_jacobian_matches_independent_finite_differences(self):
        instance = random_instance(SimpleSchubertProblem(3, 6, (2, 1), (1,)), seed=4)
        ch = chart(instance.problem)
        fn = make_det_system(3, 6, ch.one_cols, ch.var_cells, instance.planes)
        gen = Lcg64(5)
        x = np.array([gen.complex_entry() for _ in range(ch.num_vars)])
        [vals], [jac] = StackedSystem(ch, instance.planes).values_and_jacobian_many(x[None])
        ref_vals, ref_jac = _fd_jacobian(fn, x[None])
        scale = np.maximum(1.0, np.abs(ref_jac[0]))
        assert np.max(np.abs(vals - ref_vals[0])) < 1e-6 * np.max(scale)
        assert np.max(np.abs(jac - ref_jac[0]) / scale) < 1e-6

    def test_constant_homotopy_returns_its_start(self, pinned_instance, pinned_master):
        ch = chart(pinned_instance.problem)
        g1, g2 = pinned_instance.planes
        h = LinearHomotopy(ch, [g1], g2, g2, 1.0)
        for x0 in pinned_master.solutions:
            [result] = track_many(h, [x0])
            assert result.success
            assert np.max(np.abs(result.endpoint - x0)) < 1e-9

    def test_reversed_loop_gives_the_inverse_permutation(
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

    def test_monodromy_permutations_are_bijections(self):
        instance = random_instance(all_simple(2, 5), seed=6)
        master = solve_master(instance)
        result = accumulate(master, strategy="short", max_loops=4)
        assert result.permutations
        for p in result.permutations:
            assert sorted(int(i) for i in p) == list(range(5))

    def test_verdict_survives_relabeling(self):
        instance = random_instance(all_simple(2, 5), seed=2)
        master = solve_master(instance)
        perms = accumulate(master, strategy="short", max_loops=8).permutations
        base = is_full_symmetric(perms, 5)
        gen = Lcg64(9)
        for _ in range(3):
            sigma = np.array(sorted(range(5), key=lambda _: gen.uniform()))
            conj = [compose(sigma, compose(p, inverse(sigma))) for p in perms]
            relabeled = is_full_symmetric(conj, 5)
            assert relabeled.status == base.status
            assert sorted(relabeled.orbit_sizes) == sorted(base.orbit_sizes)

    def test_path_counts_are_conserved_down_the_recursion(self):
        problem = all_simple(2, 6)
        instance = random_instance(problem, seed=3)
        stats = {}
        master = solve_master(instance, stats=stats)
        assert len(master.solutions) == 14
        for node in stats["nodes"]:
            if node["base"]:
                continue
            child_total = sum(
                count_solutions(problem.with_mu(c)) for c in node["children"]
            )
            assert node["paths"] == child_total == node["expected"]

    def test_special_plane_determinant_is_the_rightmost_product(self):
        gen = Lcg64(21)
        cases = [(2, 4, (1, 0)), (2, 5, (2, 1)), (3, 6, (1, 1, 0)), (3, 7, (2, 1, 1))]
        for k, n, mu in cases:
            ch = chart(SimpleSchubertProblem(k, n, (1,) if k > 1 else (), mu))
            g = special_plane(k, n, mu)
            for _ in range(3):
                x = np.array([gen.complex_entry() for _ in range(ch.num_vars)])
                stacked = np.vstack([ch.instantiate(x), g])
                product = np.prod(ch.rightmost_values(x))
                assert abs(linalg.batched_det(stacked) - product) < 1e-12 * max(
                    1.0, abs(product)
                )


def test_same_seed_runs_are_identical(tmp_path, capsys):
    def library_run():
        instance = random_instance(all_simple(2, 5), seed=17)
        master = solve_master(instance)
        return master, accumulate(master, strategy="short", max_loops=10)

    master_a, result_a = library_run()
    master_b, result_b = library_run()
    assert len(result_a.permutations) == len(result_b.permutations)
    for pa, pb in zip(result_a.permutations, result_b.permutations):
        assert np.array_equal(pa, pb)
    assert result_a.status == result_b.status
    assert result_a.group.reason == result_b.group.reason
    for sa, sb in zip(master_a.solutions, master_b.solutions):
        assert sa.tobytes() == sb.tobytes()

    spec = tmp_path / "problem.json"
    spec.write_text(json.dumps({"k": 2, "n": 4, "seed": 23}))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert cli.main(["galois", str(spec), "--out", str(out)]) == 0
    capsys.readouterr()
    for name in ("problem_permutations.json", "problem_verdict.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
