"""Path tracking on problems small enough to solve by hand.

On G(1,2) the chart is [[1, x]] and a plane [[a, b]] imposes b - a x = 0,
so every homotopy path is an explicit rational function of t; the
batched tracker must agree with those closed forms, and with tracking
the same starts one at a time.
"""

import numpy as np
import pytest

from schubert_galois import tracker
from schubert_galois.monodromy import make_loop
from schubert_galois.rng import Lcg64
from schubert_galois.schubert import SimpleSchubertProblem, StackedSystem, chart
from schubert_galois.tracker import (
    LinearHomotopy,
    PathCollisionError,
    TrackOptions,
    TrackStatus,
    _hermite_predict,
    _newton_many,
    _solve_batch,
    fresh_gamma,
    min_separation,
    nearest_neighbours,
    refine_many,
    track_all,
    track_many,
)


def line_homotopy(start_ab, target_ab, gamma=1.0):
    ch = chart(SimpleSchubertProblem(1, 2, (), ()))
    return LinearHomotopy(
        ch, [], np.array([start_ab]), np.array([target_ab]), gamma
    )


def at(x, t):
    """One point and its t as a batch of one."""
    return np.array([x], dtype=complex), np.array([float(t)])


def residual(h, x, t):
    return float(np.max(np.abs(h.values_many(*at(x, t)))))


class TestLinearHomotopy:
    def test_values_and_derivatives(self):
        # H = (1-t)(-1 - x) + gamma t (2 - x)
        h = line_homotopy([1.0, -1.0], [1.0, 2.0])
        assert h.values_many(*at([-1.0], 0.0))[0, 0] == pytest.approx(0.0)
        assert h.values_many(*at([2.0], 1.0))[0, 0] == pytest.approx(0.0)
        hv, hx, ht = h.evaluate_many(*at([0.5], 0.5))
        assert hv[0, 0] == pytest.approx(0.5 * (-1.5) + 0.5 * 1.5)
        assert hx[0, 0, 0] == pytest.approx(-1.0)
        assert ht[0, 0] == pytest.approx(1.5 + 1.5)  # -f_start + f_target

    def test_time_derivative_matches_finite_differences(self):
        gen = Lcg64(11)
        g = fresh_gamma(gen)
        h = line_homotopy([1.0 + 1j, -2.0], [0.5j, 2.0], g)
        x = np.array([0.3 - 0.2j])
        _, _, ht = h.evaluate_many(*at(x, 0.4))
        eps = 1e-7
        fd = (h.values_many(*at(x, 0.4 + eps)) - h.values_many(*at(x, 0.4 - eps))) / (2 * eps)
        assert abs(ht[0, 0] - fd[0, 0]) < 1e-6

    def test_gamma_must_be_unit(self):
        with pytest.raises(ValueError):
            line_homotopy([1, -1], [1, 2], gamma=0.5)

    def test_fixed_plane_count_must_match_chart(self):
        ch = chart(SimpleSchubertProblem(1, 2, (), ()))
        with pytest.raises(ValueError):
            LinearHomotopy(ch, [np.array([[1.0, 0.0]])], np.array([[1, -1]]),
                           np.array([[1, 2]]))

    def test_with_gamma_preserves_planes(self):
        h = line_homotopy([1, -1], [1, 2])
        g = fresh_gamma(Lcg64(3))
        h2 = h.with_gamma(g)
        assert h2.gamma == g
        assert h.gamma == 1.0
        assert h2._system is h._system


class TestTrackPath:
    def test_tracks_the_explicit_line(self):
        # with gamma = 1 the root moves as x(t) = 3t - 1
        h = line_homotopy([1.0, -1.0], [1.0, 2.0])
        [result] = track_many(h, [np.array([-1.0 + 0j])], record_trace=True)
        assert result.success
        assert result.endpoint[0] == pytest.approx(2.0, abs=1e-10)
        assert result.residual < 1e-10
        t0, x0 = result.trace[0]
        t1, x1 = result.trace[-1]
        assert (t0, x0[0]) == (0.0, -1.0 + 0j)
        assert t1 == 1.0 and x1[0] == pytest.approx(2.0, abs=1e-10)
        ts = [t for t, _ in result.trace]
        assert ts == sorted(ts)
        for t, x in result.trace:
            assert x[0] == pytest.approx(3 * t - 1, abs=1e-8)

    def test_failure_when_the_root_escapes(self):
        # the target equation is the constant 1, so the root runs to
        # infinity as t -> 1 and no endpoint can satisfy the residual gate
        h = line_homotopy([1.0, -1.0], [0.0, 1.0])
        [result] = track_many(h, [np.array([-1.0 + 0j])])
        assert not result.success
        assert result.status in (TrackStatus.STEP_UNDERFLOW,
                                 TrackStatus.NEWTON_DIVERGENCE)
        assert result.endpoint is None

    def test_step_underflow_when_no_step_is_acceptable(self):
        # an unsatisfiable residual gate forces reject-and-halve until
        # the step size drops through the floor
        h = line_homotopy([1.0, -1.0], [1.0, 2.0])
        opts = TrackOptions(residual_tol=0.0)
        [result] = track_many(h, [np.array([-1.0 + 0j])], opts)
        assert result.status is TrackStatus.STEP_UNDERFLOW
        assert result.t_reached == 0.0
        assert result.steps == 0

    def test_constant_homotopy_stays_put(self):
        h = line_homotopy([2.0, 3.0], [2.0, 3.0])
        [result] = track_many(h, [np.array([1.5 + 0j])], record_trace=True)
        assert result.success
        assert result.endpoint[0] == pytest.approx(1.5, abs=1e-12)
        for _, x in result.trace:
            assert x[0] == pytest.approx(1.5, abs=1e-10)

    def test_reversal_returns_to_the_start(self):
        gen = Lcg64(4)
        a = [1.0 + 0.3j, -1.0 + 0.1j]
        b = [0.7 - 0.2j, 2.0 + 1.0j]
        g = fresh_gamma(gen)
        [fwd] = track_many(line_homotopy(a, b, g), [np.array([(-1.0 + 0.1j) / (1.0 + 0.3j)])])
        assert fwd.success
        [back] = track_many(line_homotopy(b, a, g.conjugate()), [fwd.endpoint])
        assert back.success
        assert abs(back.endpoint[0] - (-1.0 + 0.1j) / (1.0 + 0.3j)) < 1e-9


class TestBatching:
    def test_track_many_matches_one_at_a_time(self, pinned_instance, pinned_master,
                                              pinned_fresh_plane):
        ch = chart(pinned_instance.problem)
        g1, g2 = pinned_instance.planes
        h = LinearHomotopy(ch, [g1], g2, pinned_fresh_plane)
        a, b = pinned_master.solutions
        # far from both roots of the start system, so no correction
        # converges and the path halves its step down to the floor
        lost = np.array([5 + 5j, -7j])
        for starts, success in (([a, b], [True, True]),
                                ([a, lost, b], [True, False, True])):
            together = track_many(h, starts)
            assert [r.success for r in together] == success
            for start, batched in zip(starts, together):
                [alone] = track_many(h, [start])
                assert alone.status is batched.status
                assert alone.steps == batched.steps
                assert alone.t_reached == batched.t_reached
                assert alone.residual == batched.residual
                if alone.success:
                    assert np.array_equal(alone.endpoint, batched.endpoint)
                else:
                    assert alone.endpoint is None and batched.endpoint is None

    def test_track_many_empty(self):
        h = line_homotopy([1, -1], [1, 2])
        assert track_many(h, []) == []


class TestHermitePredictor:
    def test_reproduces_a_cubic(self):
        # the cubic Hermite interpolant of a cubic is the cubic itself,
        # so extrapolating s = 1 + dt/h in (1, 3] lands on the path
        gen = Lcg64(12)
        a, b, c, d = (gen.complex_matrix(1, 3)[0] for _ in range(4))

        def x(t):
            return a + b * t + c * t**2 + d * t**3

        def v(t):
            return b + 2 * c * t + 3 * d * t**2

        cases = [(t1, h, s) for t1 in (0.2, 0.6) for h in (1e-3, 0.03, 0.2)
                 for s in (1.001, 1.5, 2.0, 3.0)]
        t1, h, s = (np.array(col) for col in zip(*cases))
        dt = (s - 1.0) * h
        t0, tn = (t1 - h)[:, None], (t1 + dt)[:, None]
        x0, v0, x1, v1 = x(t0), v(t0), x(t1[:, None]), v(t1[:, None])
        got = _hermite_predict(x0, v0, x1, v1, h, dt)
        want = x(tn)
        assert np.allclose(got, want, rtol=0, atol=1e-13)
        for i in range(len(cases)):
            alone = _hermite_predict(x0[i:i + 1], v0[i:i + 1], x1[i:i + 1],
                                     v1[i:i + 1], h[i:i + 1], dt[i:i + 1])
            assert np.array_equal(alone[0], got[i])

    def test_pinned_short_loop_step_count(self, monkeypatch, pinned_instance,
                                          pinned_master, pinned_fresh_plane):
        # an Euler predictor takes 208 accepted steps on these legs, the
        # cubic one 117.  With the tangent taken from the last Newton
        # solve and a values-only residual check the legs make 209
        # evaluations with derivatives and 209 linear solves; a round
        # that re-evaluates the accepted point and solves for its
        # tangent makes 274 and 272
        loop = make_loop(pinned_instance, "short", Lcg64(0),
                         fresh_plane=pinned_fresh_plane)
        calls = {"evaluate": 0, "solve": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(StackedSystem, "values_and_jacobian_many",
                            counted("evaluate", StackedSystem.values_and_jacobian_many))
        monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))
        points, steps = list(pinned_master.solutions), 0
        for leg in loop.legs:
            results = track_many(leg, points)
            assert all(r.success for r in results)
            steps += sum(r.steps for r in results)
            points = [r.endpoint for r in results]
        assert steps == 117
        assert calls["evaluate"] <= 230
        assert calls["solve"] <= 230


class TestNewton:
    def test_converging_iteration_gives_the_tangent(self):
        # with gamma = 1 the root moves as x(t) = 3t - 1, so dx/dt = 3;
        # the first start lies on the path and converges in the first
        # iteration, the second in the next
        h = line_homotopy([1.0, -1.0], [1.0, 2.0])
        xn = np.array([[0.5 + 0j], [40.0 + 0j]])
        tn = np.array([0.5, 0.5])
        conv, tangent = _newton_many(h, xn, tn, TrackOptions(max_newton_iters=3))
        assert list(conv) == [True, True]
        assert np.allclose(xn[:, 0], 0.5, rtol=0, atol=1e-12)
        assert np.allclose(tangent[:, 0], 3.0, rtol=0, atol=1e-12)
        conv, _ = _newton_many(h, np.array([[1e8 + 0j]]), tn[:1],
                               TrackOptions(max_newton_iters=1))
        assert not conv[0]


class TestRefine:
    def test_refine_recovers_a_perturbed_root(self):
        h = line_homotopy([1.0, -1.0], [1.0, 2.0])
        [polished], _ = refine_many(h, [np.array([2.001 + 0.001j])], 1.0, 1e-12)
        assert abs(polished[0] - 2.0) < 1e-12

    def test_refine_never_worsens(self):
        h = line_homotopy([1.0, -1.0], [1.0, 2.0])
        x0 = np.array([2.0 + 0j])  # already exact
        [polished], _ = refine_many(h, [x0], 1.0, 1e-12)
        assert residual(h, polished, 1.0) <= residual(h, x0, 1.0) + 1e-15


class TestTrackAll:
    def test_rejects_coincident_starts(self):
        h = line_homotopy([1.0, -1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            track_all(h, [np.array([-1.0 + 0j]), np.array([-1.0 + 1e-9j])])

    def test_merged_endpoints_raise_without_a_generator(self):
        # the pencil has one root; a start 0.5 off it is corrected onto
        # the same path, so both paths end at x = 2
        h = line_homotopy([1.0, -1.0], [1.0, 2.0])
        starts = [np.array([-1.0 + 0j]), np.array([-0.5 + 0j])]
        assert all(r.success for r in track_many(h, starts))
        with pytest.raises(PathCollisionError):
            track_all(h, starts, gen=None)

    def test_tracks_distinct_roots_of_a_pencil(self, pinned_instance, pinned_master,
                                               pinned_fresh_plane):
        ch = chart(pinned_instance.problem)
        g1, g2 = pinned_instance.planes
        h = LinearHomotopy(ch, [g1], g2, pinned_fresh_plane)
        results = track_all(h, pinned_master.solutions, gen=Lcg64(9))
        assert all(r.success for r in results)
        e0, e1 = results[0].endpoint, results[1].endpoint
        assert np.linalg.norm(e0 - e1) > 1e-3

    def test_failed_paths_are_retracked_under_the_same_homotopy(self, monkeypatch):
        # sabotage one result of the first batch; the rescue pass must
        # re-track exactly that path with the original homotopy (same
        # gamma keeps the start-to-target correspondence) and merge the
        # recovered endpoint back in input order
        import dataclasses

        from schubert_galois import tracker

        h = line_homotopy([1.0, -1.0], [1.0, 2.0])
        starts = [np.array([-1.0 + 0j])]
        real = tracker.track_many
        calls = []

        def flaky(h_in, starts_in, opts=None, record_trace=False):
            results = real(h_in, starts_in, opts, record_trace)
            calls.append((h_in, len(starts_in)))
            if len(calls) == 1:
                results[0] = dataclasses.replace(
                    results[0], status=TrackStatus.STEP_UNDERFLOW, endpoint=None
                )
            return results

        monkeypatch.setattr(tracker, "track_many", flaky)
        results = tracker.track_all(h, starts)
        assert all(r.success for r in results)
        assert abs(results[0].endpoint[0] - 2.0) < 1e-8
        # rescue round: the original homotopy, only the failed path
        assert len(calls) == 2
        assert calls[1][0] is h and calls[1][1] == 1


class TestSolveBatch:
    def test_matches_reference(self):
        gen = Lcg64(1)
        a = np.array([gen.complex_matrix(5, 5) for _ in range(3)])
        b = np.array([gen.complex_matrix(1, 5)[0] for _ in range(3)])
        x, bad = _solve_batch(a, b)
        assert not bad.any()
        for i in range(3):
            assert np.allclose(a[i] @ x[i], b[i], atol=1e-10)

    def test_flags_singular_and_non_finite_members(self):
        # an exactly singular member makes the batched solve raise and
        # fall back to one solve per member; a non-finite right-hand side
        # solves without raising but gives a non-finite solution.  The
        # right-hand side is one vector or, as in a Newton iteration, two
        # columns per member
        for singular, columns in ((s, c) for s in (False, True) for c in ((), (2,))):
            gen = Lcg64(2)
            a = np.array([gen.complex_matrix(3, 3) for _ in range(4)])
            b = np.array([gen.complex_matrix(3, *columns) if columns
                          else gen.complex_matrix(1, 3)[0] for _ in range(4)])
            b[3, 0] = np.inf
            if singular:
                a[1, :, 0] = 0.0
            x, bad = _solve_batch(a, b)
            assert x.shape == b.shape
            assert list(bad) == [False, singular, False, True]
            for i in np.flatnonzero(~bad):
                assert np.array_equal(x[i], np.linalg.solve(a[i], b[i]))


class TestNeighbourSearch:
    @staticmethod
    def brute_force(points, refs, own):
        index, near, second = [], [], []
        for i, p in enumerate(points):
            d = [np.linalg.norm(p - r) if not (own and i == j) else np.inf
                 for j, r in enumerate(refs)]
            order = np.argsort(d, kind="stable")
            index.append(order[0])
            near.append(d[order[0]])
            second.append(d[order[1]] if len(d) > 1 else np.inf)
        return np.array(index, dtype=int), np.array(near), np.array(second)

    # block sizes that hold every point, one point, and two or three
    @pytest.mark.parametrize("block", [tracker.NEIGHBOUR_BLOCK, 7, 300])
    @pytest.mark.parametrize("own", [False, True])
    @pytest.mark.parametrize("num_points,num_refs,dim", [
        (0, 3, 2), (5, 1, 3), (1, 1, 2), (30, 17, 4), (40, 40, 1), (3, 5, 0),
    ])
    def test_matches_brute_force(self, monkeypatch, block, own, num_points, num_refs, dim):
        monkeypatch.setattr(tracker, "NEIGHBOUR_BLOCK", block)
        gen = Lcg64(num_points * 100 + num_refs * 10 + dim)
        points = [gen.complex_matrix(1, dim)[0] for _ in range(num_points)]
        refs = [gen.complex_matrix(1, dim)[0] for _ in range(num_refs)]
        if num_points > 3 and num_refs > 3:
            points[2] = points[0].copy()  # exact duplicates
            refs[3] = refs[1].copy()
            points[1] = refs[1].copy()
        if own:
            refs = points
        got = nearest_neighbours(points, None if own else refs)
        want = self.brute_force(points, refs, own)
        assert got[0].shape == got[1].shape == got[2].shape == (num_points,)
        assert np.array_equal(got[0][np.isfinite(want[1])], want[0][np.isfinite(want[1])])
        for g, w in zip(got[1:], want[1:]):
            assert np.array_equal(np.isinf(g), np.isinf(w))
            assert np.allclose(g[np.isfinite(w)], w[np.isfinite(w)], rtol=1e-12, atol=0)

    def test_min_separation(self):
        assert min_separation([]) == np.inf
        assert min_separation([np.array([1.0 + 0j])]) == np.inf
        pts = [np.array([0j, 0j]), np.array([3.0 + 0j, 4j]), np.array([0j, 0j])]
        assert min_separation(pts) == 0.0
        assert min_separation(pts[:2]) == 5.0


class TestOptions:
    def test_option_validation(self):
        with pytest.raises(ValueError):
            TrackOptions(min_dt=0.0)
        with pytest.raises(ValueError):
            TrackOptions(initial_dt=0.5, max_dt=0.2)
        with pytest.raises(ValueError):
            TrackOptions(newton_tol=-1.0)
        with pytest.raises(ValueError):
            TrackOptions(max_newton_iters=0)
        with pytest.raises(ValueError):
            TrackOptions(residual_tol=-1.0)
        with pytest.raises(ValueError):
            TrackOptions(endpoint_tol=0.0)
        with pytest.raises(ValueError):
            TrackOptions(expand_after=0)
        # integer fields take integers only
        for bad in ({"max_newton_iters": float("inf")}, {"max_newton_iters": 2.0},
                    {"max_newton_iters": True}, {"expand_after": 2.5}):
            with pytest.raises(ValueError):
                TrackOptions(**bad)
        for name in ("newton_tol", "initial_dt", "min_dt", "max_dt",
                     "residual_tol", "endpoint_tol"):
            for bad in (float("nan"), float("inf")):
                with pytest.raises(ValueError):
                    TrackOptions(**{name: bad})
        TrackOptions(residual_tol=0.0)  # legal: no residual passes the gate

    def test_fresh_gamma_unit_and_deterministic(self):
        first = fresh_gamma(Lcg64(8))
        gen = Lcg64(8)
        draws = [fresh_gamma(gen) for _ in range(3)]
        assert draws[0] == first
        assert len(set(draws)) == 3
        for g in draws:
            assert abs(abs(g) - 1.0) < 1e-12
