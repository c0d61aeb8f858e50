"""Predictor-corrector path tracking for one-parameter determinant pencils.

The homotopies here keep m-1 plane equations fixed and blend a single
moving equation between two planes,

    H_m(x, t) = (1-t) det [E(x) over G_start] + gamma t det [E(x) over G_target],

which is linear in t.  gamma on the unit circle steers the path around
the discriminant; a fresh draw retries an unlucky path.

Each step predicts by cubic Hermite extrapolation from the path's
previous and current points and their tangents dx/dt = -H_x^-1 H_t,
then corrects with Newton's method at the advanced t.  Every Newton
iteration solves for its correction and the tangent together, so the
iteration that converges also hands the path its next tangent, and the
residual check at the corrected point needs values only.  An accepted
step thus costs one evaluation with derivatives and one linear solve
per Newton iteration, plus one values-only evaluation.

Paths of one homotopy never interact, so track_many advances any number
of them together and batches all linear algebra across the live ones;
step control (dt halving and doubling, Newton acceptance) stays
per-path and matches tracking the paths one at a time.
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass, replace

import numpy as np

from .rng import Lcg64
from .schubert import SkewChart, StackedSystem

# two points are distinct when they are more than COLLISION_TOL apart
COLLISION_TOL = 1e-6
# most float entries (8 MB) in one block of coordinate differences of a
# neighbour search; a block holds at least one point's row
NEIGHBOUR_BLOCK = 1 << 20
MAX_RETRY_ROUNDS = 3

# progressively gentler step control for re-tracking failed paths under
# the SAME homotopy (more corrector room, deeper dt floor, lower cap)
RESCUE_LADDER = (
    {"iters": 6, "min_dt": 1e-10, "shrink": 4},
    {"iters": 8, "min_dt": 1e-12, "shrink": 16},
)


class PathCollisionError(RuntimeError):
    """Two tracked paths still share an endpoint after retries."""


def _coordinates(points) -> np.ndarray:
    """A non-empty set of complex points as rows of float coordinates."""
    a = np.ascontiguousarray(points, dtype=complex)
    return a.reshape(len(a), -1).view(float)


def nearest_neighbours(points, refs=None):
    """Exact nearest-neighbour search over plain Euclidean distances.

    Returns, for each point, the index of its nearest reference point
    and the distances to the nearest and second-nearest ones (inf where
    there is none).  With refs None the points are searched against one
    another, each skipping itself, so exact duplicates show as distance
    0.  Distances are computed in blocks of rows of points.
    """
    n = len(points)
    index = np.zeros(n, dtype=int)
    dist2 = np.full((2, n), np.inf)
    if n == 0:
        return index, dist2[0], dist2[1]
    p = _coordinates(points)
    r = p if refs is None else _coordinates(refs)
    rows = max(1, NEIGHBOUR_BLOCK // max(1, r.size))
    for lo in range(0, n, rows):
        diff = p[lo : lo + rows, None, :] - r[None]
        sq = np.einsum("ijk,ijk->ij", diff, diff)
        at = np.arange(len(sq))
        if refs is None:
            sq[at, lo + at] = np.inf
        best = np.argmin(sq, axis=1)
        index[lo : lo + rows] = best
        dist2[0, lo : lo + rows] = sq[at, best]
        sq[at, best] = np.inf
        dist2[1, lo : lo + rows] = np.min(sq, axis=1)
    return index, np.sqrt(dist2[0]), np.sqrt(dist2[1])


def min_separation(points) -> float:
    """The smallest distance between two of the points; inf for fewer
    than two."""
    _, nearest, _ = nearest_neighbours(points)
    return float(np.min(nearest, initial=np.inf))


def fresh_gamma(gen: Lcg64) -> complex:
    """A uniform point on the unit circle."""
    return cmath.exp(2j * cmath.pi * gen.uniform())


class TrackStatus(enum.Enum):
    SUCCESS = "Success"
    SINGULAR = "SingularAt"
    STEP_UNDERFLOW = "StepUnderflow"
    NEWTON_DIVERGENCE = "NewtonDivergence"


@dataclass
class TrackOptions:
    """Step control knobs; the defaults suit the desk-scale problems."""

    newton_tol: float = 1e-10
    max_newton_iters: int = 3
    initial_dt: float = 0.05
    min_dt: float = 1e-8
    max_dt: float = 0.1
    expand_after: int = 5  # consecutive accepted steps before dt doubles
    residual_tol: float = 1e-8
    endpoint_tol: float = 1e-12

    def __post_init__(self):
        # every test is written so that NaN fails it
        if not 0 < self.min_dt <= self.initial_dt <= self.max_dt <= 1:
            raise ValueError("need 0 < min_dt <= initial_dt <= max_dt <= 1")
        for name in ("max_newton_iters", "expand_after"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if not 0 < self.newton_tol < np.inf:
            raise ValueError("need finite newton_tol > 0")
        if not (0 <= self.residual_tol < np.inf and 0 < self.endpoint_tol < np.inf):
            raise ValueError("need finite residual_tol >= 0 and endpoint_tol > 0")


@dataclass
class PathResult:
    status: TrackStatus
    endpoint: np.ndarray | None
    t_reached: float
    residual: float
    steps: int
    trace: list[tuple[float, np.ndarray]] | None = None

    @property
    def success(self) -> bool:
        return self.status is TrackStatus.SUCCESS


class LinearHomotopy:
    """Fixed plane equations plus one moving equation, linear in t.

    kernels is the kernel-basis cache of StackedSystem, for homotopies
    that share planes.
    """

    def __init__(self, chart_: SkewChart, fixed_planes, start_plane, target_plane,
                 gamma: complex = 1.0, kernels: dict | None = None):
        if abs(abs(gamma) - 1.0) > 1e-12:
            raise ValueError(f"gamma must lie on the unit circle, |gamma| = {abs(gamma)}")
        if len(fixed_planes) + 1 != chart_.num_vars:
            raise ValueError(
                f"{len(fixed_planes)} fixed planes + 1 moving != {chart_.num_vars} variables"
            )
        self.chart = chart_
        self.fixed_planes = list(fixed_planes)
        self.start_plane = np.asarray(start_plane, dtype=complex)
        self.target_plane = np.asarray(target_plane, dtype=complex)
        self.gamma = complex(gamma)
        self._system = StackedSystem(
            chart_, self.fixed_planes + [self.start_plane, self.target_plane], kernels
        )

    def with_gamma(self, gamma: complex) -> "LinearHomotopy":
        h = LinearHomotopy.__new__(LinearHomotopy)
        h.chart = self.chart
        h.fixed_planes = self.fixed_planes
        h.start_plane = self.start_plane
        h.target_plane = self.target_plane
        h.gamma = complex(gamma)
        h._system = self._system  # stacks are gamma-independent
        return h

    def values_many(self, xs, ts) -> np.ndarray:
        """H at a batch of points, shape (p, num_vars)."""
        vals = self._system.values_many(xs)
        vals[:, -2] = (1.0 - ts) * vals[:, -2] + (self.gamma * ts) * vals[:, -1]
        return vals[:, :-1]

    def evaluate_many(self, xs, ts):
        """Batched H, Jacobian H_x and t-derivative H_t.

        The moving equation is blended in place over the start plane's
        row; H_t, zero but in that equation, takes the target plane's
        Jacobian row once the blend has read it.
        """
        vals, jac = self._system.values_and_jacobian_many(xs)
        w0 = 1.0 - ts
        w1 = self.gamma * ts
        jac[:, -2] = w0[:, None] * jac[:, -2] + w1[:, None] * jac[:, -1]
        ht = jac[:, -1]
        ht[:, :-1] = 0.0
        ht[:, -1] = -vals[:, -2] + self.gamma * vals[:, -1]
        vals[:, -2] = w0 * vals[:, -2] + w1 * vals[:, -1]
        return vals[:, :-1], jac[:, :-1], ht


def _solve_batch(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve a[i] x[i] = b[i] for a batch, each b[i] a vector or a matrix
    of columns; flags exactly singular members and members with a
    non-finite solution instead of raising."""
    vector = b.ndim < a.ndim
    rhs = b[..., None] if vector else b
    try:
        x = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        x = np.zeros_like(rhs)
        for i in range(len(b)):
            try:
                x[i] = np.linalg.solve(a[i], rhs[i])
            except np.linalg.LinAlgError:
                x[i] = np.nan
    if vector:
        x = x[..., 0]
    return x, ~np.isfinite(x.reshape(len(x), -1)).all(axis=1)


def _residual_many(h: LinearHomotopy, xs, ts) -> np.ndarray:
    vals = h.values_many(xs, ts)
    return np.max(np.abs(vals), axis=1)


def _norms(a: np.ndarray) -> np.ndarray:
    """Row norms in np.linalg.norm's exact arithmetic, without its
    argument handling."""
    return np.sqrt(np.add.reduce((a.conj() * a).real, axis=1))


def _newton_many(h: LinearHomotopy, xn: np.ndarray, tn: np.ndarray,
                 opts: TrackOptions) -> tuple[np.ndarray, np.ndarray]:
    """Newton-correct a batch; returns True where the iteration converged,
    and there the corrected point (in place of xn) and the tangent dx/dt
    of the converging iteration.

    Per path this is the classical loop: converge when the step is small
    relative to the point, give up after two consecutive step growths or
    a singular Jacobian, stall when iterations run out.  Each iteration
    solves H_x [delta, w] = [-H, -H_t] as one two-column system, so
    w = -H_x^-1 H_t is the tangent at the iterate, which lies within
    newton_tol * max(1, |x|) of the corrected point once it converges.
    """
    p = len(xn)
    conv = np.zeros(p, dtype=bool)
    tangent = np.empty_like(xn)
    # the paths still iterating: index, point, t, last step norm and
    # number of consecutive growing steps
    ia, x, t = np.arange(p), xn, tn
    prev, grew = np.full(p, np.inf), np.zeros(p, dtype=int)
    for _ in range(opts.max_newton_iters):
        if len(ia) == 0:
            break
        hv, hx, ht = h.evaluate_many(x, t)
        rhs = np.empty(hv.shape + (2,), dtype=complex)
        np.negative(hv, out=rhs[..., 0])
        np.negative(ht, out=rhs[..., 1])
        step, sing = _solve_batch(hx, rhs)
        if sing.any():
            ok = ~sing
            ia, x, t, prev, grew, step = ia[ok], x[ok], t[ok], prev[ok], grew[ok], step[ok]
        delta = step[..., 0]
        x = x + delta
        nd = _norms(delta)
        just_conv = nd <= opts.newton_tol * np.maximum(1.0, _norms(x))
        grew = np.where(nd >= prev, grew + 1, 0)
        going = ~just_conv & (grew < 2)
        if going.all():
            prev = nd
            continue
        done = ia[just_conv]
        conv[done] = True
        xn[done] = x[just_conv]
        tangent[done] = step[just_conv, :, 1]
        ia, x, t, prev, grew = ia[going], x[going], t[going], nd[going], grew[going]
    return conv, tangent


def refine_many(h: LinearHomotopy, xs, t: float, tol: float,
                max_iters: int = 12) -> tuple[np.ndarray, np.ndarray]:
    """Polish a batch against H(., t); returns (points, residuals), each
    point the best seen along its own iteration (never worse)."""
    x = np.array(xs, dtype=complex)
    p = len(x)
    ts = np.full(p, float(t))
    best = x.copy()
    best_res = _residual_many(h, x, ts)
    act = np.ones(p, dtype=bool)
    for _ in range(max_iters):
        ia = np.flatnonzero(act)
        if len(ia) == 0:
            break
        hv, hx, _ = h.evaluate_many(x[ia], ts[ia])
        delta, sing = _solve_batch(hx, -hv)
        act[ia[sing]] = False
        good = ia[~sing]
        if len(good) == 0:
            break
        d = delta[~sing]
        x[good] += d
        res = _residual_many(h, x[good], ts[good])
        imp = res < best_res[good]
        gi = good[imp]
        best[gi] = x[gi]
        best_res[gi] = res[imp]
        done = _norms(d) <= tol * np.maximum(1.0, _norms(x[good]))
        act[good[done]] = False
    return best, best_res


def _hermite_predict(x0, v0, x1, v1, h, dt):
    """Extrapolate rows of a path to t1 + dt by the cubic through
    (t1 - h, x0) and (t1, x1) with tangents v0 and v1 there.

    With s = 1 + dt/h the Hermite basis on [t1 - h, t1] gives
    x1 + r [r (2s+1) (x0 - x1) + h s r v0 + h s^2 v1], r = s - 1.
    Real per-row weights and elementwise operations keep every row
    bit-identical to predicting it alone.
    """
    r = dt / h
    s = 1.0 + r
    return x1 + r[:, None] * ((r * (2.0 * s + 1.0))[:, None] * (x0 - x1)
                              + (h * s * r)[:, None] * v0
                              + (h * s * s)[:, None] * v1)


def track_many(h: LinearHomotopy, starts, opts: TrackOptions | None = None,
               record_trace: bool = False) -> list[PathResult]:
    """Track each start from t=0 to t=1; results align with the starts.

    The predictor is the cubic Hermite extrapolation from the path's
    previous accepted point and its current one, each with its tangent
    dx/dt = -Hx^-1 Ht (_hermite_predict); a path's first step, with no
    previous point, is the Euler step dx = dt * dx/dt.  Newton corrects
    at the advanced t (_newton_many); dt halves on corrector failure and
    doubles after expand_after consecutive accepted steps.  A converged
    correction is accepted when its residual, from one values-only
    evaluation, is below residual_tol.  Each path keeps its tangent: the
    start's comes from one evaluation and solve, every later one from
    the Newton iteration that converged on the accepted point, and a
    rejected step predicts again from the kept point and tangent, so a
    round evaluates and solves nothing else.  Endpoints are polished to
    endpoint_tol and must leave residual below residual_tol.  All paths
    advance together with the linear algebra and the step control
    batched across them.
    """
    opts = opts or TrackOptions()
    p = len(starts)
    if p == 0:
        return []
    X = np.array([np.asarray(s, dtype=complex) for s in starts])
    t = np.zeros(p)
    dt = np.full(p, opts.initial_dt)
    streak = np.zeros(p, dtype=int)
    steps = np.zeros(p, dtype=int)
    running = np.ones(p, dtype=bool)
    status = np.full(p, None, dtype=object)
    traces = [[(0.0, X[i].copy())] for i in range(p)] if record_trace else None
    # each path's tangent dx/dt at its current point
    _, hx, ht = h.evaluate_many(X, t)
    V, sing = _solve_batch(hx, -ht)
    status[sing] = TrackStatus.SINGULAR
    running[sing] = False
    # each path's previous accepted point, its tangent and its t; set
    # once the path has taken a step
    Xp, Vp, tp = np.empty_like(X), np.empty_like(X), np.zeros(p)

    while True:
        idx = np.flatnonzero(running & (t < 1.0 - 1e-14))
        if len(idx) == 0:
            break
        dt_eff = np.minimum(dt[idx], 1.0 - t[idx])
        xn = X[idx] + dt_eff[:, None] * V[idx]
        hi = np.flatnonzero(steps[idx])
        if len(hi):
            j = idx[hi]
            xn[hi] = _hermite_predict(Xp[j], Vp[j], X[j], V[j], t[j] - tp[j], dt_eff[hi])
        tn = t[idx] + dt_eff
        accept, vn = _newton_many(h, xn, tn, opts)
        conv = np.flatnonzero(accept)
        if len(conv):
            accept[conv] = _residual_many(h, xn[conv], tn[conv]) < opts.residual_tol
        acc, rej = idx[accept], idx[~accept]
        Xp[acc] = X[acc]
        Vp[acc] = V[acc]
        tp[acc] = t[acc]
        X[acc] = xn[accept]
        V[acc] = vn[accept]
        t[acc] = tn[accept]
        steps[acc] += 1
        streak[acc] += 1
        grow = acc[streak[acc] >= opts.expand_after]
        dt[grow] = np.minimum(2.0 * dt[grow], opts.max_dt)
        streak[grow] = 0
        if len(rej):
            streak[rej] = 0
            dt[rej] *= 0.5
            under = rej[dt[rej] < opts.min_dt]
            status[under] = TrackStatus.STEP_UNDERFLOW
            running[under] = False
        if traces is not None:
            for i in acc:
                traces[i].append((float(t[i]), X[i].copy()))

    results: list[PathResult | None] = [None] * p
    fin = np.flatnonzero(running)
    if len(fin):
        polished, res = refine_many(h, X[fin], 1.0, opts.endpoint_tol)
        for j, i in enumerate(fin):
            tr = traces[i] if traces is not None else None
            if res[j] >= opts.residual_tol:
                results[i] = PathResult(
                    TrackStatus.NEWTON_DIVERGENCE, None, 1.0, float(res[j]),
                    int(steps[i]), tr,
                )
            else:
                if tr is not None:
                    tr.append((1.0, polished[j].copy()))
                results[i] = PathResult(
                    TrackStatus.SUCCESS, polished[j], 1.0, float(res[j]),
                    int(steps[i]), tr,
                )
    for i in range(p):
        if results[i] is None:
            tr = traces[i] if traces is not None else None
            results[i] = PathResult(status[i], None, float(t[i]), np.inf,
                                    int(steps[i]), tr)
    return results


def _rescue_failures(h: LinearHomotopy, starts, results, opts, record_trace):
    """Re-track failed paths under the same homotopy, more carefully.

    Keeping the homotopy (and so its gamma) fixed keeps the start-to-
    target correspondence fixed, so re-tracking any subset is sound; a
    few paths stalling on a hard stretch is routine at several hundred
    paths and is cheaper to crawl through than to re-track everything.
    """
    for rung in RESCUE_LADDER:
        bad = [i for i, r in enumerate(results) if not r.success]
        if not bad:
            return
        min_dt = min(opts.min_dt, rung["min_dt"])
        initial_dt = max(min_dt, opts.initial_dt / rung["shrink"])
        opts_rescue = replace(
            opts,
            max_newton_iters=max(opts.max_newton_iters, rung["iters"]),
            min_dt=min_dt,
            initial_dt=initial_dt,
            max_dt=max(initial_dt, opts.max_dt / rung["shrink"]),
        )
        redone = track_many(h, [starts[i] for i in bad], opts_rescue, record_trace)
        for i, r in zip(bad, redone):
            if r.success:
                results[i] = r


def _endpoints_collide(results) -> bool:
    """True when two successful paths ended within COLLISION_TOL."""
    return min_separation([r.endpoint for r in results if r.success]) <= COLLISION_TOL


def track_all(h: LinearHomotopy, starts, opts: TrackOptions | None = None,
              gen: Lcg64 | None = None, record_trace: bool = False,
              max_retry_rounds: int = MAX_RETRY_ROUNDS) -> list[PathResult]:
    """Track every start and enforce pairwise distinct endpoints.

    Failed paths are first re-tracked under the SAME homotopy with
    gentler step control (sound: the correspondence is fixed by the
    homotopy).  If failures or collisions remain, the WHOLE start set
    is re-tracked under one fresh gamma with the step sizes halved, up
    to max_retry_rounds times.  Fresh-gamma re-tracking must be
    wholesale: which start reaches which target depends on gamma, so
    endpoints tracked under two different gammas need not be distinct
    even when every path is followed correctly.  Persistent collisions
    raise PathCollisionError; persistent failures stay in the returned
    results for the caller to judge.
    """
    opts = opts or TrackOptions()
    starts = [np.asarray(s, dtype=complex) for s in starts]
    sep = min_separation(starts)
    if sep <= COLLISION_TOL:
        raise ValueError(f"starts are not distinct: two lie {sep:.3e} apart")

    results = track_many(h, starts, opts, record_trace)
    _rescue_failures(h, starts, results, opts, record_trace)
    collide = _endpoints_collide(results)
    for round_ in range(max_retry_rounds):
        if gen is None or not (collide or any(not r.success for r in results)):
            break
        shrink = 2 ** (round_ + 1)
        opts_retry = replace(
            opts,
            initial_dt=max(opts.min_dt, opts.initial_dt / shrink),
            max_dt=max(opts.min_dt, opts.max_dt / shrink),
        )
        h_retry = h.with_gamma(fresh_gamma(gen))
        results = track_many(h_retry, starts, opts_retry, record_trace)
        _rescue_failures(h_retry, starts, results, opts_retry, record_trace)
        collide = _endpoints_collide(results)
    if collide:
        raise PathCollisionError("coincident endpoints persist after retries")
    return results
