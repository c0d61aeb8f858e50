"""Predictor-corrector path tracking for one-parameter determinant pencils.

The homotopies here keep m-1 plane equations fixed and blend a single
moving equation between two planes,

    H_m(x, t) = (1-t) det [E(x) over G_start] + gamma t det [E(x) over G_target],

which is linear in t.  gamma on the unit circle steers the path around
the discriminant; a fresh draw retries an unlucky path.

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

from . import linalg
from .rng import Lcg64
from .schubert import SkewChart, StackedSystem

COLLISION_TOL = 1e-6
MAX_RETRY_ROUNDS = 3

# progressively gentler step control for re-tracking failed paths under
# the SAME homotopy (more corrector room, deeper dt floor, lower cap)
RESCUE_LADDER = (
    {"iters": 6, "min_dt": 1e-10, "shrink": 4},
    {"iters": 8, "min_dt": 1e-12, "shrink": 16},
)


class PathCollisionError(RuntimeError):
    """Two tracked paths still share an endpoint after retries."""


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
        if not 0 < self.min_dt <= self.initial_dt <= self.max_dt <= 1:
            raise ValueError("need 0 < min_dt <= initial_dt <= max_dt <= 1")
        if self.newton_tol <= 0 or self.max_newton_iters < 1:
            raise ValueError("bad Newton options")


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
    """Fixed plane equations plus one moving equation, linear in t."""

    def __init__(self, chart_: SkewChart, fixed_planes, start_plane, target_plane,
                 gamma: complex = 1.0):
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
            chart_, self.fixed_planes + [self.start_plane, self.target_plane]
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

    @property
    def num_vars(self) -> int:
        return self.chart.num_vars

    def values_many(self, xs, ts) -> np.ndarray:
        """H at a batch of points, shape (p, num_vars)."""
        vals = self._system.values_many(xs)
        moving = (1.0 - ts) * vals[:, -2] + (self.gamma * ts) * vals[:, -1]
        return np.concatenate([vals[:, :-2], moving[:, None]], axis=1)

    def evaluate_many(self, xs, ts):
        """Batched H, Jacobian H_x and t-derivative H_t."""
        vals, jac = self._system.values_and_jacobian_many(xs)
        w0 = 1.0 - ts
        w1 = self.gamma * ts
        h = np.concatenate(
            [vals[:, :-2], (w0 * vals[:, -2] + w1 * vals[:, -1])[:, None]], axis=1
        )
        hx = np.concatenate(
            [jac[:, :-2], (w0[:, None] * jac[:, -2] + w1[:, None] * jac[:, -1])[:, None]],
            axis=1,
        )
        ht = np.zeros_like(h)
        ht[:, -1] = -vals[:, -2] + self.gamma * vals[:, -1]
        return h, hx, ht

    def values(self, x, t: float) -> np.ndarray:
        xs = np.asarray(x, dtype=complex)[None]
        return self.values_many(xs, np.array([float(t)]))[0]

    def residual(self, x, t: float) -> float:
        v = self.values(x, t)
        return float(np.max(np.abs(v))) if len(v) else 0.0

    def evaluate(self, x, t: float):
        """H(x, t), the Jacobian H_x and the t-derivative H_t."""
        xs = np.asarray(x, dtype=complex)[None]
        h, hx, ht = self.evaluate_many(xs, np.array([float(t)]))
        return h[0], hx[0], ht[0]


def _solve_batch(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve a[i] x[i] = b[i] for a batch; flags singular members instead
    of raising."""
    p = b.shape[0]
    sing = np.zeros(p, dtype=bool)
    try:
        x = np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        x = np.zeros_like(b)
        for i in range(p):
            try:
                x[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                sing[i] = True
        return x, sing
    bad = ~np.all(np.isfinite(x), axis=1)
    if bad.any():
        sing |= bad
    return x, sing


def _residual_many(h: LinearHomotopy, xs, ts) -> np.ndarray:
    vals = h.values_many(xs, ts)
    return np.max(np.abs(vals), axis=1)


def _newton_many(h: LinearHomotopy, xn: np.ndarray, tn: np.ndarray,
                 opts: TrackOptions) -> np.ndarray:
    """Newton-correct a batch in place; True where the iteration converged.

    Per path this is the classical loop: converge when the step is small
    relative to the point, give up after two consecutive step growths or
    a singular Jacobian, stall when iterations run out.
    """
    p = len(xn)
    conv = np.zeros(p, dtype=bool)
    dead = np.zeros(p, dtype=bool)
    grew = np.zeros(p, dtype=int)
    prev = np.full(p, np.inf)
    for _ in range(opts.max_newton_iters):
        ia = np.flatnonzero(~(conv | dead))
        if len(ia) == 0:
            break
        hv, hx, _ = h.evaluate_many(xn[ia], tn[ia])
        delta, sing = _solve_batch(hx, -hv)
        dead[ia[sing]] = True
        good = ia[~sing]
        if len(good) == 0:
            continue
        d = delta[~sing]
        xn[good] += d
        nd = np.linalg.norm(d, axis=1)
        scale = np.maximum(1.0, np.linalg.norm(xn[good], axis=1))
        just_conv = nd <= opts.newton_tol * scale
        conv[good[just_conv]] = True
        rest = good[~just_conv]
        nd_rest = nd[~just_conv]
        grew[rest] = np.where(nd_rest >= prev[rest], grew[rest] + 1, 0)
        dead[rest[grew[rest] >= 2]] = True
        prev[rest] = nd_rest
    return conv


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
        nd = np.linalg.norm(d, axis=1)
        done = nd <= tol * np.maximum(1.0, np.linalg.norm(x[good], axis=1))
        act[good[done]] = False
    return best, best_res


def refine(h: LinearHomotopy, x, t: float, tol: float, max_iters: int = 12) -> np.ndarray:
    """Polish x against H(., t); returns the best point seen (never worse)."""
    best, _ = refine_many(h, np.asarray(x, dtype=complex)[None], t, tol, max_iters)
    return best[0]


def track_many(h: LinearHomotopy, starts, opts: TrackOptions | None = None,
               record_trace: bool = False) -> list[PathResult]:
    """Track each start from t=0 to t=1; results align with the starts.

    First-order predictor dx = -dt * Hx^-1 Ht, Newton corrector at the
    advanced t; dt halves on corrector failure and doubles after
    expand_after consecutive accepted steps.  Endpoints are polished to
    endpoint_tol and must leave residual below residual_tol.  All paths
    advance together with the linear algebra batched across them.
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
    status: list[TrackStatus | None] = [None] * p
    traces = [[(0.0, X[i].copy())] for i in range(p)] if record_trace else None

    while True:
        idx = np.array(
            [i for i in range(p) if status[i] is None and t[i] < 1.0 - 1e-14],
            dtype=int,
        )
        if len(idx) == 0:
            break
        dt_eff = np.minimum(dt[idx], 1.0 - t[idx])
        _, hx, ht = h.evaluate_many(X[idx], t[idx])
        v, sing = _solve_batch(hx, ht)
        for i in idx[sing]:
            status[i] = TrackStatus.SINGULAR
        live = idx[~sing]
        if len(live) == 0:
            continue
        de = dt_eff[~sing]
        xn = X[live] - de[:, None] * v[~sing]
        tn = t[live] + de
        conv = _newton_many(h, xn, tn, opts)
        accept = conv.copy()
        if conv.any():
            res = _residual_many(h, xn[conv], tn[conv])
            accept[conv] = res < opts.residual_tol
        for j, i in enumerate(live):
            if accept[j]:
                X[i] = xn[j]
                t[i] = tn[j]
                steps[i] += 1
                streak[i] += 1
                if traces is not None:
                    traces[i].append((float(t[i]), X[i].copy()))
                if streak[i] >= opts.expand_after:
                    dt[i] = min(2.0 * dt[i], opts.max_dt)
                    streak[i] = 0
            else:
                streak[i] = 0
                dt[i] *= 0.5
                if dt[i] < opts.min_dt:
                    status[i] = TrackStatus.STEP_UNDERFLOW

    results: list[PathResult | None] = [None] * p
    fin = [i for i in range(p) if status[i] is None]
    if fin:
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


def track_path(h: LinearHomotopy, start, opts: TrackOptions | None = None,
               record_trace: bool = False) -> PathResult:
    """Track one solution of the start system from t=0 to t=1."""
    return track_many(h, [start], opts, record_trace)[0]


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


def _collision_pairs(results) -> list[tuple[int, int]]:
    pairs = []
    done = [(i, r) for i, r in enumerate(results) if r.success]
    for a in range(len(done)):
        for b in range(a + 1, len(done)):
            i, ri = done[a]
            j, rj = done[b]
            if np.linalg.norm(ri.endpoint - rj.endpoint) < COLLISION_TOL:
                pairs.append((i, j))
    return pairs


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
    for i in range(len(starts)):
        for j in range(i + 1, len(starts)):
            if np.linalg.norm(starts[i] - starts[j]) <= COLLISION_TOL:
                raise ValueError(f"starts {i} and {j} are not distinct")

    results = track_many(h, starts, opts, record_trace)
    _rescue_failures(h, starts, results, opts, record_trace)
    for round_ in range(max_retry_rounds):
        defective = any(not r.success for r in results) or _collision_pairs(results)
        if not defective or gen is None:
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
    if _collision_pairs(results):
        raise PathCollisionError("coincident endpoints persist after retries")
    return results
