"""Monodromy loops that permute the master set.

Every loop moves only the last plane G_m, one row per leg, so each leg's
moving equation stays linear in t.  With G_m = (g_1, ..., g_q) and a
fresh random plane G' = (g'_1, ..., g'_q):

  * long walks every row out to G' and every row back: 2q legs,
  * short walks two rows out and the same two rows back: 4 legs,
  * half walks one row out and back, the return leg twisted by a random
    unit gamma (out-and-back with gamma = 1 would retrace itself): 2 legs.

When q = 1 every strategy degenerates to the half loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import GroupVerdict, as_permutation, is_full_symmetric
from .pieri import MasterSet, MasterVerificationError, verify_master
from .rng import Lcg64
from .schubert import ProblemInstance, chart
from .tracker import (
    LinearHomotopy,
    PathCollisionError,
    TrackOptions,
    fresh_gamma,
    nearest_neighbours,
    track_all,
)

STRATEGIES = ("long", "short", "half")
MATCH_TOL = 1e-6
MATCH_RATIO = 10.0
MAX_LOOP_RETRIES = 3


class MatchAmbiguityError(RuntimeError):
    """An endpoint could not be matched to a unique master point."""


def loop_stream(seed: int) -> Lcg64:
    """The loop generator for a given seed: the second child of the seed
    stream (the first child belongs to the master solve)."""
    root = Lcg64(seed)
    root.next_u64()
    return root.spawn()


class NotBijectiveError(RuntimeError):
    """Two endpoints matched the same master point."""


@dataclass
class Loop:
    """A closed walk of the last plane, as a list of one-row-moving legs."""

    strategy: str
    legs: list[LinearHomotopy]
    base_plane: np.ndarray
    fresh_plane: np.ndarray

    def with_fresh_gammas(self, gen: Lcg64) -> "Loop":
        legs = [h.with_gamma(fresh_gamma(gen)) for h in self.legs]
        return Loop(self.strategy, legs, self.base_plane, self.fresh_plane)


def _leg_vertices(base: np.ndarray, fresh: np.ndarray, strategy: str) -> list[np.ndarray]:
    q = base.shape[0]
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if q == 1 or strategy == "half":
        v1 = base.copy()
        v1[0] = fresh[0]
        return [base, v1, base]
    if strategy == "short":
        rows = [0, 1, 0, 1]
    else:  # long: every row out, every row back
        rows = list(range(q)) + list(range(q))
    vertices = [base]
    current = base.copy()
    for step, r in enumerate(rows):
        outward = step < len(rows) // 2
        current = current.copy()
        current[r] = fresh[r] if outward else base[r]
        vertices.append(current)
    return vertices


def make_loop(
    instance: ProblemInstance,
    strategy: str,
    gen: Lcg64,
    fresh_plane: np.ndarray | None = None,
) -> Loop:
    """Build a loop moving the last plane toward a fresh random plane.

    The half loop's return leg carries a random unit gamma; the other
    strategies traverse genuinely distinct edges and keep gamma = 1.
    """
    problem = instance.problem
    if problem.num_moving < 1:
        raise ValueError("no moving plane to loop")
    base = instance.planes[-1]
    if fresh_plane is None:
        fresh_plane = gen.complex_matrix(problem.q, problem.n)
    else:
        fresh_plane = np.asarray(fresh_plane, dtype=complex)
    vertices = _leg_vertices(base, fresh_plane, strategy)
    chart_ = chart(problem)
    fixed = list(instance.planes[:-1])
    half_like = len(vertices) == 3
    legs = []
    for i in range(len(vertices) - 1):
        gamma = fresh_gamma(gen) if (half_like and i == 1) else 1.0
        legs.append(LinearHomotopy(chart_, fixed, vertices[i], vertices[i + 1], gamma))
    return Loop(strategy, legs, base, fresh_plane)


def _match_endpoints(endpoints, master_points) -> np.ndarray:
    """Nearest-neighbour matching with distance and dominance guards:
    each endpoint must lie within MATCH_TOL of its nearest master point
    and MATCH_RATIO times closer to it than to the second-nearest."""
    images, nearest, second = nearest_neighbours(endpoints, master_points)
    far = nearest > MATCH_TOL
    tied = second < MATCH_RATIO * np.maximum(nearest, 1e-300)
    bad = np.flatnonzero(far | tied)
    if len(bad):
        i = bad[0]
        if far[i]:
            raise MatchAmbiguityError(
                f"endpoint {i} is {nearest[i]:.3e} from the nearest master point"
            )
        raise MatchAmbiguityError(
            f"endpoint {i} is ambiguous: second-nearest within 10x of nearest"
        )
    if len(set(images.tolist())) != len(images):
        raise NotBijectiveError("two endpoints matched the same master point")
    return as_permutation(images, len(master_points))


def _track_loop(master: MasterSet, loop: Loop, opts: TrackOptions,
                record_trace: bool = False):
    """Carry every master point through all legs; no per-path retries.

    Re-tracking a single path with its own gamma would mix lifts of two
    different loops, so failures surface immediately and the caller
    retries the loop as a whole.
    """
    points = [s.copy() for s in master.solutions]
    traces = [[] for _ in points] if record_trace else None
    for leg_idx, h in enumerate(loop.legs):
        results = track_all(h, points, opts, gen=None, record_trace=record_trace,
                            max_retry_rounds=0)
        failed = [i for i, r in enumerate(results) if not r.success]
        if failed:
            raise MatchAmbiguityError(
                f"leg {leg_idx}: {len(failed)} paths failed ({results[failed[0]].status.value})"
            )
        if record_trace:
            for i, r in enumerate(results):
                traces[i].append((leg_idx, r.trace))
        points = [r.endpoint for r in results]
    return points, traces


def monodromy_permutation(
    master: MasterSet,
    loop: Loop,
    opts: TrackOptions | None = None,
    gen: Lcg64 | None = None,
    record_trace: bool = False,
):
    """The permutation of the master set induced by the loop.

    Returns (permutation, traces).  On tracking failure, collision,
    match ambiguity or non-bijectivity the whole loop is re-tracked with
    fresh per-leg gammas, up to MAX_LOOP_RETRIES times; each successful
    tracking is a genuine monodromy element.
    """
    opts = opts or TrackOptions()
    attempt_loop = loop
    last: Exception | None = None
    for attempt in range(1 + (MAX_LOOP_RETRIES if gen is not None else 0)):
        if attempt > 0:
            attempt_loop = loop.with_fresh_gammas(gen)
        try:
            endpoints, traces = _track_loop(master, attempt_loop, opts, record_trace)
            perm = _match_endpoints(endpoints, master.solutions)
            return perm, traces
        except (MatchAmbiguityError, NotBijectiveError, PathCollisionError) as e:
            last = e
    raise MatchAmbiguityError(f"loop failed after retries: {last}")


@dataclass
class GaloisResult:
    """Verdict of the accumulation plus everything needed to replay it."""

    status: str  # FullSymmetric | Inconclusive
    group: GroupVerdict
    permutations: list[np.ndarray]
    loops: list[dict]
    first_trace: list | None = None

    @property
    def full_symmetric(self) -> bool:
        return self.status == "FullSymmetric"


def accumulate(
    master: MasterSet,
    strategy: str = "short",
    max_loops: int = 50,
    gen: Lcg64 | None = None,
    opts: TrackOptions | None = None,
    record_first_trace: bool = False,
) -> GaloisResult:
    """Collect monodromy permutations until the group is provably full.

    Runs loops of the given strategy, feeding each new permutation to the
    group certifier; stops at FullSymmetric or after max_loops.  The
    verdict is Inconclusive otherwise; proper-subgroup evidence, if any,
    rides along in the group field.
    """
    opts = opts or TrackOptions()
    gen = gen or loop_stream(master.seed)
    d = len(master.solutions)
    report = verify_master(master)
    if not report.ok:
        raise MasterVerificationError(f"master set failed verification: {report.issues}")
    if d <= 1:
        verdict = is_full_symmetric([], d)
        return GaloisResult("FullSymmetric", verdict, [], [])

    perms: list[np.ndarray] = []
    loops: list[dict] = []
    verdict = None
    first_trace = None
    for loop_idx in range(max_loops):
        loop = make_loop(master.instance, strategy, gen)
        want_trace = record_first_trace and loop_idx == 0
        perm, traces = monodromy_permutation(master, loop, opts, gen, want_trace)
        if want_trace:
            first_trace = traces
        perms.append(perm)
        loops.append({"strategy": strategy, "fresh_plane": loop.fresh_plane})
        verdict = is_full_symmetric(perms, d, gen.spawn())
        if verdict.full_symmetric:
            return GaloisResult("FullSymmetric", verdict, perms, loops, first_trace)
    if verdict is None:
        verdict = is_full_symmetric(perms, d, gen.spawn())
    return GaloisResult("Inconclusive", verdict, perms, loops, first_trace)
