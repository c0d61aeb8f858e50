"""Recursive construction of the master set of solutions.

The recursion grows the second named condition mu one box at a time.
Solutions of a child problem (lam, nu') embed into the parent chart of
(lam, nu) by inserting a zero at the variable the growth removed; the
embedded points satisfy the degenerate system whose moving equation uses
the special plane G_nu, and the tracker carries them along the pencil

    gamma t det [E over G_m] + (1-t) det [E over G_nu] = 0

to solutions of the parent problem with its last general plane G_m.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rng import Lcg64
from .schubert import (
    Partition,
    ProblemInstance,
    SkewChart,
    StackedSystem,
    chart,
    children,
    count_solutions,
    is_dual_pair,
    special_plane,
)
from .tracker import (
    COLLISION_TOL,
    LinearHomotopy,
    PathCollisionError,
    TrackOptions,
    fresh_gamma,
    min_separation,
    refine_many,
    track_all,
)


class CountMismatchError(RuntimeError):
    """A recursion node did not produce its expected number of solutions."""


class MasterVerificationError(ValueError):
    """A master set failed its independent re-check.  A ValueError, as the
    set is the rejected argument, but a numerical failure to the CLI."""


@dataclass(frozen=True)
class ChildEmbedding:
    """How child-chart coordinates sit inside a parent chart.

    The child chart's variable cells are exactly the parent's minus the
    parent's rightmost cell in grown_row; remaining variables line up by
    shared row-major position, so embedding is insertion of one zero.
    """

    child: Partition
    grown_row: int
    parent_var_index: int


def child_embedding(parent_chart: SkewChart, child: Partition) -> ChildEmbedding:
    nu = parent_chart.problem.mu
    grown = [i for i in range(len(nu)) if child[i] != nu[i]]
    if len(grown) != 1 or child[grown[0]] != nu[grown[0]] + 1:
        raise ValueError(f"{child} does not cover {nu}")
    row = grown[0]
    col = parent_chart.rightmost_cols[row]
    if parent_chart.cell_kind(row, col) != "var":
        raise ValueError(f"row {row} of the chart has no variable to zero")
    return ChildEmbedding(child, row, parent_chart.var_index(row, col))


def embed_child(x_child, embedding: ChildEmbedding) -> np.ndarray:
    """Insert the zero the child's extra condition pinned."""
    return np.insert(np.asarray(x_child, dtype=complex), embedding.parent_var_index, 0.0)


@dataclass
class MasterSet:
    """All solutions of one problem instance, canonically ordered."""

    instance: ProblemInstance
    solutions: list[np.ndarray]
    residual_max: float

    @property
    def problem(self):
        return self.instance.problem

    @property
    def seed(self) -> int:
        return self.instance.seed

    def __len__(self) -> int:
        return len(self.solutions)


@dataclass
class VerifyReport:
    ok: bool
    expected_count: int
    actual_count: int
    residual_max: float
    min_separation: float
    issues: list[str] = field(default_factory=list)


def canonical_order(solutions) -> list[np.ndarray]:
    """Sort lexicographically by interleaved (real, imag) coordinate parts."""
    def key(x):
        parts = []
        for z in x:
            parts.extend((z.real, z.imag))
        return tuple(parts)

    return sorted((np.asarray(s, dtype=complex) for s in solutions), key=key)


def solve_master(
    instance: ProblemInstance,
    opts: TrackOptions | None = None,
    gen: Lcg64 | None = None,
    stats: dict | None = None,
) -> MasterSet:
    """Solve the instance by recursion on the second named condition.

    Each node is validated against its exact count; a mismatch triggers
    one full restart with a fresh gamma stream (the planes are kept)
    before CountMismatchError is raised.  Pass a dict as stats to collect
    per-node path accounting.
    """
    opts = opts or TrackOptions()
    if gen is None:
        gen = Lcg64(instance.seed).spawn()
    last_error: Exception | None = None
    for _ in range(2):
        try:
            return _solve_once(instance, opts, gen, stats)
        except (CountMismatchError, PathCollisionError) as e:
            last_error = e
    raise CountMismatchError(f"master solve failed twice: {last_error}")


def _solve_once(instance, opts, gen, stats) -> MasterSet:
    problem = instance.problem
    k, q = problem.k, problem.q
    planes = instance.planes
    memo: dict[Partition, list[np.ndarray]] = {}
    node_stats: list[dict] = []

    def solve(nu: Partition, depth: int) -> list[np.ndarray]:
        if nu in memo:
            return memo[nu]
        sub = problem.with_mu(nu)
        expected = count_solutions(sub)
        mv = sub.num_moving
        if mv == 0:
            sols = [np.zeros(0, dtype=complex)] if is_dual_pair(problem.lam, nu, q) else []
            node_stats.append(
                {"nu": nu, "depth": depth, "base": True, "paths": 0, "expected": expected,
                 "children": []}
            )
            memo[nu] = sols
            return sols

        chart_nu = chart(sub)
        live = [c for c in children(nu, q) if count_solutions(problem.with_mu(c)) > 0]
        starts: list[np.ndarray] = []
        for child in live:
            child_sols = solve(child, depth + 1)
            emb = child_embedding(chart_nu, child)
            starts.extend(embed_child(s, emb) for s in child_sols)

        h = LinearHomotopy(
            chart_nu,
            list(planes[: mv - 1]),
            special_plane(k, problem.n, nu),
            planes[mv - 1],
            fresh_gamma(gen),
        )
        starts = list(refine_many(h, starts, 0.0, opts.newton_tol)[0])
        results = track_all(h, starts, opts, gen)
        sols = [r.endpoint for r in results if r.success]
        node_stats.append(
            {"nu": nu, "depth": depth, "base": False, "paths": len(starts),
             "expected": expected, "children": live}
        )
        if len(sols) != expected:
            raise CountMismatchError(
                f"node {nu}: tracked {len(sols)} of {expected} solutions"
            )
        memo[nu] = sols
        return sols

    roots = canonical_order(solve(problem.mu, 0))
    if stats is not None:
        stats["nodes"] = node_stats
        stats["max_depth"] = max((s["depth"] for s in node_stats), default=0)
    residual_max = float(np.max(_residuals(instance, roots), initial=0.0))
    return MasterSet(instance, roots, residual_max)


def _residuals(instance: ProblemInstance, points) -> np.ndarray:
    """Largest equation residual at each point, in one batched evaluation."""
    problem = instance.problem
    if problem.num_moving == 0 or not len(points):
        return np.zeros(len(points))
    system = StackedSystem(chart(problem), list(instance.planes))
    return np.max(np.abs(system.values_many(points)), axis=1)


def verify_master(master: MasterSet, instance: ProblemInstance | None = None) -> VerifyReport:
    """Independent re-check of a master set against its instance.

    Recomputes residuals, measures the minimum pairwise separation and
    compares the count against the exact recursion count.
    """
    instance = instance or master.instance
    expected = count_solutions(instance.problem)
    issues: list[str] = []
    residuals = _residuals(instance, master.solutions)
    residual_max = float(np.max(residuals, initial=0.0))
    for i, r in enumerate(residuals):
        if r >= 1e-8:
            issues.append(f"solution {i} residual {r:.3e}")
    sols = master.solutions
    min_sep = min_separation(sols)
    if min_sep <= COLLISION_TOL:
        issues.append(f"minimum separation {min_sep:.3e}")
    if len(sols) != expected:
        issues.append(f"count {len(sols)} != expected {expected}")
    return VerifyReport(
        ok=not issues,
        expected_count=expected,
        actual_count=len(sols),
        residual_max=residual_max,
        min_separation=min_sep,
        issues=issues,
    )
