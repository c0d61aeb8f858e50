"""Schubert problem combinatorics and determinantal equations.

A simple Schubert problem on the Grassmannian G(k, n) carries two named
partitions lam and mu plus m = k(n-k) - |lam| - |mu| single-box
conditions, each imposed by a general (n-k)-plane.  Points of the
intersection live in a skew chart: a k x n echelon matrix whose free
entries are the unknowns, with one determinant equation per general
plane,

    det [ E(x) over G_j ] = 0,        j = 1..m.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .rng import Lcg64

Partition = tuple[int, ...]

FULL_RANK_REL_TOL = 1e-10


class IncompatibleConditionsError(ValueError):
    """The two named conditions cannot be met by any k-plane."""


class EmptyProblemError(ValueError):
    """A zero-dimensional problem whose named conditions are not dual."""


def normalize_partition(parts, k: int, max_part: int) -> Partition:
    """Validate a partition and zero-pad it to length k.

    Accepts any iterable of non-negative, weakly decreasing integers of
    length at most k with largest part at most max_part.
    """
    parts = tuple(int(p) for p in parts)
    if len(parts) > k:
        raise ValueError(f"partition {parts} has more than {k} parts")
    if any(p < 0 for p in parts):
        raise ValueError(f"partition {parts} has a negative part")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"partition {parts} is not weakly decreasing")
    if parts and parts[0] > max_part:
        raise ValueError(f"part {parts[0]} exceeds the box width {max_part}")
    return parts + (0,) * (k - len(parts))


def box_partition(k: int) -> Partition:
    """The single-box condition (1, 0, ..., 0) of length k."""
    return (1,) + (0,) * (k - 1)


@dataclass(frozen=True)
class SimpleSchubertProblem:
    """Two named conditions lam, mu on G(k, n) plus m single-box conditions."""

    k: int
    n: int
    lam: Partition
    mu: Partition

    def __post_init__(self):
        if not 0 < self.k < self.n:
            raise ValueError(f"need 0 < k < n, got k={self.k}, n={self.n}")
        object.__setattr__(self, "lam", normalize_partition(self.lam, self.k, self.q))
        object.__setattr__(self, "mu", normalize_partition(self.mu, self.k, self.q))
        if self.num_moving < 0:
            raise ValueError(
                f"|lam| + |mu| = {sum(self.lam) + sum(self.mu)} exceeds k(n-k) = {self.k * self.q}"
            )

    @property
    def q(self) -> int:
        return self.n - self.k

    @property
    def num_moving(self) -> int:
        """Number m of single-box conditions, also the chart dimension."""
        return self.k * self.q - sum(self.lam) - sum(self.mu)

    def with_mu(self, nu: Partition) -> "SimpleSchubertProblem":
        return replace(self, mu=tuple(nu))


def is_dual_pair(lam: Partition, mu: Partition, q: int) -> bool:
    """True when lam_i + mu_{k+1-i} = n-k for every i (unique common point)."""
    k = len(lam)
    return all(lam[i] + mu[k - 1 - i] == q for i in range(k))


@dataclass(frozen=True, eq=False)
class SkewChart:
    """Echelon coordinate chart for the pairs of conditions (lam, mu).

    Row i (0-based) has a constant 1 in column one_cols[i], free entries
    in the columns strictly after it up to rightmost_cols[i], and zeros
    elsewhere.  Variables are indexed row-major over var_cells.
    """

    problem: SimpleSchubertProblem
    one_cols: tuple[int, ...]
    rightmost_cols: tuple[int, ...]
    var_cells: tuple[tuple[int, int], ...]

    @property
    def num_vars(self) -> int:
        return len(self.var_cells)

    def var_index(self, row: int, col: int) -> int:
        return self.var_cells.index((row, col))

    def cell_kind(self, row: int, col: int) -> str:
        if col == self.one_cols[row]:
            return "one"
        if self.one_cols[row] < col <= self.rightmost_cols[row]:
            return "var"
        return "zero"

    def instantiate(self, x) -> np.ndarray:
        """The k x n chart matrix at coordinates x."""
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.num_vars,):
            raise ValueError(f"expected {self.num_vars} coordinates, got {x.shape}")
        k, n = self.problem.k, self.problem.n
        e = np.zeros((k, n), dtype=complex)
        for i, c in enumerate(self.one_cols):
            e[i, c] = 1.0
        for v, (i, j) in enumerate(self.var_cells):
            e[i, j] = x[v]
        return e

    def rightmost_values(self, x) -> np.ndarray:
        """Rightmost non-zero entry of each row (a variable, or the 1)."""
        x = np.asarray(x, dtype=complex)
        vals = np.ones(self.problem.k, dtype=complex)
        for v, (i, j) in enumerate(self.var_cells):
            if j == self.rightmost_cols[i]:
                vals[i] = x[v]
        return vals


def chart(problem: SimpleSchubertProblem) -> SkewChart:
    """Build the skew chart E_{lam,mu}, or raise when the cell is empty.

    Raises IncompatibleConditionsError when some row's fixed 1 would land
    beyond its rightmost allowed column while the problem still has
    moving conditions, and EmptyProblemError for a zero-dimensional
    problem whose named conditions are not dual.
    """
    k, n, q = problem.k, problem.n, problem.q
    lam, mu = problem.lam, problem.mu
    if problem.num_moving == 0:
        if not is_dual_pair(lam, mu, q):
            raise EmptyProblemError(f"conditions {lam}, {mu} on G({k},{n}) share no point")
    one_cols = []
    rightmost = []
    cells = []
    for i in range(1, k + 1):
        c1 = i + lam[k - i]  # 1-based column of the fixed 1
        r = n - k + i - mu[i - 1]  # 1-based rightmost allowed column
        if c1 > r:
            raise IncompatibleConditionsError(
                f"conditions {lam}, {mu} on G({k},{n}) are incompatible in row {i}"
            )
        one_cols.append(c1 - 1)
        rightmost.append(r - 1)
        cells.extend((i - 1, j) for j in range(c1, r))
    return SkewChart(problem, tuple(one_cols), tuple(rightmost), tuple(cells))


def children(nu: Partition, max_part: int) -> list[Partition]:
    """All partitions covering nu: one part grown by 1, still a partition."""
    out = []
    for j in range(len(nu)):
        if nu[j] + 1 > max_part:
            continue
        if j > 0 and nu[j - 1] == nu[j]:
            continue
        out.append(nu[:j] + (nu[j] + 1,) + nu[j + 1 :])
    return out


@functools.lru_cache(maxsize=None)
def _count(k: int, q: int, lam: Partition, nu: Partition) -> int:
    if sum(lam) + sum(nu) == k * q:
        return 1 if is_dual_pair(lam, nu, q) else 0
    return sum(_count(k, q, lam, child) for child in children(nu, q))


def count_solutions(problem: SimpleSchubertProblem) -> int:
    """Number of solutions of the problem for general flags.

    Counts the chains of single-box growths from mu up to the complement
    of lam; exact integer arithmetic, memoized across calls.
    """
    return _count(problem.k, problem.q, problem.lam, problem.mu)


def special_plane(k: int, n: int, mu: Partition) -> np.ndarray:
    """The degenerate (n-k)-plane G_mu spanned by e_i for i not of the form
    n-k+j-mu_j.

    Rows are standard basis vectors in increasing i, with the first row
    scaled by the sign that makes det [E(x) over G_mu] equal exactly the
    product of the chart's rightmost entries.
    """
    q = n - k
    excluded = {q + j - mu[j - 1] for j in range(1, k + 1)}
    included = [i for i in range(1, n + 1) if i not in excluded]
    g = np.zeros((q, n), dtype=complex)
    for a, i in enumerate(included):
        g[a, i - 1] = 1.0
    g[0] *= (-1) ** (k * q - sum(mu))
    return g


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A problem together with the m general planes cutting it out."""

    problem: SimpleSchubertProblem
    planes: tuple[np.ndarray, ...]
    seed: int

    def __post_init__(self):
        q, n = self.problem.q, self.problem.n
        if len(self.planes) != self.problem.num_moving:
            raise ValueError(
                f"expected {self.problem.num_moving} planes, got {len(self.planes)}"
            )
        for g in self.planes:
            if g.shape != (q, n):
                raise ValueError(f"plane shape {g.shape}, expected ({q}, {n})")
            pivots = linalg.echelon_pivots(g)
            amax = float(np.max(np.abs(g)))
            if len(pivots) < q or pivots.min() <= FULL_RANK_REL_TOL * amax:
                raise ValueError("plane is rank deficient")


def random_instance(
    problem: SimpleSchubertProblem, seed: int, gen: Lcg64 | None = None
) -> ProblemInstance:
    """Draw the m general planes from the seeded generator.

    Entries are uniform on [-1,1) x [-1,1)i; full rank is checked by a
    pivot test (and holds with probability one).
    """
    if gen is None:
        gen = Lcg64(seed)
    planes = tuple(
        gen.complex_matrix(problem.q, problem.n) for _ in range(problem.num_moving)
    )
    return ProblemInstance(problem, planes, seed)


class StackedSystem:
    """Evaluator for the determinants det [E(x) over G_j] and their gradients.

    Each n x n determinant is evaluated as a k x k one: with K_j the
    scaled kernel basis of G_j (linalg.kernel_basis),

        det [E(x) over G_j] = det M_j(x),    M_j(x) = E(x) K_j,

    and M_j is affine in x, M_j(x) = E0 K_j + sum_v x_v A_vj where A_vj
    holds row j_v of K_j in row i_v, for the variable v at chart cell
    (i_v, j_v).  So dM_j/dx_v = A_vj and the Jacobian entry is
    sum_(i,l) cof(M_j)[i, l] A_vj[i, l], over the active rows i, those
    holding variables.  det M_j is the Laplace expansion along the first
    active row, from cofactors the Jacobian needs anyway; values_many
    expands the same way, so both give the same bits.  The planes are
    fixed at construction; kernels, when given, is a dict from plane
    contents to kernel bases that systems built over the same planes
    share, so each distinct plane's kernel is computed once.  Every point
    of a batch is evaluated on its own: a row of a batched result is
    bit-identical to evaluating that point alone.
    """

    def __init__(self, chart_: SkewChart, planes, kernels: dict | None = None):
        self.chart = chart_
        k = chart_.problem.k
        cache = {} if kernels is None else kernels
        bases = []
        for g in planes:
            g = np.asarray(g, dtype=complex)
            key = (g.shape, g.tobytes())
            if key not in cache:
                cache[key] = linalg.kernel_basis(g)
            bases.append(cache[key])
        bases = np.array(bases, dtype=complex).reshape(len(planes), chart_.problem.n, k)
        self._base = bases[:, list(chart_.one_cols), :]
        slopes = np.zeros((chart_.num_vars, len(planes), k, k), dtype=complex)
        for v, (i, j) in enumerate(chart_.var_cells):
            slopes[v, :, i] = bases[:, j]
        self._slopes = slopes
        # cofactor rows are needed only where the chart has variables,
        # and the determinant's first (row 0 for a chart without any)
        self._active_rows = sorted({i for i, _ in chart_.var_cells}) or [0]
        self._active_slopes = slopes[:, :, self._active_rows]

    def _matrices(self, xs) -> np.ndarray:
        """The k x k matrices M_j for a batch of points: (p, num_planes, k, k).

        einsum without optimize never routes through BLAS, whose kernels
        would make a row's rounding depend on the batch size.
        """
        xs = np.asarray(xs, dtype=complex)
        return self._base + np.einsum("pv,vjab->pjab", xs, self._slopes)

    def values_many(self, xs) -> np.ndarray:
        """Determinant values for a batch of points, shape (p, num_planes),
        bit-identical to those of values_and_jacobian_many."""
        m = self._matrices(xs)
        row = self._active_rows[0]
        [cof] = linalg.batched_rows_cofactors(m, (row,))
        return linalg.laplace_det(m, row, cof)

    def values_and_jacobian_many(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """Batched values (p, num_planes) and Jacobians (p, num_planes, nv).

        The value is the Laplace expansion along the first active row,
        from the cofactors the Jacobian needs anyway.
        """
        m = self._matrices(xs)
        cof = linalg.batched_rows_cofactors(m, self._active_rows)
        jac = np.einsum("rpjl,vjrl->pjv", cof, self._active_slopes)
        return linalg.laplace_det(m, self._active_rows[0], cof[0]), jac
