"""Dense complex linear algebra for small stacked-determinant systems.

Matrices are tiny (k rarely above 5) but evaluations are numerous, so
the batched (..., k, k) entry points matter more than any single
factorization.  Every batched determinant up to LEIBNIZ_MAX_N rows,
minors included, is the exact Leibniz expansion (_leibniz), a sum of
signed products of entries, which beats a LAPACK factorization at
these sizes and gives exactly 0 on an integer singular matrix; larger
matrices go to LAPACK through numpy.  Three operations are not routine:

* kernel_basis reduces a determinant with fixed bottom rows to a small
  one: det [E over G] = det(E K) for a suitably scaled kernel basis K
  of G, whatever the top rows E.
* Cofactors: the derivative of det(A) with respect to entry (r, c) is
  the (r, c) cofactor, and determinantal systems are evaluated at
  points where A is singular by construction, so cofactors cannot be
  read off det(A) * inv(A).  They are computed as signed determinants
  of the (k-1) x (k-1) minors, which is exact at singular A and needs
  no special case for k = 1 (an empty minor has determinant 1).  One
  gather collects the Leibniz factors of every minor at once.
* laplace_det expands a determinant along one row from that row's
  cofactors, so an evaluation that needs the cofactors anyway gets the
  determinant for k multiplications; an evaluation of values alone
  computes the one row of cofactors and expands the same way, which
  keeps the two bit-identical.

Every batched routine treats each matrix of a stack on its own, so a
result does not depend on what else shares its batch.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

# largest matrix size whose determinant takes the Leibniz expansion.  Its
# n! products of n entries cost a few numpy calls per stack, LAPACK a
# factorization per matrix: Leibniz wins by 8x on the stacks of 2x2
# minors of a k = 3 evaluation, breaks even on a few dozen 3x3 or 4x4
# matrices, wins again on large 4x4 stacks and loses by 2.4x at n = 5
LEIBNIZ_MAX_N = 4


def echelon_pivots(a: np.ndarray) -> np.ndarray:
    """Pivot magnitudes of a rectangular row-echelon reduction.

    Used as a cheap full-rank proxy: a (q x n) matrix with q <= n has
    full row rank when all q pivots stay above a relative threshold.
    """
    a = np.array(a, dtype=complex)
    q, n = a.shape
    pivots = []
    row = 0
    for col in range(n):
        if row == q:
            break
        p = row + int(np.argmax(np.abs(a[row:, col])))
        if abs(a[p, col]) == 0.0:
            continue
        a[[row, p]] = a[[p, row]]
        pivots.append(abs(a[row, col]))
        a[row + 1 :, col:] -= np.outer(a[row + 1 :, col] / a[row, col], a[row, col:])
        row += 1
    return np.array(pivots)


def kernel_basis(g: np.ndarray) -> np.ndarray:
    """A basis K (n x k) of the kernel of the full-rank q x n matrix g,
    k = n - q, scaled so that det [e over g] = det(e K) for every k x n e.

    With g's columns split into q pivot columns A, chosen by complete
    pivoting, and the other k columns B, K is -g_A^-1 g_B on A and the
    identity on B.  Since [e over g] [I, -g_A^-1 g_B; 0, I] (columns
    ordered A then B) has a zero lower-right block,
    det [e over g] = sign * (-1)^(kq) det(g_A) det(e K), with sign the
    parity of the column order (A, B); that factor is folded into K's
    first column.
    """
    g = np.asarray(g, dtype=complex)
    q, n = g.shape
    a = g.copy()
    order = np.arange(n)
    for r in range(q):
        i, j = np.unravel_index(np.argmax(np.abs(a[r:, r:])), (q - r, n - r))
        a[[r, r + i]] = a[[r + i, r]]
        a[:, [r, r + j]] = a[:, [r + j, r]]
        order[[r, r + j]] = order[[r + j, r]]
        a[r + 1 :, r:] -= np.outer(a[r + 1 :, r] / a[r, r], a[r, r:])
    # sorted() rather than np.sort: numpy's sort kernels are not loaded
    # anywhere else on the solve path and would cost resident memory
    cols_a, cols_b = sorted(order[:q].tolist()), sorted(order[q:].tolist())
    g_a = g[:, cols_a]
    basis = np.zeros((n, n - q), dtype=complex)
    basis[cols_a] = -np.linalg.solve(g_a, g[:, cols_b])
    basis[cols_b] = np.eye(n - q)
    inversions = sum(b < a for a in cols_a for b in cols_b)
    basis[:, 0] *= (-1) ** (q * (n - q) + inversions) * np.linalg.det(g_a)
    return basis


# ----------------------------------------------------------------- batched
# Hot-path variants over a stack of matrices sharing shape (..., k, k).


@functools.lru_cache(maxsize=None)
def _leibniz_terms(n: int) -> np.ndarray:
    """Flat indices (n, n!) into an n x n matrix of the entries of each
    Leibniz product, factor i of every product in row i, one permutation
    a column, the even permutations first; frozen, like _cofactor_index's
    arrays."""
    def parity(p):
        return sum(a > b for i, a in enumerate(p) for b in p[i + 1 :]) % 2

    perms = sorted(itertools.permutations(range(n)), key=parity)
    index = (np.arange(n) * n + np.array(perms, dtype=int).reshape(len(perms), n)).T.copy()
    index.setflags(write=False)
    return index


def _pairwise_sum(terms: np.ndarray) -> np.ndarray:
    """Sum along the last axis in halves, by elementwise additions in an
    order fixed by its length alone."""
    while terms.shape[-1] > 1:
        half = terms.shape[-1] // 2
        total = terms[..., :half] + terms[..., half : 2 * half]
        if terms.shape[-1] % 2:
            total[..., :1] += terms[..., -1:]
        terms = total
    return terms[..., 0]


def _leibniz(factors: np.ndarray) -> np.ndarray:
    """Determinants from their gathered Leibniz factors, shape
    (..., n, n!) as _leibniz_terms(n) orders them: the even products
    minus the odd ones."""
    n = factors.shape[-2]
    if n == 0:
        return np.ones(factors.shape[:-2], dtype=factors.dtype)
    terms = factors[..., 0, :]
    for i in range(1, n):
        terms = terms * factors[..., i, :]
    if n > 1:
        half = terms.shape[-1] // 2
        terms = terms[..., :half] - terms[..., half:]
    return _pairwise_sum(terms)


def _det(stacks: np.ndarray) -> np.ndarray:
    """Determinants of a stack of square matrices, shape (..., n, n).

    Up to LEIBNIZ_MAX_N, the even products minus the odd ones.  Only
    elementwise binary operations touch the entries, in an order fixed
    by n: a reduction (or a BLAS product) may take another loop, with
    other rounding, depending on the memory layout of the whole stack,
    and so tie a matrix's determinant to its batch.  Above the cutoff
    LAPACK's LU through numpy.
    """
    stacks = np.asarray(stacks)
    if stacks.ndim < 2 or stacks.shape[-1] != stacks.shape[-2]:
        raise ValueError(f"expected a stack of square matrices, got shape {stacks.shape}")
    n = stacks.shape[-1]
    if n > LEIBNIZ_MAX_N:
        return np.linalg.det(stacks)
    if stacks.dtype.kind not in "fc":
        stacks = stacks.astype(float)
    return _leibniz(stacks.reshape(stacks.shape[:-2] + (n * n,))[..., _leibniz_terms(n)])


def batched_det(stacks: np.ndarray) -> np.ndarray:
    return _det(stacks)


@functools.lru_cache(maxsize=256)
def _cofactor_index(n: int, rows: tuple[int, ...]):
    """Gather index into a flattened n x n matrix for the cofactors
    along the given rows, and their signs (len(rows), n); frozen, since
    the cache hands the same arrays to every caller.

    When the (n-1) x (n-1) minors take the Leibniz expansion the index
    has shape (len(rows), n, n-1, (n-1)!) and picks every minor's
    Leibniz factors at once; otherwise (len(rows), n, n-1, n-1), the
    minors themselves.
    """
    if not all(0 <= r < n for r in rows):
        raise ValueError(f"rows {rows} outside a {n}x{n} matrix")
    r = np.array(rows, dtype=int)
    c = np.arange(n)
    t = np.arange(n - 1)  # t + (t >= j) runs over range(n) without j
    index = (n * (t + (t >= r[:, None]))[:, None, :, None]
             + (t + (t >= c[:, None]))[None, :, None, :])
    if n - 1 <= LEIBNIZ_MAX_N:
        index = index.reshape(len(rows), n, (n - 1) ** 2)[..., _leibniz_terms(n - 1)]
    sign = 1 - 2 * ((r[:, None] + c) % 2)
    for a in (index, sign):
        a.setflags(write=False)
    return index, sign


def batched_rows_cofactors(stacks: np.ndarray, rows) -> np.ndarray:
    """Cofactor rows for every matrix in the stack at each requested row.

    stacks has shape (..., n, n); the result has shape (len(rows), ..., n)
    with result[i, ...] the cofactors of stacks[...] along row rows[i].
    One gather collects, for every (n-1) x (n-1) minor the rows need,
    its Leibniz factors (above LEIBNIZ_MAX_N its entries, for LAPACK),
    and one batched evaluation gives all the minors.
    """
    n = stacks.shape[-1]
    index, sign = _cofactor_index(n, tuple(int(r) for r in rows))
    gathered = stacks.reshape(stacks.shape[:-2] + (n * n,))[..., index]
    minors = _leibniz(gathered) if n - 1 <= LEIBNIZ_MAX_N else np.linalg.det(gathered)
    cof = sign * minors
    nd = cof.ndim
    return cof.transpose(nd - 2, *range(nd - 2), nd - 1)


def laplace_det(stacks: np.ndarray, row: int, cofactors: np.ndarray) -> np.ndarray:
    """Determinants of a stack (..., n, n) expanded along one row, from
    that row's cofactors (..., n).

    The products are summed in halves by elementwise additions, so each
    determinant depends on its own matrix alone; two callers that pass
    the same cofactors get the same bits.
    """
    return _pairwise_sum(stacks[..., row, :] * cofactors)
