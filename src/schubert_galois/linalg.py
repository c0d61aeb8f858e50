"""Dense complex linear algebra for small stacked-determinant systems.

Everything routes through LAPACK via numpy; matrices are tiny (k rarely
above 5) but evaluations are numerous, so the batched (..., k, k) entry
points matter more than any single factorization.  Two operations are
not routine:

* kernel_basis reduces a determinant with fixed bottom rows to a small
  one: det [E over G] = det(E K) for a suitably scaled kernel basis K
  of G, whatever the top rows E.
* Cofactors: the derivative of det(A) with respect to entry (r, c) is
  the (r, c) cofactor, and determinantal systems are evaluated at
  points where A is singular by construction, so cofactors cannot be
  read off det(A) * inv(A).  They are computed as signed determinants
  of the (k-1) x (k-1) minors, which is exact at singular A and needs
  no special case for k = 1 (an empty minor has determinant 1).

Every batched routine treats each matrix of a stack on its own, so a
result does not depend on what else shares its batch.
"""

from __future__ import annotations

import functools

import numpy as np


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


def batched_det(stacks: np.ndarray) -> np.ndarray:
    return np.linalg.det(stacks)


@functools.lru_cache(maxsize=256)
def _minor_index(n: int, rows: tuple[int, ...]):
    """Gather indices of every (n-1) x (n-1) minor along the given rows
    of an n x n matrix, shaped (len(rows), n, n-1, n-1) after
    broadcasting, and the cofactor signs (len(rows), n); frozen, since
    the cache hands the same arrays to every caller."""
    if not all(0 <= r < n for r in rows):
        raise ValueError(f"rows {rows} outside a {n}x{n} matrix")
    r = np.array(rows, dtype=int)
    c = np.arange(n)
    t = np.arange(n - 1)  # t + (t >= j) runs over range(n) without j
    out = (
        (t + (t >= r[:, None]))[:, None, :, None],
        (t + (t >= c[:, None]))[None, :, None, :],
        1 - 2 * ((r[:, None] + c) % 2),
    )
    for a in out:
        a.setflags(write=False)
    return out


def batched_rows_cofactors(stacks: np.ndarray, rows) -> np.ndarray:
    """Cofactor rows for every matrix in the stack at each requested row.

    stacks has shape (..., n, n); the result has shape (len(rows), ..., n)
    with result[i, ...] the cofactors of stacks[...] along row rows[i].
    One gather builds every (n-1) x (n-1) minor the rows need and one
    batched determinant evaluates them all.
    """
    keep_rows, keep_cols, sign = _minor_index(stacks.shape[-1], tuple(int(r) for r in rows))
    cof = sign * np.linalg.det(stacks[..., keep_rows, keep_cols])
    nd = cof.ndim
    return cof.transpose(nd - 2, *range(nd - 2), nd - 1)
