"""Dense complex linear algebra for small stacked-determinant systems.

Everything routes through LAPACK via numpy; matrices are tiny (n rarely
above 12) but evaluations are numerous, so the batched (..., n, n)
entry points matter more than any single factorization.  The one
non-routine operation is cofactor extraction: the derivative of det(A)
with respect to entry (r, c) is the (r, c) cofactor, and determinantal
systems are evaluated at points where A is singular by construction, so
cofactors cannot be read off det(A) * inv(A).  Cofactors along row r do
not involve row r, so that row is replaced by a generic probe first.
"""

from __future__ import annotations

import functools

import numpy as np

from .rng import Lcg64

# Determinants of probed matrices below this fraction of the Hadamard
# row-norm bound are treated as singular probes.
PROBE_DET_REL_TOL = 1e-12


class SingularMatrixError(ValueError):
    """The solve hit a numerically singular matrix."""


def lu_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b for square complex a, raising SingularMatrixError
    instead of returning garbage when a is numerically singular."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape != (n,):
        raise ValueError(f"shape mismatch: a {a.shape}, b {b.shape}")
    if n == 0:
        return np.zeros(0, dtype=complex)
    if float(np.max(np.abs(a))) == 0.0:
        raise SingularMatrixError("zero matrix")
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("exactly singular matrix")
    if not np.all(np.isfinite(x.view(float))):
        raise SingularMatrixError("solve overflowed")
    return x


def det(a: np.ndarray) -> complex:
    """Determinant of a square complex matrix."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"det needs a square matrix, got {a.shape}")
    return complex(np.linalg.det(a))


def _unit(n: int, r: int) -> np.ndarray:
    e = np.zeros(n, dtype=complex)
    e[r] = 1.0
    return e


@functools.lru_cache(maxsize=None)
def _unit_probe(n: int, r: int, attempt: int) -> np.ndarray:
    """Deterministic pseudo-random replacement row, unit scale, frozen."""
    gen = Lcg64((r + 1) * 0x9E3779B97F4A7C15 + attempt * 0x2545F4914F6CDD1D)
    row = np.array([gen.complex_entry() for _ in range(n)])
    row.setflags(write=False)
    return row


def _probe_row(n: int, r: int, attempt: int, scale: float) -> np.ndarray:
    return scale * _unit_probe(n, r, attempt)


def _hadamard_bound(a: np.ndarray) -> np.ndarray:
    """Product of row 2-norms, the natural scale of det over the last
    two axes; floored at the smallest positive normal to keep relative
    tests meaningful for zero rows."""
    norms = np.linalg.norm(a, axis=-1)
    return np.maximum(np.prod(norms, axis=-1), np.finfo(float).tiny)


def _cofactor_row(a: np.ndarray, r: int) -> np.ndarray:
    """All cofactors along row r, valid even when a itself is singular.

    The row is replaced by a generic probe and the cofactors read off
    the adjugate of the probed matrix.  When two probes both leave the
    determinant at noise level the other rows are rank deficient and
    every cofactor in the row vanishes.
    """
    n = a.shape[0]
    amax = float(np.max(np.abs(a))) or 1.0
    for attempt in range(2):
        b = np.array(a, dtype=complex)
        b[r] = _probe_row(n, r, attempt, amax)
        db = complex(np.linalg.det(b))
        if abs(db) < PROBE_DET_REL_TOL * float(_hadamard_bound(b)):
            continue
        try:
            z = np.linalg.solve(b, _unit(n, r))
        except np.linalg.LinAlgError:
            continue
        return db * z
    return np.zeros(n, dtype=complex)


def det_with_gradient(a: np.ndarray, positions) -> tuple[complex, list[complex]]:
    """Determinant of a and its partial derivatives at the given cells.

    positions is a sequence of (row, col) pairs; the returned gradient
    list is aligned with it.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"square matrix required, got {a.shape}")
    positions = list(positions)
    for r, c in positions:
        if not (0 <= r < n and 0 <= c < n):
            raise ValueError(f"position ({r}, {c}) outside a {n}x{n} matrix")
    dval = complex(np.linalg.det(a)) if n else 1.0
    cof = {r: _cofactor_row(a, r) for r in {r for r, _ in positions}}
    return dval, [cof[r][c] for r, c in positions]


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


# ----------------------------------------------------------------- batched
# Hot-path variants over a stack of matrices sharing shape (m, n, n).
# One probed solve and one determinant sweep cover every requested row
# of every matrix; rare degenerate probes fall back to the scalar path.


def batched_det(stacks: np.ndarray) -> np.ndarray:
    return np.linalg.det(stacks)


def batched_rows_cofactors(stacks: np.ndarray, rows) -> np.ndarray:
    """Cofactor rows for every matrix in the stack at each requested row.

    stacks has shape (..., n, n); the result has shape (len(rows), ..., n)
    with result[i, ...] the cofactors of stacks[...] along row rows[i].
    """
    lead = stacks.shape[:-2]
    n = stacks.shape[-1]
    rows = list(rows)
    nr = len(rows)
    if nr == 0 or 0 in lead:
        return np.zeros((nr, *lead, n), dtype=complex)
    amax = float(np.max(np.abs(stacks))) or 1.0
    big = np.broadcast_to(stacks, (nr, *lead, n, n)).copy()
    rhs = np.zeros((nr, *(1,) * len(lead), n, 1), dtype=complex)
    for i, r in enumerate(rows):
        big[i, ..., r, :] = _probe_row(n, r, 0, amax)
        rhs[(i, *(0,) * len(lead), r, 0)] = 1.0
    try:
        z = np.linalg.solve(big, rhs)[..., 0]
        db = np.linalg.det(big)
        cof = db[..., None] * z
        bad = (np.abs(db) < PROBE_DET_REL_TOL * _hadamard_bound(big)) | ~np.all(
            np.isfinite(cof.view(float)), axis=-1
        )
    except np.linalg.LinAlgError:
        cof = np.empty((nr, *lead, n), dtype=complex)
        bad = np.ones((nr, *lead), dtype=bool)
    for w in np.argwhere(bad):
        cof[tuple(w)] = _cofactor_row(stacks[tuple(w[1:])], rows[w[0]])
    return cof
