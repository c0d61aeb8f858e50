"""Batched determinants and cofactor gradients.

Cofactors are checked against explicit signed minors, and gradients
against central finite differences, including on singular matrices:
the tracker differentiates determinants at points where they vanish.
"""

import numpy as np
import pytest

from schubert_galois import linalg
from schubert_galois.rng import Lcg64


def random_complex(gen, *shape):
    flat = [gen.complex_entry() for _ in range(int(np.prod(shape)))]
    return np.array(flat).reshape(shape)


def explicit_cofactors(a, r):
    """Signed minors along row r, the slow way."""
    n = a.shape[0]
    out = np.zeros(n, dtype=complex)
    for c in range(n):
        minor = np.delete(np.delete(a, r, axis=0), c, axis=1)
        out[c] = (-1) ** (r + c) * np.linalg.det(minor)
    return out


def test_det_known_values():
    assert linalg.batched_det(np.array([[1, 2], [3, 4]])) == pytest.approx(-2.0)
    a = np.diag([1j, 2.0, 3.0])
    assert linalg.batched_det(a) == pytest.approx(6j)
    with pytest.raises(ValueError):
        linalg.batched_det(np.ones((2, 3)))


def test_gradient_matches_finite_differences():
    gen = Lcg64(3)
    a = random_complex(gen, 5, 5)
    positions = [(0, 1), (2, 2), (4, 0), (0, 4)]
    rows = sorted({r for r, _ in positions})
    cof = dict(zip(rows, linalg.batched_rows_cofactors(a, rows)))
    val, grad = linalg.batched_det(a), [cof[r][c] for r, c in positions]
    assert val == pytest.approx(complex(np.linalg.det(a)), rel=1e-10)
    h = 1e-6
    for (r, c), g in zip(positions, grad):
        ap, am = a.copy(), a.copy()
        ap[r, c] += h
        am[r, c] -= h
        fd = (np.linalg.det(ap) - np.linalg.det(am)) / (2 * h)
        assert abs(g - fd) <= 1e-6 * max(1.0, abs(fd))


def test_gradient_on_singular_matrix():
    # row 2 is a combination of rows 0 and 1, so det = 0 but the
    # cofactors along row 2 are the interesting nonzero ones
    gen = Lcg64(4)
    a = random_complex(gen, 4, 4)
    a[2] = 1.5 * a[0] - 2j * a[1]
    val = linalg.batched_det(a)
    grad = linalg.batched_rows_cofactors(a, [2])[0]
    assert abs(val) < 1e-10
    expected = explicit_cofactors(a, 2)
    assert np.max(np.abs(np.array(grad) - expected)) < 1e-8 * np.max(np.abs(expected))
    assert np.max(np.abs(expected)) > 1e-3  # the check is not vacuous


def test_gradient_position_validation():
    a = np.eye(3, dtype=complex)
    with pytest.raises(ValueError):
        linalg.batched_rows_cofactors(a, [3])
    with pytest.raises(ValueError):
        linalg.batched_rows_cofactors(a, [-1])


def test_batched_det_matches_loop():
    gen = Lcg64(5)
    stacks = random_complex(gen, 6, 4, 4)
    batched = linalg.batched_det(stacks)
    for i in range(6):
        assert batched[i] == pytest.approx(complex(np.linalg.det(stacks[i])), rel=1e-12)


def test_batched_cofactors_match_explicit_minors():
    gen = Lcg64(6)
    stacks = random_complex(gen, 3, 5, 5)
    stacks[1, 3] = 0.5 * stacks[1, 0] + stacks[1, 4]  # one singular member
    rows = [0, 3]
    cof = linalg.batched_rows_cofactors(stacks, rows)
    assert cof.shape == (2, 3, 5)
    for ri, r in enumerate(rows):
        for s in range(3):
            expected = explicit_cofactors(stacks[s], r)
            scale = max(1.0, float(np.max(np.abs(expected))))
            assert np.max(np.abs(cof[ri, s] - expected)) < 1e-8 * scale


def test_batched_cofactors_leading_batch_axes():
    gen = Lcg64(7)
    stacks = random_complex(gen, 2, 3, 4, 4)
    cof = linalg.batched_rows_cofactors(stacks, [1])
    assert cof.shape == (1, 2, 3, 4)
    for i in range(2):
        for j in range(3):
            expected = explicit_cofactors(stacks[i, j], 1)
            assert np.allclose(cof[0, i, j], expected, atol=1e-8)


def test_batched_cofactors_doubly_singular_fall_back_to_zero():
    # duplicated rows away from the requested row: every minor along
    # row 0 contains both copies, so all those cofactors vanish
    gen = Lcg64(8)
    stacks = random_complex(gen, 2, 4, 4)
    stacks[0, 2] = stacks[0, 3]
    cof = linalg.batched_rows_cofactors(stacks, [0])
    assert np.max(np.abs(cof[0, 0])) < 1e-9
    assert np.allclose(cof[0, 1], explicit_cofactors(stacks[1], 0), atol=1e-8)


def test_echelon_pivots_detect_rank():
    gen = Lcg64(9)
    full = random_complex(gen, 3, 6)
    assert len(linalg.echelon_pivots(full)) == 3
    deficient = full.copy()
    deficient[2] = 2.0 * deficient[0] - deficient[1]
    pivots = linalg.echelon_pivots(deficient)
    assert len(pivots) < 3 or pivots.min() < 1e-10 * np.max(np.abs(deficient))
