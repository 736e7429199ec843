"""Tests for GF(256) matrices."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.fec.matrix import GFMatrix


def test_identity_inverse_is_identity():
    eye = GFMatrix.identity(5)
    assert eye.inverse() == eye


def test_inverse_roundtrip_small():
    m = GFMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    inv = m.inverse()
    assert m.matmul(inv) == GFMatrix.identity(3)
    assert inv.matmul(m) == GFMatrix.identity(3)


def test_singular_matrix_raises():
    m = GFMatrix([[1, 2], [1, 2]])  # identical rows
    with pytest.raises(CodecError):
        m.inverse()


def test_zero_matrix_singular():
    with pytest.raises(CodecError):
        GFMatrix([[0, 0], [0, 0]]).inverse()


def test_non_square_inverse_rejected():
    with pytest.raises(CodecError):
        GFMatrix([[1, 2, 3], [4, 5, 6]]).inverse()


def test_ragged_rows_rejected():
    with pytest.raises(CodecError):
        GFMatrix([[1, 2], [3]])


def test_empty_matrix_rejected():
    with pytest.raises(CodecError):
        GFMatrix([])
    with pytest.raises(CodecError):
        GFMatrix([[]])


def test_cauchy_every_square_submatrix_invertible():
    k = 4
    xs = [k + r for r in range(4)]
    ys = list(range(k))
    c = GFMatrix.cauchy(xs, ys)
    # All 2x2 minors of a Cauchy matrix are invertible.
    for r1 in range(4):
        for r2 in range(r1 + 1, 4):
            for c1 in range(k):
                for c2 in range(c1 + 1, k):
                    sub = GFMatrix(
                        [
                            [c.data[r1][c1], c.data[r1][c2]],
                            [c.data[r2][c1], c.data[r2][c2]],
                        ]
                    )
                    sub.inverse()  # must not raise


def test_cauchy_duplicate_points_rejected():
    with pytest.raises(CodecError):
        GFMatrix.cauchy([1, 2], [2, 3])


def test_mul_vector_rows():
    m = GFMatrix([[1, 0], [0, 1], [1, 1]])
    v0, v1 = b"\x01\x02", b"\x10\x20"
    out = m.mul_vector_rows([v0, v1])
    assert bytes(out[0]) == v0
    assert bytes(out[1]) == v1
    assert bytes(out[2]) == bytes(a ^ b for a, b in zip(v0, v1))


def test_mul_vector_rows_validates_inputs():
    m = GFMatrix.identity(2)
    with pytest.raises(CodecError):
        m.mul_vector_rows([b"\x00"])
    with pytest.raises(CodecError):
        m.mul_vector_rows([b"\x00", b"\x00\x01"])


def test_matmul_dimension_mismatch():
    with pytest.raises(CodecError):
        GFMatrix.identity(2).matmul(GFMatrix.identity(3))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.randoms(use_true_random=False))
def test_random_invertible_matrices_roundtrip(n, rnd):
    """Generate random matrices; whenever one inverts, M·M⁻¹ must be I."""
    rows = [[rnd.randrange(256) for _ in range(n)] for _ in range(n)]
    m = GFMatrix(rows)
    try:
        inv = m.inverse()
    except CodecError:
        return  # singular draw; nothing to check
    assert m.matmul(inv) == GFMatrix.identity(n)

