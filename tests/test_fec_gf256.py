"""Field-axiom and operation tests for GF(256), including property tests."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fec.gf256 import GF256

elements = st.integers(min_value=0, max_value=255)
nonzero = st.integers(min_value=1, max_value=255)


def test_add_is_xor():
    assert GF256.add(0b1010, 0b0110) == 0b1100


def test_mul_identity_and_zero():
    for a in range(256):
        assert GF256.mul(a, 1) == a
        assert GF256.mul(a, 0) == 0


def test_known_products():
    assert GF256.mul(2, 2) == 4
    # 2*128 = x^8, reduced by the primitive polynomial 0x11d: 0x100 ^ 0x11d = 0x1d.
    assert GF256.mul(2, 128) == 0x1D


@given(elements, elements)
def test_mul_commutative(a, b):
    assert GF256.mul(a, b) == GF256.mul(b, a)


@given(elements, elements, elements)
def test_mul_associative(a, b, c):
    assert GF256.mul(GF256.mul(a, b), c) == GF256.mul(a, GF256.mul(b, c))


@given(elements, elements, elements)
def test_distributive(a, b, c):
    assert GF256.mul(a, GF256.add(b, c)) == GF256.add(GF256.mul(a, b), GF256.mul(a, c))


@given(nonzero)
def test_inverse_roundtrip(a):
    assert GF256.mul(a, GF256.inv(a)) == 1


def test_div_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GF256.inv(0)


def test_exp_log_tables_consistent():
    for a in range(1, 256):
        assert GF256.exp_table[GF256.log_table[a]] == a


@given(nonzero, st.binary(min_size=0, max_size=64))
def test_mul_row_matches_elementwise(coeff, row):
    out = GF256.mul_row(coeff, row)
    assert list(out) == [GF256.mul(coeff, b) for b in row]


@given(elements, st.binary(min_size=8, max_size=8), st.binary(min_size=8, max_size=8))
def test_addmul_row_matches_elementwise(coeff, dst, row):
    buf = bytearray(dst)
    GF256.addmul_row(buf, coeff, row)
    assert list(buf) == [d ^ GF256.mul(coeff, r) for d, r in zip(dst, row)]


def test_mul_row_zero_coeff_zeroes():
    assert GF256.mul_row(0, b"\x01\x02\x03") == bytearray(3)
