"""GF(2^8) arithmetic.

The field is generated by the primitive polynomial x^8+x^4+x^3+x^2+1
(0x11d), the same one used by Rizzo's FEC code and by RFC 5510.  Multiply
and invert go through exp/log tables; addition is XOR.
"""

from __future__ import annotations

from typing import List

_PRIMITIVE_POLY = 0x11D
_FIELD_SIZE = 256


def _build_tables() -> tuple:
    exp = [0] * (_FIELD_SIZE * 2)
    log = [0] * _FIELD_SIZE
    x = 1
    for i in range(_FIELD_SIZE - 1):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= _PRIMITIVE_POLY
    for i in range(_FIELD_SIZE - 1, _FIELD_SIZE * 2):
        exp[i] = exp[i - (_FIELD_SIZE - 1)]
    return exp, log


_EXP, _LOG = _build_tables()


class GF256:
    """Namespace of field operations (all static; tables built at import)."""

    ORDER = _FIELD_SIZE
    exp_table: List[int] = _EXP
    log_table: List[int] = _LOG

    @staticmethod
    def add(a: int, b: int) -> int:
        """Field addition (== subtraction) is XOR."""
        return a ^ b

    @staticmethod
    def mul(a: int, b: int) -> int:
        """Field multiplication via log/exp tables."""
        if a == 0 or b == 0:
            return 0
        return _EXP[_LOG[a] + _LOG[b]]

    @staticmethod
    def inv(a: int) -> int:
        """Multiplicative inverse (ZeroDivisionError for 0)."""
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(256)")
        return _EXP[255 - _LOG[a]]

    @staticmethod
    def mul_row(coeff: int, row: bytes) -> bytearray:
        """Scale a byte vector by ``coeff`` (vectorized via table slice)."""
        out = bytearray(len(row))
        if coeff == 0:
            return out
        if coeff == 1:
            out[:] = row
            return out
        log_c = _LOG[coeff]
        exp = _EXP
        log = _LOG
        for i, byte in enumerate(row):
            if byte:
                out[i] = exp[log_c + log[byte]]
        return out

    @staticmethod
    def addmul_row(dst: bytearray, coeff: int, row: bytes) -> None:
        """dst += coeff * row, in place (the codec's inner loop)."""
        if coeff == 0:
            return
        exp = _EXP
        log = _LOG
        if coeff == 1:
            for i, byte in enumerate(row):
                if byte:
                    dst[i] ^= byte
            return
        log_c = _LOG[coeff]
        for i, byte in enumerate(row):
            if byte:
                dst[i] ^= exp[log_c + log[byte]]
