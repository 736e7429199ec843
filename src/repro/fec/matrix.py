"""Dense matrices over GF(256) with Gauss–Jordan inversion.

Small and honest: matrices here are at most ``k × k`` where ``k`` is the
packet-group size (16 in the paper), so clarity beats asymptotics.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import CodecError
from repro.fec.gf256 import GF256


class GFMatrix:
    """A rows × cols matrix of GF(256) elements stored as bytearrays."""

    def __init__(self, rows: Sequence[Sequence[int]]) -> None:
        if not rows:
            raise CodecError("matrix must have at least one row")
        width = len(rows[0])
        if width == 0:
            raise CodecError("matrix must have at least one column")
        self.data: List[bytearray] = []
        for row in rows:
            if len(row) != width:
                raise CodecError("ragged matrix rows")
            self.data.append(bytearray(row))
        self.nrows = len(self.data)
        self.ncols = width

    # ------------------------------------------------------------ constructors

    @classmethod
    def identity(cls, n: int) -> "GFMatrix":
        """n × n identity."""
        rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        return cls(rows)

    @classmethod
    def cauchy(cls, xs: Sequence[int], ys: Sequence[int]) -> "GFMatrix":
        """C[i][j] = 1 / (x_i + y_j); all x_i, y_j must be pairwise distinct.

        Every square submatrix of a Cauchy matrix is invertible, which gives
        the MDS (any-k-of-n) property the erasure codec needs.
        """
        all_points = list(xs) + list(ys)
        if len(set(all_points)) != len(all_points):
            raise CodecError("cauchy points must be distinct")
        rows = []
        for x in xs:
            rows.append([GF256.inv(GF256.add(x, y)) for y in ys])
        return cls(rows)

    # ----------------------------------------------------------------- algebra

    def row(self, i: int) -> bytearray:
        """Row ``i`` (a live view; mutating it mutates the matrix)."""
        return self.data[i]

    def mul_vector_rows(self, vectors: Sequence[bytes]) -> List[bytearray]:
        """Multiply this matrix by a stack of byte-vectors.

        ``vectors`` has ``ncols`` rows, each an equal-length byte string;
        returns ``nrows`` output vectors.  This is the codec's workhorse:
        output packet i = Σ_j M[i][j] · vector_j.
        """
        if len(vectors) != self.ncols:
            raise CodecError(
                f"need {self.ncols} input vectors, got {len(vectors)}"
            )
        if vectors:
            width = len(vectors[0])
            for v in vectors:
                if len(v) != width:
                    raise CodecError("input vectors must be equal length")
        outputs: List[bytearray] = []
        for i in range(self.nrows):
            acc = bytearray(len(vectors[0]) if vectors else 0)
            row = self.data[i]
            for j in range(self.ncols):
                GF256.addmul_row(acc, row[j], vectors[j])
            outputs.append(acc)
        return outputs

    def matmul(self, other: "GFMatrix") -> "GFMatrix":
        """Standard matrix product over the field."""
        if self.ncols != other.nrows:
            raise CodecError("dimension mismatch in matmul")
        result = []
        for i in range(self.nrows):
            out_row = [0] * other.ncols
            for j in range(self.ncols):
                a = self.data[i][j]
                if a == 0:
                    continue
                other_row = other.data[j]
                for c in range(other.ncols):
                    b = other_row[c]
                    if b:
                        out_row[c] ^= GF256.mul(a, b)
            result.append(out_row)
        return GFMatrix(result)

    def inverse(self) -> "GFMatrix":
        """Gauss–Jordan inverse (CodecError if singular or non-square)."""
        if self.nrows != self.ncols:
            raise CodecError("only square matrices can be inverted")
        n = self.nrows
        work = [bytearray(r) for r in self.data]
        inv = [bytearray(1 if i == j else 0 for j in range(n)) for i in range(n)]
        for col in range(n):
            pivot_row = None
            for r in range(col, n):
                if work[r][col]:
                    pivot_row = r
                    break
            if pivot_row is None:
                raise CodecError("singular matrix")
            if pivot_row != col:
                work[col], work[pivot_row] = work[pivot_row], work[col]
                inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
            pivot_inv = GF256.inv(work[col][col])
            if pivot_inv != 1:
                work[col] = GF256.mul_row(pivot_inv, bytes(work[col]))
                inv[col] = GF256.mul_row(pivot_inv, bytes(inv[col]))
            for r in range(n):
                if r == col:
                    continue
                factor = work[r][col]
                if factor:
                    GF256.addmul_row(work[r], factor, bytes(work[col]))
                    GF256.addmul_row(inv[r], factor, bytes(inv[col]))
        return GFMatrix(inv)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GFMatrix):
            return NotImplemented
        return self.data == other.data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<GFMatrix {self.nrows}x{self.ncols}>"
