"""Bit matrices over GF(2) and the bilinear convolution algorithms.

A bilinear algorithm computes z = Q . (R y o P x), where o is pointwise
field multiplication; its multiplication count is the common row count t of
P and R. This module holds the fixed algorithms used by the transform
plans:

  * the length-5 Toeplitz product (t = 14),
  * the length-10 Toeplitz product assembled from three length-5 products
    (t = 42),
  * the 11-point cyclic convolution over characteristic-2 fields (t = 43).

It also carries an exact-integer model of the real-field derivation behind
the 11-point algorithm, used purely as a verifier: all identities there are
checked in arbitrary-precision integer arithmetic with no rounding anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

# Rows packed per numpy pass when a plan's matrix is built: enough to
# amortise call overhead, small enough that temporaries stay well under a
# megabyte at 2047 columns.
CHUNK_ROWS = 128

# (11, 1) column of bit values: bit b of a field element selects plane b.
_PLANE_BITS = (1 << np.arange(11, dtype=np.int16))[:, None]


def pack_rows(bits) -> list:
    """Row masks of a 2-D 0/1 array: bit j of mask i is bits[i, j]."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def unpack_rows(masks, cols: int):
    """(len(masks), cols) uint8 0/1 array of row masks below 2^cols; the
    inverse of pack_rows."""
    width = (cols + 7) // 8
    packed = b"".join(m.to_bytes(width, "little") for m in masks)
    packed = np.frombuffer(packed, np.uint8).reshape(len(masks), width)
    return np.unpackbits(packed, axis=1, count=cols, bitorder="little")


class BitMatrix:
    """Dense matrix over GF(2); rows are stored as int bitmasks.

    Bit j of a row mask is the entry in column j.
    """

    __slots__ = ("rows", "cols", "row_masks", "_gather")

    def __init__(self, rows: int, cols: int, row_masks):
        row_masks = tuple(row_masks)
        if len(row_masks) != rows:
            raise ValueError("row count mismatch")
        limit = 1 << cols
        if any(m < 0 or m >= limit for m in row_masks):
            raise ValueError("row mask exceeds column count")
        self.rows = rows
        self.cols = cols
        self.row_masks = row_masks
        self._gather = None

    @classmethod
    def from_rows(cls, rows) -> "BitMatrix":
        """Matrix of 0/1 rows; the first row that is ragged or holds
        another entry raises."""
        rows = [list(r) for r in rows]
        cols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != cols:
                raise ValueError("ragged rows")
            if not all(bit in (0, 1) for bit in r):
                raise ValueError("entries must be 0 or 1")
        bits = np.array(rows, dtype=np.uint8).reshape(len(rows), cols)
        return cls(len(rows), cols, pack_rows(bits))

    @classmethod
    def from_text(cls, text: str) -> "BitMatrix":
        """Parse one row of '0'/'1' characters per line; blank lines and
        the whitespace around each row are ignored.

        Every character goes through int(), so other decimal digits for 0
        and 1 parse and a non-digit raises int()'s ValueError; from_rows
        then reports the first row that is ragged or holds another digit."""
        lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
        return cls.from_rows([[int(c) for c in ln] for ln in lines])

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, [1 << i for i in range(n)])

    def to_text(self) -> str:
        """One line of '0'/'1' characters per row, column 0 first."""
        # a marker bit above the last column keeps the width, also at 0
        # columns; it is the first digit, which the reversal drops
        return "\n".join(f"{m | 1 << self.cols:b}"[:0:-1] for m in self.row_masks)

    def entry(self, i: int, j: int) -> int:
        return (self.row_masks[i] >> j) & 1

    def bits(self):
        """(rows, cols) uint8 0/1 array of the entries."""
        return unpack_rows(self.row_masks, self.cols)

    def row_indices(self, i: int):
        """Column indices of the ones in row i."""
        return tuple(unpack_rows([self.row_masks[i]], self.cols)[0].nonzero()[0].tolist())

    def transpose(self) -> "BitMatrix":
        return BitMatrix(self.cols, self.rows, pack_rows(self.bits().T))

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        # row i of the product xors the rows of other that row i selects
        return BitMatrix(self.rows, other.cols, self.apply_field(other.row_masks))

    def _row_parities(self, masks):
        """(len(masks), rows) 0/1 array: entry (k, i) is the parity of row
        i AND masks[k], the GF(2) product of row i and bit-vector k."""
        bits = [(m & v).bit_count() & 1 for m in self.row_masks for v in masks]
        return np.frombuffer(bytes(bits), np.uint8).reshape(self.rows, len(masks)).T

    def apply_bits(self, v: int) -> int:
        """GF(2) matrix times bit-vector (v is a bitmask over columns)."""
        return pack_rows(self._row_parities([v]))[0]

    def _gather_table(self):
        """(rows, w) column-index table, w the largest row weight (cached).

        Row i lists the columns of row i's ones, padded with `cols`, which
        apply_field points at an appended zero.
        """
        if self._gather is None:
            bits = self.bits()
            width = int(bits.sum(axis=1).max(initial=0))
            table = np.full((self.rows, width), self.cols, dtype=np.intp)
            i, j = np.nonzero(bits)  # row by row, each row's columns in order
            table[i, bits.cumsum(axis=1)[i, j] - 1] = j  # slot: the ones up to j
            table.flags.writeable = False
            self._gather = table
        return self._gather

    def apply_field(self, vec):
        """XOR-accumulate field elements selected by each row.

        vec holds one entry per column: a list or tuple of ints of any
        width gives a list, a numpy array of shape (cols, ...) an array of
        shape (rows, ...). One gather and one xor-reduce do all rows.
        """
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        # convert in: the zero the table's padding points at goes last
        listed = isinstance(vec, (list, tuple))
        if listed:
            padded = np.asarray([*vec, 0])
            if padded.dtype.kind not in "iu":  # 2^63 beside 0 reads as a float
                padded = np.array([*vec, 0], dtype=object)
        else:
            vec = np.asarray(vec)
            padded = np.concatenate((vec, np.zeros((1,) + vec.shape[1:], vec.dtype)))
        out = np.bitwise_xor.reduce(padded[self._gather_table()], axis=1)
        return out.tolist() if listed else out

    def apply_field_packed(self, vec):
        """Same result as apply_field for GF(2^11) elements, via bit planes.

        The 11 planes go through apply_bits' row-parity kernel: one
        AND+popcount per (row, plane) instead of one XOR per matrix entry.
        Elements must be integers in 0..2047; the result is a list.
        """
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        v = np.asarray(vec)
        if v.ndim != 1 or v.size and (
            v.dtype.kind not in "iu" or v.min() < 0 or v.max() > 2047
        ):
            raise ValueError("elements must be integers in 0..2047")
        # plane b holds bit b of every element: one packbits for all 11
        planes = pack_rows((v.astype(np.int16) & _PLANE_BITS) != 0)
        return (self._row_parities(planes) * _PLANE_BITS).sum(axis=0).tolist()

    def rank(self) -> int:
        return _gauss_jordan(list(self.row_masks), self.cols)

    def inverse(self) -> "BitMatrix":
        if self.rows != self.cols:
            raise ValueError("only square matrices can be inverted")
        n = self.rows
        # reduce [M | I]: at full rank the left half becomes I, the right M^-1
        work = [m | 1 << (n + i) for i, m in enumerate(self.row_masks)]
        if _gauss_jordan(work, n) < n:
            raise ValueError("matrix is singular over GF(2)")
        return BitMatrix(n, n, [w >> n for w in work])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.row_masks == other.row_masks
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.row_masks))

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"


def _gauss_jordan(work: list, cols: int) -> int:
    """Reduce the row masks in work over columns 0..cols-1, in place, and
    return the rank. Pivot rows move to the top in column order; every
    other row is cleared in each pivot column."""
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(work)) if work[r] >> col & 1), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(len(work)):
            if r != rank and work[r] >> col & 1:
                work[r] ^= work[rank]
        rank += 1
    return rank


@dataclass(frozen=True)
class BilinearAlgorithm:
    """z = q . (r y o p x); t = p.rows products of two linear forms."""

    p: BitMatrix
    r: BitMatrix
    q: BitMatrix

    def __post_init__(self):
        if not (self.p.rows == self.r.rows == self.q.cols):
            raise ValueError("p.rows, r.rows and q.cols must agree")

    @property
    def t(self) -> int:
        return self.p.rows

    def apply(self, field, x, y):
        if (len(x), len(y)) != (self.p.cols, self.r.cols):
            raise ValueError(f"expected {self.p.cols} inputs and {self.r.cols} coefficients")
        px = self.p.apply_field(x)
        ry = self.r.apply_field(y)
        mul = field.mul
        prods = [mul(a, b) for a, b in zip(ry, px)]
        return self.q.apply_field(prods)


# Length-5 Toeplitz product: v_i = sum_j r[4-i+j] u[j], 14 products.
_T5_R_TEXT = """
111110000
011111000
001111100
000111110
000011111
010010000
001000000
000110000
000100000
000011000
000001000
000000100
000010010
000010000
"""

_T5_P_TEXT = """
10000
01000
00100
00010
00001
11000
10100
10010
01100
01001
00110
00101
00011
11011
"""

_T5_Q_TEXT = """
00001000010111
00010001001011
00100010101100
01000100110001
10000111000001
"""

# Coefficient maps: rows select, out of the 10 transformed y-components, the
# GF(2) sums forming the 9 Toeplitz coefficients of each 5x5 block product
# (block R0, then R1-R0, then R2-R0 of the 10x10 Toeplitz stage).
_COEFF_MAP_TEXTS = (
    """
1111101111
1111011111
1110111111
1101111111
1011111111
0111111111
1111111111
1111111110
1111111101
""",
    """
1000010000
0000100000
0001000001
0010000010
0100000100
1000001000
0000010000
0000100001
0001000010
""",
    """
0000010000
0000100001
0001000010
0010000100
0100001000
1000010000
0000100000
0001000001
0010000010
""",
)

# Input maps: select the length-5 vectors fed to the three block products
# (x'0 + x'1, then x'1, then x'0).
_INPUT_MAP_TEXTS = (
    """
1000010000
0100001000
0010000100
0001000010
0000100001
""",
    """
0000010000
0000001000
0000000100
0000000010
0000000001
""",
    """
1000000000
0100000000
0010000000
0001000000
0000100000
""",
)

# Output-side combination matrix: z0 sums every product component, z_i adds
# the DC product into component i.
_OUTPUT_MATRIX_TEXT = """
11111111111
11000000000
10100000000
10010000000
10001000000
10000100000
10000010000
10000001000
10000000100
10000000010
10000000001
"""


@cache
def forward_matrix() -> BitMatrix:
    """The 11x11 forward input transform over GF(2), built from its
    defining equations: row 0 sums all inputs; row i (1..10) is input i-1
    plus input 10. (Truncated renderings of this matrix omit row 10 and
    column 9; the fidelity tests check against that reduced form.)"""
    masks = [(1 << 11) - 1]
    for i in range(1, 11):
        masks.append((1 << (i - 1)) | (1 << 10))
    return BitMatrix(11, 11, masks)


@cache
def output_matrix() -> BitMatrix:
    return BitMatrix.from_text(_OUTPUT_MATRIX_TEXT)


@cache
def coefficient_maps() -> tuple:
    return tuple(BitMatrix.from_text(t) for t in _COEFF_MAP_TEXTS)


@cache
def input_maps() -> tuple:
    return tuple(BitMatrix.from_text(t) for t in _INPUT_MAP_TEXTS)


@cache
def t5_matrices() -> BilinearAlgorithm:
    """The 14-multiplication bilinear form of the length-5 Toeplitz product.

    Conventions: the coefficient vector r has 9 entries and matrix row i is
    (r[4-i], ..., r[8-i]); p is 14x5, r is 14x9, q is 5x14.
    """
    return BilinearAlgorithm(
        p=BitMatrix.from_text(_T5_P_TEXT),
        r=BitMatrix.from_text(_T5_R_TEXT),
        q=BitMatrix.from_text(_T5_Q_TEXT),
    )


@cache
def t10_matrices() -> BilinearAlgorithm:
    """The 42-multiplication bilinear form of the length-10 Toeplitz product.

    Row i of the matrix is (r[9-i], ..., r[18-i]). With u = (x0, x1), a =
    r[5:14], b = r[10:19] and c = r[0:9], the three length-5 products are
    T(a)(x0 + x1), T(b - a) x1 and T(c - a) x0; the first output half adds
    the first two, the second half the first and third. Subtraction is xor."""
    t5 = t5_matrices()
    a, b, c = (np.eye(9, 19, k, np.uint8) for k in (5, 10, 0))  # r[5:14], r[10:19], r[0:9]
    q5 = t5.q.bits()
    zero = np.zeros_like(q5)
    return BilinearAlgorithm(
        p=BitMatrix.from_rows(np.vstack([(t5.p @ m).bits() for m in input_maps()])),
        r=BitMatrix.from_rows(np.vstack([t5.r.bits() @ w % 2 for w in (a, b ^ a, c ^ a)])),
        q=BitMatrix.from_rows(np.block([[q5, q5, zero], [q5, zero, q5]])),
    )


@cache
def conv11_matrices() -> BilinearAlgorithm:
    """The 43-multiplication bilinear form of 11-point cyclic convolution.

    Assembled from the length-5 Toeplitz form: one passthrough product for
    the DC component plus the 42-product length-10 Toeplitz form, all
    conjugated by the forward/output transforms.
    """
    t5, t10, fwd = t5_matrices(), t10_matrices(), forward_matrix()

    def with_dc(core):  # [[1, 0], [0, core]]: the DC product passes through
        rows, cols = core.shape
        bits = np.block([[1, np.zeros((1, cols), int)], [np.zeros((rows, 1), int), core]])
        return BitMatrix(rows + 1, cols + 1, pack_rows(bits))

    # R stacks one t5 block per coefficient map of the transformed y
    r_side = with_dc(np.vstack([(t5.r @ m).bits() for m in coefficient_maps()])) @ fwd
    p_side = with_dc(t10.p.bits()) @ fwd
    q_side = output_matrix() @ with_dc(t10.q.bits())
    return BilinearAlgorithm(p=p_side, r=r_side, q=q_side)


def t5_apply(field, r, u):
    """Length-5 Toeplitz product with 14 field multiplications."""
    return t5_matrices().apply(field, u, r)


def t10_apply(field, r, u):
    """Length-10 Toeplitz product via three length-5 products (42 products)."""
    return t10_matrices().apply(field, u, r)


def conv11_apply(field, x, y):
    """11-point cyclic convolution z_i = sum_j x_j y_{(i-j) mod 11}."""
    return conv11_matrices().apply(field, x, y)


# ---------------------------------------------------------------------------
# Exact-integer model of the real-field derivation.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AftIntegerModel:
    """Integer matrices of the length-11 forward/inverse transform pair.

    b is the 11x11 forward matrix; b_inv_scaled is 11 times its inverse
    (integer-valued); a3 is the 10x10 core of the inverse, with 10 on the
    first upper diagonal and -1 everywhere else.
    """

    b: tuple
    b_inv_scaled: tuple
    a3: tuple


@cache
def aft_integer_model() -> AftIntegerModel:
    b = [[1] * 11]
    for i in range(1, 11):
        b.append([1 if j == i - 1 else (-1 if j == 10 else 0) for j in range(11)])
    a1 = [10] + [-1] * 9
    a3 = [[10 if j == i + 1 else -1 for j in range(10)] for i in range(10)]
    b_inv_scaled = [[1] + a1] + [[1] + a3[i] for i in range(10)]
    return AftIntegerModel(
        b=tuple(tuple(r) for r in b),
        b_inv_scaled=tuple(tuple(r) for r in b_inv_scaled),
        a3=tuple(tuple(r) for r in a3),
    )


def aft_forward_int(x):
    """Forward transform of 11 integers: (sum of x, x_i - x_10 for i<10)."""
    if len(x) != 11:
        raise ValueError("expected 11 integers")
    return sum(x), [x[i] - x[10] for i in range(10)]


def aft_inverse_int(u0, up):
    """Inverse transform scaled by 11, using only the a3 core product.

    Returns the 11-vector 11*(v0, v'), where v0 = (u0 - sum(a3 u'))/11 and
    v'_j = (u0 + (a3 u')_j)/11.
    """
    if len(up) != 10:
        raise ValueError("expected 10 integers")
    a3 = aft_integer_model().a3
    core = [sum(a3[i][j] * up[j] for j in range(10)) for i in range(10)]
    return [u0 - sum(core)] + [u0 + c for c in core]


def _pointwise_matrix(yp):
    """M with M[k][j] = y'_{k-j} + y'_{k-j+11} - y'_{10-j}, zero off-range."""

    def y(i):
        return yp[i] if 0 <= i <= 9 else 0

    return [[y(k - j) + y(k - j + 11) - y(10 - j) for j in range(10)] for k in range(10)]


def _toeplitz_core_scaled(yp):
    """11 times the Toeplitz core: entries 11 y'_{i-j+1} + 11 y'_{i-j+12} - sum(y')."""

    def y(i):
        return yp[i] if 0 <= i <= 9 else 0

    s = sum(yp)
    return [
        [11 * y(i - j + 1) + 11 * y(i - j + 12) - s for j in range(10)]
        for i in range(10)
    ]


def verify_toeplitz_reduction(yp) -> bool:
    """Check that a3 . M equals the scaled Toeplitz core and is Toeplitz.

    This is the integer identity that collapses the inverse-transform stage
    and the pointwise stage into a single Toeplitz product.
    """
    if len(yp) != 10:
        raise ValueError("expected 10 integers")
    a3 = aft_integer_model().a3
    m = _pointwise_matrix(yp)
    lhs = [
        [sum(a3[i][k] * m[k][j] for k in range(10)) for j in range(10)]
        for i in range(10)
    ]
    if lhs != _toeplitz_core_scaled(yp):
        return False
    return all(
        lhs[i][j] == lhs[i + 1][j + 1] for i in range(9) for j in range(9)
    )


def conv11_int(x, y):
    """Exact integer 11-point cyclic convolution through the transform pipeline.

    Runs forward transforms, the pointwise/Toeplitz stage scaled by 11, and
    the inverse evaluation, then divides out the factor of 11. Divisibility
    is asserted; a failure would mean the derivation itself is wrong.
    """
    if len(x) != 11 or len(y) != 11:
        raise ValueError("expected two length-11 vectors")
    x0, xp = aft_forward_int(x)
    y0, yp = aft_forward_int(y)
    z0 = x0 * y0
    core = _toeplitz_core_scaled(yp)
    w = [sum(core[i][j] * xp[j] for j in range(10)) for i in range(10)]
    scaled = [z0 - sum(w)] + [z0 + wi for wi in w]
    for v in scaled:
        if v % 11:
            raise ArithmeticError("pipeline result not divisible by 11")
    return [v // 11 for v in scaled]
