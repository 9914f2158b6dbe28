"""Transform plans over GF(2^11) for lengths dividing 2047.

A plan freezes everything the evaluation pipeline needs: the cyclotomic
coset table, the input permutation, the per-coset constant vectors (the
coefficient side of the 11-point convolution applied to a normal basis),
and the n x n output recombination bit matrix. Evaluation then runs

    permute -> per-coset linear stage -> pointwise constants ->
    per-coset output stage -> recombination matrix

and is bit-exact against the naive DFT. Plans are immutable once built and
safe for concurrent evaluation.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

from . import bilinear
from .bilinear import BitMatrix
from .gf import Field

SUPPORTED_LENGTHS = (1, 23, 89, 2047)


@dataclass(frozen=True)
class CosetTable:
    """Cyclotomic cosets of 2 modulo n, sorted by minimal representative."""

    n: int
    cosets: tuple

    def census(self) -> dict:
        out: dict = {}
        for c in self.cosets:
            out[len(c)] = out.get(len(c), 0) + 1
        return out

    @property
    def representatives(self):
        return tuple(c[0] for c in self.cosets)


def cosets(n: int) -> CosetTable:
    """Cyclotomic cosets {k, 2k, 4k, ...} mod n for every k in 0..n-1."""
    if n < 1 or 2047 % n:
        raise ValueError(f"transform length {n} does not divide 2047")
    seen = [False] * n
    out = []
    for k in range(n):
        if seen[k]:
            continue
        orbit = []
        j = k
        while not seen[j]:
            seen[j] = True
            orbit.append(j)
            j = (j * 2) % n
        out.append(tuple(orbit))
    return CosetTable(n=n, cosets=tuple(out))


@dataclass(frozen=True)
class NormalBasis:
    """A basis {g, g^2, g^4, ..., g^(2^10)} of GF(2^11) over GF(2).

    to_poly maps normal-basis coordinate masks to polynomial-basis elements;
    from_poly is its inverse.
    """

    gamma: int
    exponent: int
    conjugates: tuple
    to_poly: BitMatrix
    from_poly: BitMatrix


_NORMAL_BASES: dict = {}


def find_normal_basis(field: Field) -> NormalBasis:
    """Deterministic choice: gamma = alpha^t for the smallest t >= 1 whose
    conjugates are linearly independent over GF(2). The search runs once
    per generator polynomial; later calls return the same basis."""
    basis = _NORMAL_BASES.get(field.genpoly)
    if basis is None:
        basis = _NORMAL_BASES[field.genpoly] = _search_normal_basis(field)
    return basis


def _search_normal_basis(field: Field) -> NormalBasis:
    for t in range(1, field.n):
        gamma = field.pow(field.alpha, t)
        conj = [gamma]
        for _ in range(10):
            conj.append(field.mul(conj[-1], conj[-1]))
        # column s of the change-of-basis matrix holds conjugate s
        to_poly = BitMatrix(11, 11, conj).transpose()
        if to_poly.rank() == 11:
            return NormalBasis(
                gamma=gamma,
                exponent=t,
                conjugates=tuple(conj),
                to_poly=to_poly,
                from_poly=to_poly.inverse(),
            )
    raise RuntimeError("no normal basis found")  # unreachable for GF(2^11)


def decompose(e: int, basis: NormalBasis) -> int:
    """Coordinates of e in the normal basis, as an 11-bit mask (bit s is the
    coefficient of the s-th conjugate)."""
    return basis.from_poly.apply_bits(e)


def _coordinate_bits(basis: NormalBasis):
    """(2048, 11) uint8 table: row e holds the bits of decompose(e, basis).

    Coordinates are linear in e: those of e with top bit b are those of
    e - 2^b xor those of x^b, which are column b of from_poly.
    """
    columns = basis.from_poly.transpose().row_masks
    coords = np.zeros(2048, dtype=np.uint16)
    for b in range(11):
        coords[1 << b : 2 << b] = coords[: 1 << b] ^ columns[b]
    return ((coords[:, None] >> np.arange(11, dtype=np.uint16)) & 1).astype(np.uint8)


class CfftPlan:
    """Frozen description of one transform of length n.

    A plan is fixed by its field, n, the input permutation, the per-coset
    constants and the recombination matrix A. The coset table, the basis
    exponent and both operation counts are derived here, so they always
    describe the plan's own matrices.
    """

    def __init__(self, field: Field, n: int, permutation, constants, a_matrix: BitMatrix):
        self.field = field
        self.n = n
        self.coset_table = cosets(n)
        self.gamma_exponent = find_normal_basis(field).exponent
        self.permutation = tuple(permutation)
        self.constants = tuple(constants)
        self.a_matrix = a_matrix
        if sorted(self.permutation) != list(range(n)):
            raise ValueError("permutation is not a bijection")
        alg = bilinear.conv11_matrices()
        nbig = len(self.big_cosets)
        if len(self.constants) != 1 + alg.t * nbig:
            raise ValueError(
                f"expected {1 + alg.t * nbig} constants for {nbig} size-11 cosets, "
                f"got {len(self.constants)}"
            )
        if any(v < 0 or v > field.n for v in self.constants):
            raise ValueError("constant out of range")
        if (a_matrix.rows, a_matrix.cols) != (n, n):
            raise ValueError("recombination matrix has wrong shape")
        self.mult_count = sum(1 for v in self.constants if v not in (0, 1))
        self.add_count = nbig * (
            _stage_add_count(alg.p) + _stage_add_count(alg.q)
        ) + _stage_add_count(a_matrix)
        # evaluate's gather index, and its constants as one row per product
        self._perm_index = np.array(self.permutation, dtype=np.intp)
        self._const_rows = np.array(self.constants[1:], dtype=np.int16).reshape(nbig, alg.t).T
        self._perm_index.flags.writeable = self._const_rows.flags.writeable = False

    @property
    def big_cosets(self):
        return tuple(c for c in self.coset_table.cosets if len(c) == 11)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CfftPlan)
            and self.field.genpoly == other.field.genpoly
            and self.n == other.n
            and self.permutation == other.permutation
            and self.constants == other.constants
            and self.a_matrix == other.a_matrix
        )

    def __repr__(self) -> str:
        return (
            f"CfftPlan(n={self.n}, mult_count={self.mult_count}, "
            f"add_count={self.add_count})"
        )


def _stage_add_count(matrix: BitMatrix) -> int:
    """Direct-implementation additions: ones per row minus one, summed."""
    return sum(max(0, m.bit_count() - 1) for m in matrix.row_masks)


def build_plan(field: Field, n: int) -> CfftPlan:
    """Construct the evaluation plan for length n (n must divide 2047).

    Within each size-11 coset the input ordering is reversed past the
    representative, which turns the conjugate-matrix product into a genuine
    cyclic convolution consumable by the 43-multiplication algorithm. The
    constant side is the coefficient transform of the conjugate vector and
    is identical for every size-11 coset because one shared normal basis
    serves them all.
    """
    table = cosets(n)
    basis = find_normal_basis(field)
    alg = bilinear.conv11_matrices()

    big = [c for c in table.cosets if len(c) == 11]
    consts43 = alg.r.apply_field(list(basis.conjugates))

    permutation = [0]
    for c in big:
        permutation.extend(c[(11 - p) % 11] for p in range(11))

    constants = [1]
    for _ in big:
        constants.extend(consts43)

    # Row j, block b of A holds the normal-basis coordinates of
    # root^(j * c_b) with root = alpha^(2047 / n), c_b the b-th coset's
    # representative. Rows are gathered and packed a chunk at a time.
    coord_bits = _coordinate_bits(basis)
    reps = np.array([c[0] for c in big], dtype=np.intp)
    row_masks = []
    for start in range(0, n, bilinear.CHUNK_ROWS):
        j = np.arange(start, min(n, start + bilinear.CHUNK_ROWS))
        elems = field.alpha_pow_vec((j[:, None] * reps) % n * (field.n // n))
        bits = np.empty((len(j), n), dtype=np.uint8)
        bits[:, 0] = 1  # constant column: the size-1 coset contributes f_0 to every output
        bits[:, 1:] = coord_bits[elems].reshape(len(j), -1)
        row_masks += bilinear.pack_rows(bits)

    return CfftPlan(field, n, permutation, constants, BitMatrix(n, n, row_masks))


_BOOLS = frozenset((bool, np.bool_))


# evaluate's stages pass (dc, block): dc is the permuted f_0 as a length-1
# array, block an (11 or 43, cosets) array with one column per size-11
# coset, so P and Q run once for all cosets and apply_field xors whole rows.


def _permute(plan: CfftPlan, f):
    """Check f and gather it into coset order."""
    if len(f) != plan.n:
        raise ValueError(f"expected {plan.n} elements, got {len(f)}")
    vec = np.asarray(f)
    if vec.ndim != 1 or vec.dtype.kind not in "iu":
        raise ValueError("elements must be integers")
    # np.asarray turns a bool mixed into ints into an int, so look at the types
    if isinstance(f, (list, tuple)) and not _BOOLS.isdisjoint(map(type, f)):
        raise ValueError("elements must be integers, not booleans")
    if vec.min() < 0 or vec.max() > plan.field.n:
        raise ValueError("element out of range 0..2047")
    fp = vec.astype(np.int16)[plan._perm_index]
    return fp[:1], fp[1:].reshape(-1, 11).T


def _stage_p(plan: CfftPlan, x):
    dc, block = x
    return dc, bilinear.conv11_matrices().p.apply_field(block)


def _stage_mul(plan: CfftPlan, x):
    dc, block = x
    return dc, plan.field.mul_vec(plan._const_rows, block)


def _stage_q(plan: CfftPlan, x):
    dc, block = x
    return dc, bilinear.conv11_matrices().q.apply_field(block)


def _stage_a(plan: CfftPlan, x):
    dc, block = x
    return plan.a_matrix.apply_field_packed(np.concatenate((dc, block.T.reshape(-1))))


# (name, stage) in order; each stage maps (plan, previous result) to its own
EVALUATE_STAGES = (
    ("permute", _permute),
    ("P", _stage_p),
    ("mul", _stage_mul),
    ("Q", _stage_q),
    ("A", _stage_a),
)


def evaluate(plan: CfftPlan, f):
    """Run the plan's stages; bit-exact equal to the naive DFT of f."""
    x = f
    for _, stage in EVALUATE_STAGES:
        x = stage(plan, x)
    return x


# ---------------------------------------------------------------------------
# Serialization: self-describing JSON, bit-exact round trip.
# ---------------------------------------------------------------------------


PLAN_FORMAT = "cfft2047-plan-2"
_PLAN_KEYS = frozenset(("format", "genpoly", "n", "permutation", "constants", "a_matrix"))
_HEX_ROW = re.compile("[0-9a-f]*")


def plan_to_json(plan: CfftPlan) -> str:
    """The plan as JSON: what a plan can vary, and nothing derived from it.

    Row i of A is a fixed-width lowercase hex mask; bit j of int(row, 16)
    is column j."""
    width = (plan.n + 3) // 4
    doc = {
        "format": PLAN_FORMAT,
        "genpoly": plan.field.genpoly,
        "n": plan.n,
        "permutation": list(plan.permutation),
        "constants": list(plan.constants),
        "a_matrix": [f"{m:0{width}x}" for m in plan.a_matrix.row_masks],
    }
    return json.dumps(doc, indent=None, separators=(",", ":"), sort_keys=True)


def _is_int(v) -> bool:
    return type(v) is int  # JSON integers only: no floats, no booleans


def _list_of(valid):
    return lambda v: isinstance(v, list) and all(map(valid, v))


def _require(doc: dict, key: str, valid, what: str):
    """doc[key], after checking that it is present and valid(value)."""
    if key not in doc:
        raise ValueError(f"plan document has no {key!r}")
    if not valid(doc[key]):
        raise ValueError(f"plan {key!r} is not {what}")
    return doc[key]


def plan_from_json(text: str) -> CfftPlan:
    """Inverse of plan_to_json. A document that is not a plan raises
    ValueError; its counts are derived from its matrices."""
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("plan document is nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("not a plan document")
    _require(doc, "format", lambda v: v == PLAN_FORMAT, repr(PLAN_FORMAT))
    unknown = sorted(set(doc) - _PLAN_KEYS)
    if unknown:
        raise ValueError(f"plan document has unknown key {unknown[0]!r}")
    genpoly = _require(doc, "genpoly", _is_int, "an integer")
    n = _require(doc, "n", _is_int, "an integer")
    ints = _list_of(_is_int)
    permutation = _require(doc, "permutation", ints, "a list of integers")
    constants = _require(doc, "constants", ints, "a list of integers")
    rows = _require(doc, "a_matrix", _list_of(lambda r: isinstance(r, str)),
                    "a list of strings")
    cosets(n)  # rejects a length that does not divide 2047
    if len(rows) != n:
        raise ValueError(f"plan 'a_matrix' has {len(rows)} rows, expected {n}")
    width, limit = (n + 3) // 4, 1 << n
    masks = []
    for i, row in enumerate(rows):
        # int(row, 16) alone would also take 0x, _, a sign, whitespace and A-F
        mask = int(row, 16) if len(row) == width and _HEX_ROW.fullmatch(row) else -1
        if not 0 <= mask < limit:
            raise ValueError(
                f"plan 'a_matrix' row {i} is not {width} lowercase hex digits "
                f"holding a mask below 2^{n}"
            )
        masks.append(mask)
    return CfftPlan(Field(genpoly), n, permutation, constants, BitMatrix(n, n, masks))
