import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cfft2047 import (
    BitMatrix,
    CountingField,
    t5_matrices,
    t5_apply,
    t10_apply,
    conv11_matrices,
    conv11_apply,
    aft_integer_model,
    aft_forward_int,
    aft_inverse_int,
    verify_toeplitz_reduction,
    conv11_int,
)
from cfft2047 import bilinear, oracle

from conftest import (
    REFERENCE_T5_P,
    REFERENCE_T5_Q,
    REFERENCE_T5_R,
    derive_coefficient_maps,
    parse_rows,
    random_vector,
    unit_vector,
)


# --- bit matrix basics ------------------------------------------------------


def test_bitmatrix_roundtrip_and_ops():
    m = BitMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
    assert m.rows == 2 and m.cols == 3
    assert m.entry(0, 2) == 1 and m.entry(1, 0) == 0
    assert m.row_indices(1) == (1, 2)
    assert BitMatrix.from_text(m.to_text()) == m
    t = m.transpose()
    assert t.rows == 3 and t.entry(2, 0) == 1
    ident = BitMatrix.identity(3)
    assert m @ ident == m
    assert m.apply_bits(0b101) == 0b10  # row0: cols 0,2 cancel; row1: col 2 only
    assert m.apply_field([3, 5, 6]) == [3 ^ 6, 5 ^ 6]
    assert m.apply_field_packed([3, 5, 6]) == [3 ^ 6, 5 ^ 6]


def _per_bit_text(m):
    """Reference rendering: one character per entry, one row per line."""
    return "\n".join(
        "".join("1" if (mask >> j) & 1 else "0" for j in range(m.cols))
        for mask in m.row_masks
    )


def _per_char_parse(text):
    """Reference parse: int() of every character, then row-by-row checks."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    return BitMatrix.from_rows([[int(c) for c in ln] for ln in lines])


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return ("ValueError", str(exc))


@st.composite
def bit_matrices(draw):
    rows = draw(st.integers(0, 20))
    cols = draw(st.integers(1, 40)) if rows else 0
    masks = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    return BitMatrix(rows, cols, masks)


@settings(max_examples=200, deadline=None)
@given(bit_matrices())
def test_bitmatrix_text_matches_per_bit_reference(m):
    text = m.to_text()
    assert text == _per_bit_text(m)
    assert BitMatrix.from_text(text) == m


@st.composite
def edge_bit_matrices(draw):
    """Shapes bit_matrices() leaves out: 0 rows, 0 columns, 41-200 columns."""
    rows, cols = draw(st.one_of(
        st.tuples(st.just(0), st.integers(0, 200)),
        st.tuples(st.integers(0, 20), st.just(0)),
        st.tuples(st.integers(1, 20), st.integers(41, 200)),
    ))
    mask = st.one_of(st.just(0), st.integers(0, (1 << cols) - 1))
    return BitMatrix(rows, cols, draw(st.lists(mask, min_size=rows, max_size=rows)))


@settings(max_examples=200, deadline=None)
@given(st.one_of(bit_matrices(), edge_bit_matrices()))
@example(BitMatrix(0, 0, []))
@example(BitMatrix(3, 0, [0, 0, 0]))
@example(BitMatrix(0, 200, []))
@example(BitMatrix(2, 200, [(1 << 200) - 1, 1 << 199]))
def test_bit_conversions_match_per_bit_reference(m):
    ref = [[(mask >> j) & 1 for j in range(m.cols)] for mask in m.row_masks]
    bits = m.bits()
    assert bits.dtype == np.uint8 and bits.shape == (m.rows, m.cols)
    assert bits.tolist() == ref
    assert bilinear.pack_rows(bits) == list(m.row_masks)
    assert np.array_equal(bilinear.unpack_rows(bilinear.pack_rows(bits), m.cols), bits)
    t = m.transpose()
    assert (t.rows, t.cols) == (m.cols, m.rows)
    assert t.row_masks == tuple(
        sum(ref[i][j] << i for i in range(m.rows)) for j in range(m.cols))
    assert t.transpose() == m
    columns = [[j for j, bit in enumerate(row) if bit] for row in ref]
    assert [list(m.row_indices(i)) for i in range(m.rows)] == columns
    table = m._gather_table()
    width = max(map(len, columns), default=0)
    assert table.dtype == np.intp and not table.flags.writeable
    assert table.shape == (m.rows, width)
    assert table.tolist() == [c + [m.cols] * (width - len(c)) for c in columns]


@pytest.mark.parametrize("shape", [(0, 0), (1, 1), (3, 7), (2, 8), (5, 9), (130, 17)])
def test_bitmatrix_text_edge_shapes(shape):
    rows, cols = shape
    rng = random.Random(rows * 100 + cols)
    m = BitMatrix(rows, cols, [rng.getrandbits(cols) for _ in range(rows)])
    assert m.to_text() == _per_bit_text(m)
    assert BitMatrix(rows, 0, [0] * rows).to_text() == "\n" * (rows - 1)  # empty rows
    assert BitMatrix.from_text(m.to_text()) == m
    assert BitMatrix.from_text(m.to_text()) == _per_char_parse(m.to_text())


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0011 \t\n2x\u0661\uff10", max_size=60))
def test_bitmatrix_from_text_matches_per_char_reference(text):
    # U+0661 and U+FF10 are decimal digits (one, zero) that int() accepts
    assert _outcome(BitMatrix.from_text, text) == _outcome(_per_char_parse, text)


@pytest.mark.parametrize("text, message", [
    ("101\n11", "ragged rows"),
    ("101\n121", "entries must be 0 or 1"),
    ("101\n1x1", "invalid literal for int() with base 10: 'x'"),
    ("121\n11", "entries must be 0 or 1"),
    ("10\n1\n12", "ragged rows"),
    ("101\n12", "ragged rows"),
    ("12\n1x", "invalid literal for int() with base 10: 'x'"),
    ("1 0", "invalid literal for int() with base 10: ' '"),
])
def test_bitmatrix_from_text_errors(text, message):
    with pytest.raises(ValueError) as exc:
        BitMatrix.from_text(text)
    assert str(exc.value) == message
    assert _outcome(_per_char_parse, text) == ("ValueError", message)


def test_bitmatrix_from_text_ignores_blank_and_padded_lines():
    m = BitMatrix.from_text("\n\n  101 \n\t\n011\t\n\n")
    assert m == BitMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
    assert BitMatrix.from_text("") == BitMatrix(0, 0, [])
    assert BitMatrix.from_text(" \n\t\n") == BitMatrix(0, 0, [])


def test_bitmatrix_from_text_reports_first_bad_row_across_chunks():
    good = "01" * 20
    lines = [good] * (bilinear.CHUNK_ROWS + 10)
    lines[bilinear.CHUNK_ROWS + 3] = good[:-1] + "2"
    lines[bilinear.CHUNK_ROWS + 5] = good[:-1]
    with pytest.raises(ValueError, match="entries must be 0 or 1"):
        BitMatrix.from_text("\n".join(lines))
    lines[bilinear.CHUNK_ROWS + 1] = good + "0"
    with pytest.raises(ValueError, match="ragged rows"):
        BitMatrix.from_text("\n".join(lines))


def test_bitmatrix_rank_inverse():
    ident = BitMatrix.identity(4)
    assert ident.rank() == 4
    assert ident.inverse() == ident
    m = BitMatrix.from_rows([[1, 1], [0, 1]])
    inv = m.inverse()
    assert m @ inv == BitMatrix.identity(2)
    singular = BitMatrix.from_rows([[1, 1], [1, 1]])
    assert singular.rank() == 1
    with pytest.raises(ValueError):
        singular.inverse()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12).flatmap(
    lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)))
@example([0b01, 0b11])
@example([0b11, 0b11])
def test_rank_and_inverse_agree(masks):
    n = len(masks)
    m = BitMatrix(n, n, masks)
    rank = m.rank()
    assert rank == m.transpose().rank()
    if rank == n:
        assert m @ m.inverse() == BitMatrix.identity(n)
        assert m.inverse() @ m == BitMatrix.identity(n)
    else:
        with pytest.raises(ValueError, match="singular"):
            m.inverse()


def test_bitmatrix_packed_matches_plain(field):
    rng = random.Random(0)
    rows = [[rng.randrange(2) for _ in range(40)] for _ in range(17)]
    m = BitMatrix.from_rows(rows)
    vec = random_vector(rng, 40)
    assert m.apply_field(vec) == m.apply_field_packed(vec)


def _per_entry_apply(m, vec):
    """Reference: xor vec[j] into output i for every entry (i, j) that is 1."""
    out = []
    for i in range(m.rows):
        acc = 0
        for j in range(m.cols):
            if m.entry(i, j):
                acc ^= vec[j]
        out.append(acc)
    return out


@st.composite
def kernel_cases(draw):
    """A matrix with some all-zero rows, a field vector, a (cols, k) block
    and a vector of ints up to 100 bits wide."""
    rows = draw(st.integers(0, 45))
    cols = draw(st.integers(0, 70))
    mask = st.one_of(st.just(0), st.integers(0, (1 << cols) - 1))
    m = BitMatrix(rows, cols, draw(st.lists(mask, min_size=rows, max_size=rows)))
    elems = lambda size: st.lists(st.integers(0, 2047), min_size=size, max_size=size)  # noqa: E731
    vec = draw(elems(cols))
    k = draw(st.integers(0, 4))
    block = np.array(draw(elems(cols * k)), dtype=np.int16).reshape(cols, k)
    wide = draw(st.lists(st.integers(0, 1 << 100), min_size=cols, max_size=cols))
    return m, vec, block, wide


@settings(max_examples=200, deadline=None)
@given(kernel_cases())
@example((BitMatrix(0, 0, []), [], np.zeros((0, 2), np.int16), []))
@example((BitMatrix(3, 0, [0, 0, 0]), [], np.zeros((0, 1), np.int16), []))
@example((BitMatrix(2, 9, [0, 0x1FF]), [2047] * 9, np.full((9, 3), 5, np.int16), [1 << 90] * 9))
# np.asarray reads 2^63 beside the padding zero as a float64 array
@example((BitMatrix(1, 1, [1]), [0], np.zeros((1, 0), np.int16), [1 << 63]))
def test_apply_field_kernels_match_per_entry_reference(case):
    m, vec, block, wide = case
    want = _per_entry_apply(m, vec)
    got = m.apply_field(vec)
    assert type(got) is list and all(type(v) is int for v in got)
    assert got == want
    assert m.apply_field(tuple(vec)) == want
    assert m.apply_field_packed(vec) == want
    assert m.apply_field_packed(np.array(vec, dtype=np.int16)) == want
    out = m.apply_field(block)
    assert isinstance(out, np.ndarray) and out.shape == (m.rows, block.shape[1])
    for c in range(block.shape[1]):
        assert out[:, c].tolist() == _per_entry_apply(m, block[:, c].tolist())
    assert m.apply_field(wide) == _per_entry_apply(m, wide)
    # the same product over GF(2): bit j of the mask is vec[j]'s low bit
    low = [v & 1 for v in vec]
    want_bits = _per_entry_apply(m, low)
    assert m.apply_bits(sum(b << j for j, b in enumerate(low))) == sum(
        b << i for i, b in enumerate(want_bits))


@pytest.mark.parametrize("bad", [2048, -1, 1.5, 1 << 70, "3"])
def test_apply_field_packed_rejects_bad_elements(bad):
    m = BitMatrix(2, 3, [0b101, 0b110])
    for vec in ([1, 2, bad], (bad, 0, 0)):
        with pytest.raises(ValueError, match="integers in 0..2047"):
            m.apply_field_packed(vec)
    if not isinstance(bad, str):
        with pytest.raises(ValueError, match="integers in 0..2047"):
            m.apply_field_packed(np.array([0, bad, 0]))
    with pytest.raises(ValueError, match="integers in 0..2047"):
        m.apply_field_packed(np.zeros((3, 2), dtype=np.int16))
    with pytest.raises(ValueError, match="length mismatch"):
        m.apply_field_packed([1, 2])


# --- length-5 and length-10 Toeplitz products -------------------------------


def test_t5_matrix_shapes_and_rows():
    alg = t5_matrices()
    assert alg.t == 14
    assert (alg.p.rows, alg.p.cols) == (14, 5)
    assert (alg.r.rows, alg.r.cols) == (14, 9)
    assert (alg.q.rows, alg.q.cols) == (5, 14)
    assert [alg.r.entry(0, j) for j in range(9)] == [1, 1, 1, 1, 1, 0, 0, 0, 0]
    assert [alg.p.entry(13, j) for j in range(5)] == [1, 1, 0, 1, 1]


def test_t5_matrices_match_reference_tables():
    alg = t5_matrices()
    assert alg.r == BitMatrix.from_rows(parse_rows(REFERENCE_T5_R))
    assert alg.p == BitMatrix.from_rows(parse_rows(REFERENCE_T5_P))
    assert alg.q == BitMatrix.from_rows(parse_rows(REFERENCE_T5_Q))


def test_t5_apply(field):
    rng = random.Random(1)
    ident = [0, 0, 0, 0, 1, 0, 0, 0, 0]
    u = random_vector(rng, 5)
    assert t5_apply(field, ident, u) == u
    assert t5_apply(field, [0] * 9, u) == [0] * 5
    for _ in range(1000):
        r = random_vector(rng, 9)
        u = random_vector(rng, 5)
        assert t5_apply(field, r, u) == oracle.naive_toeplitz(field, r, u)
    with pytest.raises(ValueError):
        t5_apply(field, [0] * 8, u)


def test_t10_apply(field):
    rng = random.Random(2)
    ident = [0] * 9 + [1] + [0] * 9
    u = random_vector(rng, 10)
    assert t10_apply(field, ident, u) == u
    assert t10_apply(field, [0] * 19, u) == [0] * 10
    for _ in range(1000):
        r = random_vector(rng, 19)
        u = random_vector(rng, 10)
        assert t10_apply(field, r, u) == oracle.naive_toeplitz(field, r, u)
    with pytest.raises(ValueError):
        t10_apply(field, [0] * 18, u)


def test_multiplication_counts(field):
    rng = random.Random(3)
    cf = CountingField(field)
    t5_apply(cf, random_vector(rng, 9), random_vector(rng, 5))
    assert cf.mult_count == 14
    cf = CountingField(field)
    t10_apply(cf, random_vector(rng, 19), random_vector(rng, 10))
    assert cf.mult_count == 42
    cf = CountingField(field)
    conv11_apply(cf, random_vector(rng, 11), random_vector(rng, 11))
    assert cf.mult_count == 43


# --- 11-point cyclic convolution --------------------------------------------


def test_conv11_matrix_shapes():
    alg = conv11_matrices()
    assert alg.t == 43
    assert (alg.p.rows, alg.p.cols) == (43, 11)
    assert (alg.r.rows, alg.r.cols) == (43, 11)
    assert (alg.q.rows, alg.q.cols) == (11, 43)


def test_input_map_identity_pair():
    # the first input map feeds x'0 + x'1: two interleaved 5x5 identities
    pi3 = bilinear.input_maps()[0]
    want = [[1 if (j == i or j == i + 5) else 0 for j in range(10)] for i in range(5)]
    assert pi3 == BitMatrix.from_rows(want)


def test_coefficient_map_row_weights():
    pi0 = bilinear.coefficient_maps()[0]
    for i in range(9):
        weight = sum(pi0.entry(i, j) for j in range(10))
        assert weight == (10 if i == 6 else 9)


def test_coefficient_maps_match_derivation():
    derived = derive_coefficient_maps()
    for got, want in zip(bilinear.coefficient_maps(), derived):
        assert got == BitMatrix.from_rows(want)


def test_forward_matrix_structure():
    fwd = bilinear.forward_matrix()
    assert fwd.rows == 11 and fwd.cols == 11
    assert fwd.row_masks[0] == (1 << 11) - 1
    for i in range(1, 11):
        assert fwd.row_indices(i) == (i - 1, 10)
    assert fwd.rank() == 11


def test_conv11_apply(field):
    rng = random.Random(4)
    y = random_vector(rng, 11)
    assert conv11_apply(field, unit_vector(11, 0), y) == y
    ones = [1] * 11
    assert conv11_apply(field, ones, ones) == ones  # 11 is odd
    for _ in range(1000):
        x = random_vector(rng, 11)
        y = random_vector(rng, 11)
        assert conv11_apply(field, x, y) == oracle.naive_cyclic_conv(field, x, y)
    with pytest.raises(ValueError):
        conv11_apply(field, [0] * 10, y)


def test_conv11_commutative_and_bilinear(field):
    rng = random.Random(5)
    for _ in range(1000):
        x = random_vector(rng, 11)
        y = random_vector(rng, 11)
        assert conv11_apply(field, x, y) == conv11_apply(field, y, x)
    for _ in range(200):
        x1 = random_vector(rng, 11)
        x2 = random_vector(rng, 11)
        y = random_vector(rng, 11)
        lhs = conv11_apply(field, [a ^ b for a, b in zip(x1, x2)], y)
        rhs = [a ^ b for a, b in zip(conv11_apply(field, x1, y), conv11_apply(field, x2, y))]
        assert lhs == rhs
        y1 = random_vector(rng, 11)
        y2 = random_vector(rng, 11)
        lhs = conv11_apply(field, x1, [a ^ b for a, b in zip(y1, y2)])
        rhs = [a ^ b for a, b in zip(conv11_apply(field, x1, y1), conv11_apply(field, x1, y2))]
        assert lhs == rhs


def test_conv11_matrices_exhaustive_over_gf2():
    # pure GF(2) check, no field arithmetic: every impulse pair reproduces
    # the cyclic-convolution unit response
    alg = conv11_matrices()
    for i in range(11):
        px = alg.p.apply_bits(1 << i)
        for j in range(11):
            ry = alg.r.apply_bits(1 << j)
            z = alg.q.apply_bits(px & ry)
            assert z == 1 << ((i + j) % 11), (i, j)


# --- exact-integer transform model ------------------------------------------


def test_integer_model_matrices():
    model = aft_integer_model()
    prod = [
        [sum(model.b[i][k] * model.b_inv_scaled[k][j] for k in range(11)) for j in range(11)]
        for i in range(11)
    ]
    assert prod == [[11 if i == j else 0 for j in range(11)] for i in range(11)]
    assert all(model.a3[i][i + 1] == 10 for i in range(9))
    assert model.a3[3][3] == -1


def test_aft_forward_examples():
    x0, xp = aft_forward_int([1] + [0] * 10)
    assert x0 == 1 and xp == [1] + [0] * 9
    x0, xp = aft_forward_int([1] * 11)
    assert x0 == 11 and xp == [0] * 10


def test_aft_inverse_examples():
    rng = random.Random(6)
    for _ in range(200):
        x = [rng.randint(-1000, 1000) for _ in range(11)]
        x0, xp = aft_forward_int(x)
        assert aft_inverse_int(x0, xp) == [11 * v for v in x]
    assert aft_inverse_int(7, [0] * 10) == [7] * 11
    model = aft_integer_model()
    col0 = [model.a3[i][0] for i in range(10)]
    assert aft_inverse_int(0, [1] + [0] * 9) == [-sum(col0)] + col0


def test_toeplitz_reduction():
    assert verify_toeplitz_reduction([0] * 10)
    assert verify_toeplitz_reduction([1] + [0] * 9)
    rng = random.Random(7)
    for _ in range(1000):
        yp = [rng.randint(-100, 100) for _ in range(10)]
        assert verify_toeplitz_reduction(yp)


def test_conv11_int(field):
    rng = random.Random(8)
    y = [rng.randint(-50, 50) for _ in range(11)]
    assert conv11_int([1] + [0] * 10, y) == y
    assert conv11_int([1] * 11, [1] * 11) == [11] * 11
    for _ in range(1000):
        x = [rng.randint(-50, 50) for _ in range(11)]
        y = [rng.randint(-50, 50) for _ in range(11)]
        assert conv11_int(x, y) == oracle.naive_cyclic_conv_int(x, y)
