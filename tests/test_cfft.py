import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cfft2047 import (
    BitMatrix,
    Field,
    build_plan,
    compile_plan,
    cosets,
    decompose,
    evaluate,
    find_normal_basis,
    plan_from_json,
    plan_to_json,
)
from cfft2047 import bilinear, cfft, oracle

from conftest import random_vector, unit_vector


def test_cosets_23():
    table = cosets(23)
    assert table.cosets == (
        (0,),
        (1, 2, 4, 8, 16, 9, 18, 13, 3, 6, 12),
        (5, 10, 20, 17, 11, 22, 21, 19, 15, 7, 14),
    )
    assert table.representatives == (0, 1, 5)


def test_cosets_census():
    assert cosets(1).cosets == ((0,),)
    assert cosets(89).census() == {1: 1, 11: 8}
    table = cosets(2047)
    assert table.census() == {1: 1, 11: 186}
    assert len(table.cosets) == 187
    flat = sorted(m for c in table.cosets for m in c)
    assert flat == list(range(2047))


@pytest.mark.parametrize("n", [0, 7, 46, 2048, -1])
def test_cosets_rejects_bad_lengths(n):
    with pytest.raises(ValueError):
        cosets(n)


def test_normal_basis(field):
    basis = find_normal_basis(field)
    assert basis.gamma == field.pow(field.alpha, basis.exponent)
    assert basis.exponent == 9  # smallest exponent with independent conjugates
    for t in range(1, basis.exponent):
        g = field.pow(field.alpha, t)
        conj = [g]
        for _ in range(10):
            conj.append(field.mul(conj[-1], conj[-1]))
        assert BitMatrix(11, 11, conj).rank() < 11
    assert BitMatrix(11, 11, list(basis.conjugates)).rank() == 11
    assert field.trace(basis.gamma) == 1
    assert basis.conjugates[0] == basis.gamma
    for s in range(10):
        assert basis.conjugates[s + 1] == field.mul(
            basis.conjugates[s], basis.conjugates[s]
        )


def test_normal_basis_is_searched_once_per_polynomial(field, monkeypatch):
    searched = []
    search = cfft._search_normal_basis

    def counting_search(f):
        searched.append(f.genpoly)
        return search(f)

    monkeypatch.setattr(cfft, "_search_normal_basis", counting_search)
    monkeypatch.setattr(cfft, "_NORMAL_BASES", {})
    plan = build_plan(field, 23)
    assert plan_from_json(plan_to_json(plan)) == plan
    assert find_normal_basis(Field(field.genpoly)) is find_normal_basis(field)
    other = Field(0xA01)  # x^11 + x^9 + 1
    plan_from_json(plan_to_json(build_plan(other, 23)))
    assert searched == [field.genpoly, other.genpoly]


def test_decompose_roundtrip(field):
    basis = find_normal_basis(field)
    for s in range(11):
        assert decompose(basis.conjugates[s], basis) == 1 << s
    assert decompose(0, basis) == 0
    rng = random.Random(0)
    for _ in range(1000):
        e = rng.randrange(2048)
        bits = decompose(e, basis)
        recombined = 0
        for s in range(11):
            if (bits >> s) & 1:
                recombined ^= basis.conjugates[s]
        assert recombined == e


def test_plan23_structure(field, plan23):
    assert plan23.n == 23
    assert len(plan23.big_cosets) == 2
    assert len(plan23.constants) == 1 + 2 * 43
    assert plan23.constants[0] == 1
    for bi in range(2):
        block = plan23.constants[1 + 43 * bi : 1 + 43 * (bi + 1)]
        assert block[0] == 1
        assert all(c not in (0, 1) for c in block[1:])
    assert plan23.mult_count == 84
    assert sorted(plan23.permutation) == list(range(23))
    assert plan23.a_matrix.rank() == 23


def test_plan_add_count_recomputed(plan23):
    alg = bilinear.conv11_matrices()

    def stage(m):
        return sum(max(0, mask.bit_count() - 1) for mask in m.row_masks)

    expected = 2 * (stage(alg.p) + stage(alg.q)) + stage(plan23.a_matrix)
    assert plan23.add_count == expected


def test_per_coset_convolution_reduction(field, plan23):
    # each size-11 block must reproduce the linearized-polynomial values
    # L_i(conjugate_s) for the coset data, in conjugate order
    rng = random.Random(1)
    basis = find_normal_basis(field)
    alg = bilinear.conv11_matrices()
    consts = list(plan23.constants[1:44])
    for coset in plan23.big_cosets:
        f_i = random_vector(rng, 11)  # f_i[p] is the value at index k*2^p
        reordered = [f_i[(11 - p) % 11] for p in range(11)]
        linear = alg.p.apply_field(reordered)
        prods = [field.mul(c, v) for c, v in zip(consts, linear)]
        block = alg.q.apply_field(prods)
        want = [
            oracle.naive_linearized_eval(field, f_i, basis.conjugates[s])
            for s in range(11)
        ]
        assert block == want


def test_evaluate_23(field, plan23):
    rng = random.Random(2)
    assert evaluate(plan23, [0] * 23) == [0] * 23
    assert evaluate(plan23, unit_vector(23, 0)) == [1] * 23
    for i in range(23):
        f = unit_vector(23, i)
        assert evaluate(plan23, f) == oracle.naive_dft(field, f)
    for _ in range(100):
        f = random_vector(rng, 23)
        assert evaluate(plan23, f) == oracle.naive_dft(field, f)


def test_evaluate_linearity(field, plan23):
    rng = random.Random(3)
    for _ in range(100):
        f = random_vector(rng, 23)
        g = random_vector(rng, 23)
        lhs = evaluate(plan23, [a ^ b for a, b in zip(f, g)])
        rhs = [a ^ b for a, b in zip(evaluate(plan23, f), evaluate(plan23, g))]
        assert lhs == rhs


def test_evaluate_errors(plan23):
    with pytest.raises(ValueError):
        evaluate(plan23, [0] * 22)
    with pytest.raises(ValueError):
        evaluate(plan23, [0] * 22 + [4096])


@pytest.mark.parametrize("bad", [5.7, 5.0, "5", None, True, np.True_])
def test_evaluate_rejects_non_integer_elements(plan23, bad):
    for f in ([0] * 22 + [bad], (0,) * 22 + (bad,)):
        with pytest.raises(ValueError):
            evaluate(plan23, f)


def test_evaluate_accepts_integer_arrays(field, plan23):
    f = random_vector(random.Random(9), 23)
    want = oracle.naive_dft(field, f)
    assert evaluate(plan23, f) == want
    for dtype in (np.int16, np.int64, np.uint16):
        assert evaluate(plan23, np.array(f, dtype=dtype)) == want
    with pytest.raises(ValueError):
        evaluate(plan23, np.array([0] * 22 + [-1]))
    with pytest.raises(ValueError):
        evaluate(plan23, np.full(23, 3.0))


def test_plan_n1(field):
    plan = build_plan(field, 1)
    assert (plan.mult_count, plan.add_count) == (0, 0)
    assert plan.permutation == (0,)
    assert plan.constants == (1,)
    assert evaluate(plan, [7]) == [7]


def test_plan89(field, plan89):
    rng = random.Random(4)
    assert plan89.mult_count == 8 * 42
    assert len(plan89.constants) == 1 + 8 * 43
    # evaluate is GF(2^11)-linear, so its outputs on the unit vectors, the
    # columns of its matrix, prove it equal to the DFT on every input
    columns = [evaluate(plan89, unit_vector(89, i)) for i in range(89)]
    assert np.array_equal(np.array(columns).T, oracle.dft_matrix(field, 89))
    for _ in range(25):
        f = random_vector(rng, 89)
        assert evaluate(plan89, f) == oracle.naive_dft(field, f)


def test_plan2047_structure(field, plan2047):
    assert plan2047.mult_count == 7812
    assert plan2047.add_count == 2130248  # frozen for the deterministic basis
    assert len(plan2047.constants) == 1 + 186 * 43
    assert plan2047.gamma_exponent == 9
    assert sorted(plan2047.permutation) == list(range(2047))
    assert plan2047.a_matrix.rank() == 2047


def test_plan2047_column_of_ones(plan2047):
    # the size-1 coset feeds f_0 into every output row
    assert all(mask & 1 for mask in plan2047.a_matrix.row_masks)


def _check_a_rows(field, plan, rows):
    """Row j of A: bit 0 set, block b = decompose(alpha^((j*c_b mod n)*2047/n))."""
    n = plan.n
    basis = find_normal_basis(field)
    reps = [c[0] for c in plan.big_cosets]
    for j in rows:
        mask = plan.a_matrix.row_masks[j]
        assert mask & 1, f"row {j}"
        for b, c in enumerate(reps):
            elem = field.pow(field.alpha, (j * c) % n * (2047 // n))
            want = decompose(elem, basis)
            assert (mask >> (1 + 11 * b)) & 0x7FF == want, f"row {j}, block {b}"


@pytest.mark.parametrize("n", [1, 23, 89])
def test_a_matrix_rows_match_definition(field, n):
    plan = build_plan(field, n)
    assert plan.a_matrix.rows == plan.a_matrix.cols == n
    _check_a_rows(field, plan, range(n))


def test_a_matrix_rows_match_definition_2047(field, plan2047):
    rows = random.Random(8).sample(range(2047), 64)
    _check_a_rows(field, plan2047, rows)


def test_evaluate_2047(field, plan2047):
    rng = random.Random(5)
    e1 = unit_vector(2047, 1)
    assert evaluate(plan2047, e1) == [field.pow(2, j) for j in range(2047)]
    assert evaluate(plan2047, unit_vector(2047, 0)) == [1] * 2047
    for _ in range(3):
        f = random_vector(rng, 2047)
        assert evaluate(plan2047, f) == oracle.naive_dft(field, f)


elements_2047 = st.lists(st.integers(0, 2047), min_size=2047, max_size=2047)


@settings(max_examples=10, deadline=None)
@given(f=elements_2047)
def test_evaluate_twice_reverses_indices_2047(plan2047, f):
    # sum_j alpha^(j(i + k)) is n = 1 when i + k = 0 mod n and 0 otherwise
    assert evaluate(plan2047, evaluate(plan2047, f)) == [f[-j % 2047] for j in range(2047)]


@settings(max_examples=10, deadline=None)
@given(seed_f=st.integers(0, 2**32 - 1), seed_g=st.integers(0, 2**32 - 1))
def test_evaluate_linearity_2047(plan2047, seed_f, seed_g):
    # seeds, not drawn 2047-element lists, keep Hypothesis' inputs small
    f = random_vector(random.Random(seed_f), 2047)
    g = random_vector(random.Random(seed_g), 2047)
    lhs = evaluate(plan2047, [a ^ b for a, b in zip(f, g)])
    rhs = [a ^ b for a, b in zip(evaluate(plan2047, f), evaluate(plan2047, g))]
    assert lhs == rhs


@settings(max_examples=10, deadline=None)
@given(f=elements_2047)
def test_evaluate_frobenius_2047(field, plan2047, f):
    # squaring is additive in characteristic 2, so F(f^2)[2j] = F(f)[j]^2
    once = evaluate(plan2047, f)
    squared = evaluate(plan2047, [field.mul(v, v) for v in f])
    assert [squared[2 * j % 2047] for j in range(2047)] == [field.mul(v, v) for v in once]


def test_plan_roundtrip(field, plan23):
    text = plan_to_json(plan23)
    back = plan_from_json(text)
    assert back == plan23
    rng = random.Random(6)
    f = random_vector(rng, 23)
    assert evaluate(back, f) == evaluate(plan23, f)


def test_corrupted_plan_changes_output(field, plan23):
    doc = json.loads(plan_to_json(plan23))
    doc["constants"][2] ^= 1
    bad = plan_from_json(json.dumps(doc))
    rng = random.Random(7)
    f = random_vector(rng, 23)
    assert evaluate(bad, f) != oracle.naive_dft(field, f)


def test_plan_from_json_validation(plan23):
    doc = json.loads(plan_to_json(plan23))
    doc["format"] = "something-else"
    with pytest.raises(ValueError):
        plan_from_json(json.dumps(doc))
    doc["format"] = "cfft2047-plan"  # the old format has no reader
    with pytest.raises(ValueError, match="is not 'cfft2047-plan-2'"):
        plan_from_json(json.dumps(doc))
    doc = json.loads(plan_to_json(plan23))
    doc["permutation"][0] = doc["permutation"][1]
    with pytest.raises(ValueError):
        plan_from_json(json.dumps(doc))
    doc = json.loads(plan_to_json(plan23))
    doc["constants"][3] = 4096
    with pytest.raises(ValueError):
        plan_from_json(json.dumps(doc))
    doc = json.loads(plan_to_json(plan23))
    doc["a_matrix"] = doc["a_matrix"][:-1]
    with pytest.raises(ValueError):
        plan_from_json(json.dumps(doc))


def test_build_plan_rejects_bad_length(field):
    with pytest.raises(ValueError):
        build_plan(field, 11)


@pytest.mark.parametrize("genpoly", [0x805, 0xA01])  # x^11 + x^2 + 1, x^11 + x^9 + 1
def test_coordinate_table_matches_decompose(genpoly):
    basis = find_normal_basis(Field(genpoly))
    table = cfft._coordinate_bits(basis)
    want = [decompose(e, basis) for e in range(2048)]
    assert (table @ (1 << np.arange(11))).tolist() == want


def test_build_plan_runs_no_row_parity_kernel(field, monkeypatch):
    # the coordinates of x^b are read off from_poly, not computed by decompose
    want = build_plan(field, 89)

    def no_row_parity(*args):
        raise AssertionError("build_plan called BitMatrix.apply_bits")

    monkeypatch.setattr(bilinear.BitMatrix, "apply_bits", no_row_parity)
    assert build_plan(field, 89) == want


PLAN_KEYS = ("format", "genpoly", "n", "permutation", "constants", "a_matrix")


@pytest.mark.parametrize("n", [1, 23, 89, 2047])
def test_plan_document_holds_only_what_a_plan_varies(field, n):
    plan = build_plan(field, n)
    text = plan_to_json(plan)
    doc = json.loads(text)
    assert sorted(doc) == sorted(PLAN_KEYS)
    assert doc["format"] == "cfft2047-plan-2"
    width = (n + 3) // 4
    for row, mask in zip(doc["a_matrix"], plan.a_matrix.row_masks):
        assert len(row) == width and int(row, 16) == mask
    assert plan_from_json(text) == plan
    if n == 2047:
        assert len(text) < 1_200_000


@pytest.mark.parametrize("key", PLAN_KEYS)
def test_plan_from_json_missing_key(plan23, key):
    doc = json.loads(plan_to_json(plan23))
    del doc[key]
    with pytest.raises(ValueError, match=repr(key)):
        plan_from_json(json.dumps(doc))


@pytest.mark.parametrize("edit", [lambda d: d.pop("genpoly"),
                                  lambda d: d.update(genpoly="0x805")])
def test_plan_from_json_rejects_bad_genpoly(plan23, edit):
    doc = json.loads(plan_to_json(plan23))
    edit(doc)
    with pytest.raises(ValueError, match="genpoly"):
        plan_from_json(json.dumps(doc))


@pytest.mark.parametrize("text", ["[]", "3", '"cfft2047-plan"'])
def test_plan_from_json_rejects_non_objects(text):
    with pytest.raises(ValueError, match="not a plan document"):
        plan_from_json(text)


def test_plan_from_json_rejects_deep_nesting():
    # json.loads raises RecursionError on this, which is not a ValueError
    with pytest.raises(ValueError, match="nested too deeply"):
        plan_from_json("[" * 200_000 + "]" * 200_000)


def test_plan_from_json_rejects_inconsistent_counts(plan23):
    def load(edit):
        doc = json.loads(plan_to_json(plan23))
        edit(doc)
        return plan_from_json(json.dumps(doc))

    # a trivial constant more or less leaves mult_count consistent
    with pytest.raises(ValueError, match="expected 87 constants"):
        load(lambda d: d["constants"].append(1))
    with pytest.raises(ValueError, match="expected 87 constants"):
        load(lambda d: d["constants"].pop(0))
    # counts are derived, not stored: a stored count is an unknown key
    with pytest.raises(ValueError, match="add_count"):
        load(lambda d: d.update(add_count=plan23.add_count))
    assert load(lambda d: d["constants"].__setitem__(2, 1)).mult_count == \
        plan23.mult_count - 1


def test_loaded_plan_counts_its_own_matrix(plan23):
    doc = json.loads(plan_to_json(plan23))
    row = doc["a_matrix"][5]
    doc["a_matrix"][5] = row[:3] + f"{int(row[3], 16) ^ 0b0100:x}" + row[4:]
    bad = plan_from_json(json.dumps(doc))
    assert bad.a_matrix != plan23.a_matrix
    assert bad.add_count == compile_plan(bad).xor_count != plan23.add_count


def _rows_with(bad_row):
    """23 well-formed hex rows of width 6, the last one replaced."""
    return ["000001"] * 22 + [bad_row]


# cosets, gamma_exponent, mult_count, add_count and field are keys of the
# old format, so the document is rejected for holding an unknown key
@pytest.mark.parametrize("key, value", [
    ("n", "23"), ("n", 23.0), ("n", True), ("cosets", [[0], "1"]),
    ("permutation", [0.0] * 23), ("constants", ["7"] * 87), ("a_matrix", 5),
    ("a_matrix", [1] * 23), ("gamma_exponent", None), ("mult_count", 84.0),
    ("add_count", "552"), ("field", []),
    ("format", "cfft2047-plan"), ("format", None),
    ("a_matrix", _rows_with("00001")), ("a_matrix", _rows_with("0000001")),
    ("a_matrix", _rows_with("00000A")), ("a_matrix", _rows_with("0x0001")),
    ("a_matrix", _rows_with("00_001")), ("a_matrix", _rows_with("+00001")),
    ("a_matrix", _rows_with("-00001")), ("a_matrix", _rows_with(" 00001")),
    ("a_matrix", _rows_with("00001\n")), ("a_matrix", _rows_with("00000\u0661")),
    ("a_matrix", _rows_with("800000")), ("a_matrix", _rows_with("ffffff")),
    ("a_matrix", _rows_with("000001")[:-1]),
])
def test_plan_from_json_rejects_wrong_types(plan23, key, value):
    doc = json.loads(plan_to_json(plan23))
    doc[key] = value
    with pytest.raises(ValueError, match=repr(key)):
        plan_from_json(json.dumps(doc))
