"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Tolerances are pinned here and nowhere else.
"""

import json
import random
import time

import numpy as np
import pytest

from cfft2047 import (
    BitMatrix,
    CountingField,
    build_plan,
    compile_bilinear,
    compile_plan,
    conv11_apply,
    conv11_int,
    conv11_matrices,
    cosets,
    evaluate,
    greedy_cse,
    plan_from_json,
    plan_to_json,
    t5_apply,
    t10_apply,
    verify_toeplitz_reduction,
)
from cfft2047 import bilinear, oracle

from conftest import (
    REFERENCE_PI,
    REFERENCE_S,
    REFERENCE_T_TRUNCATED,
    REFERENCE_T5_P,
    REFERENCE_T5_Q,
    REFERENCE_T5_R,
    derive_coefficient_maps,
    parse_rows,
    random_vector,
    unit_vector,
)

DIRECT_ADD_TARGET = 2154428
DIRECT_ADD_TOLERANCE = 0.05


def _pass(msg):
    print(f"\nPASS {msg}")


def test_criterion_01_conv11_correctness(field):
    start = time.monotonic()
    for i in range(11):
        for j in range(11):
            got = conv11_apply(field, unit_vector(11, i), unit_vector(11, j))
            assert got == unit_vector(11, (i + j) % 11), (i, j)
    rng = random.Random(101)
    for _ in range(10_000):
        x = random_vector(rng, 11)
        y = random_vector(rng, 11)
        assert conv11_apply(field, x, y) == oracle.naive_cyclic_conv(field, x, y)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s, limit 10s"
    _pass(
        "criterion 1: conv-11 equals the naive convolution on 121 unit pairs "
        f"and 10^4 random pairs ({elapsed:.1f}s)"
    )


def test_criterion_02_conv11_multiplicative_complexity(field):
    cf = CountingField(field)
    rng = random.Random(102)
    conv11_apply(cf, random_vector(rng, 11), random_vector(rng, 11))
    assert cf.mult_count == 43
    # choose a coefficient side whose 43 linear forms are all nontrivial so
    # the compiled program cannot fold any of them away
    alg = conv11_matrices()
    while True:
        y = random_vector(rng, 11)
        if all(v not in (0, 1) for v in alg.r.apply_field(y)):
            break
    prog = compile_bilinear(field, alg, y)
    assert prog.cmul_count == 43
    for _ in range(100):
        x = random_vector(rng, 11)
        assert prog.run(field, x) == conv11_apply(field, x, y)
    _pass("criterion 2: conv-11 instrumented and compiled multiplication counts are both 43")


def test_criterion_03_toeplitz_correctness_and_counts(field):
    rng = random.Random(103)
    cf5 = CountingField(field)
    for _ in range(1000):
        r = random_vector(rng, 9)
        u = random_vector(rng, 5)
        assert t5_apply(cf5, r, u) == oracle.naive_toeplitz(field, r, u)
    assert cf5.mult_count == 14 * 1000
    cf10 = CountingField(field)
    for _ in range(1000):
        r = random_vector(rng, 19)
        u = random_vector(rng, 10)
        assert t10_apply(cf10, r, u) == oracle.naive_toeplitz(field, r, u)
    assert cf10.mult_count == 42 * 1000
    _pass(
        "criterion 3: length-5/length-10 Toeplitz products match the naive oracle "
        "on 10^3 random cases each, at exactly 14 and 42 multiplications"
    )


def test_criterion_04_integer_transform_derivation():
    rng = random.Random(104)
    for _ in range(1000):
        yp = [rng.randint(-100, 100) for _ in range(10)]
        assert verify_toeplitz_reduction(yp)
    for _ in range(1000):
        x = [rng.randint(-100, 100) for _ in range(11)]
        y = [rng.randint(-100, 100) for _ in range(11)]
        assert conv11_int(x, y) == oracle.naive_cyclic_conv_int(x, y)
    _pass(
        "criterion 4: integer Toeplitz reduction holds and the integer pipeline "
        "matches the naive convolution with exact division by 11, 10^3 cases each"
    )


def test_criterion_05_cfft_correctness(field, plan23, plan89, plan2047):
    start = time.monotonic()
    rng = random.Random(105)
    for i in range(23):
        f = unit_vector(23, i)
        assert evaluate(plan23, f) == oracle.naive_dft(field, f)
    for _ in range(1000):
        f = random_vector(rng, 23)
        assert evaluate(plan23, f) == oracle.naive_dft(field, f)
    for i in range(89):
        f = unit_vector(89, i)
        assert evaluate(plan89, f) == oracle.naive_dft(field, f)
    for _ in range(100):
        f = random_vector(rng, 89)
        assert evaluate(plan89, f) == oracle.naive_dft(field, f)
    for i in range(20):
        f = unit_vector(2047, i)
        assert evaluate(plan2047, f) == oracle.naive_dft(field, f)
    for _ in range(100):
        f = random_vector(rng, 2047)
        assert evaluate(plan2047, f) == oracle.naive_dft(field, f)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s, limit 120s"
    _pass(
        "criterion 5: plans equal the naive DFT exactly at n=23 (23 units + 10^3 "
        f"random), n=89 (89 units + 100 random), n=2047 (20 units + 100 random) ({elapsed:.1f}s)"
    )


def test_criterion_06_coset_census():
    census = cosets(2047).census()
    assert census == {1: 1, 11: 186}
    _pass("criterion 6: n=2047 has exactly 1 size-1 coset and 186 size-11 cosets")


def test_criterion_07_cfft_multiplicative_complexity(plan2047):
    gamma = f"basis exponent {plan2047.gamma_exponent}"
    assert plan2047.mult_count == 7812, gamma
    big = plan2047.big_cosets
    assert len(big) == 186
    for bi in range(len(big)):
        block = plan2047.constants[1 + 43 * bi : 1 + 43 * (bi + 1)]
        assert block[0] == 1, f"coset {bi} first constant {block[0]} ({gamma})"
        trivial = [t for t, c in enumerate(block[1:], 1) if c in (0, 1)]
        assert not trivial, f"coset {bi} trivial constants at {trivial} ({gamma})"
    _pass(
        "criterion 7: n=2047 multiplication count is 7812 = 186 x 42, first "
        "constant of every block is 1, no other constant is 0 or 1"
    )


def test_criterion_08_direct_additive_complexity(plan2047):
    add = plan2047.add_count
    rel = abs(add - DIRECT_ADD_TARGET) / DIRECT_ADD_TARGET
    assert rel <= DIRECT_ADD_TOLERANCE, f"add={add}, off by {rel:.2%}"
    _pass(
        f"criterion 8: direct addition count {add} is within "
        f"{DIRECT_ADD_TOLERANCE:.0%} of {DIRECT_ADD_TARGET} (off by {rel:.2%}; "
        "exact reproduction is unattainable because the reference figure's "
        "basis and counting convention are unstated)"
    )


def test_criterion_09_cse_on_n2047_program(field, prog2047):
    optimized = greedy_cse(prog2047)
    assert optimized.xor_count < prog2047.xor_count
    assert optimized.cmul_count == prog2047.cmul_count == 7812
    dft = oracle.dft_matrix(field, 2047)
    assert np.array_equal(prog2047.matrix(field), dft)
    assert np.array_equal(optimized.matrix(field), dft)
    _pass(
        f"criterion 9: greedy CSE reduces the n=2047 program from "
        f"{prog2047.xor_count} to {optimized.xor_count} xors and preserves all "
        "7812 cmuls; the compiled and the optimized program each have the "
        "2047-point DFT matrix as their GF(2^11) matrix, so both equal the "
        "DFT on every input (the reference optimized count comes from a "
        "stronger, out-of-scope algorithm)"
    )


def test_criterion_10_plan_roundtrip(field, plan23, plan2047):
    rng = random.Random(110)
    for plan in (plan23, plan2047):
        back = plan_from_json(plan_to_json(plan))
        assert back == plan
        f = random_vector(rng, plan.n)
        assert evaluate(back, f) == evaluate(plan, f)
    _pass("criterion 10: serialize -> deserialize is bit-identical at n=23 and n=2047")


def test_criterion_11_reference_matrix_fidelity():
    t5 = bilinear.t5_matrices()
    assert t5.r == BitMatrix.from_rows(parse_rows(REFERENCE_T5_R))
    assert t5.p == BitMatrix.from_rows(parse_rows(REFERENCE_T5_P))
    assert t5.q == BitMatrix.from_rows(parse_rows(REFERENCE_T5_Q))
    assert bilinear.output_matrix() == BitMatrix.from_rows(parse_rows(REFERENCE_S))
    maps = bilinear.coefficient_maps() + bilinear.input_maps()
    for got, text in zip(maps, REFERENCE_PI):
        assert got == BitMatrix.from_rows(parse_rows(text))

    # the truncated rendering omits row 10 and column 9 of the forward
    # matrix; each visible row must match the reconstruction on the
    # remaining columns 0..8 and 10
    fwd = bilinear.forward_matrix()
    visible_cols = list(range(9)) + [10]
    truncated = parse_rows(REFERENCE_T_TRUNCATED)
    assert len(truncated) == 10
    for i, row in enumerate(truncated):
        assert row == [fwd.entry(i, j) for j in visible_cols], f"row {i}"

    derived = derive_coefficient_maps()
    for got, want in zip(bilinear.coefficient_maps(), derived):
        assert got == BitMatrix.from_rows(want)
    _pass(
        "criterion 11: all reference tables match entry-for-entry, the "
        "reconstructed forward matrix matches every visible row of its "
        "truncated rendering, and the coefficient maps match their "
        "independent re-derivation"
    )
