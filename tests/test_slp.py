import hashlib
import random
import time
from collections import Counter
from functools import cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cfft2047 import (
    Slp,
    build_plan,
    compile_bilinear,
    compile_plan,
    conv11_apply,
    conv11_matrices,
    equivalent,
    evaluate,
    greedy_cse,
    t5_matrices,
)
from cfft2047 import oracle, slp
from cfft2047.slp import XOR, CMUL, _Builder, _dedup_xors, _greedy_pairs

from conftest import random_vector


def test_compile_counts_match_plan(plan23, prog23):
    assert prog23.n_inputs == 23
    assert prog23.n_outputs == 23
    assert prog23.xor_count == plan23.add_count
    assert prog23.cmul_count == plan23.mult_count
    prog23.validate()


def test_run_matches_evaluate(field, plan23, prog23):
    rng = random.Random(0)
    for _ in range(1000):
        f = random_vector(rng, 23)
        assert prog23.run(field, f) == evaluate(plan23, f)


def test_run_zero_and_determinism(field, prog23):
    assert prog23.run(field, [0] * 23) == [0] * 23
    rng = random.Random(1)
    f = random_vector(rng, 23)
    assert prog23.run(field, f) == prog23.run(field, f)


def test_run_arity_mismatch(field, prog23):
    with pytest.raises(ValueError):
        prog23.run(field, [0] * 22)


def test_compile_n1_is_passthrough(field):
    prog = compile_plan(build_plan(field, 1))
    assert prog.n_instructions == 0
    assert prog.run(field, [42]) == [42]


def test_compile_2047_matches_evaluate(field, plan2047, prog2047):
    assert prog2047.xor_count == plan2047.add_count
    assert prog2047.cmul_count == plan2047.mult_count
    rng = random.Random(8)
    for _ in range(5):
        f = random_vector(rng, 2047)
        assert prog2047.run(field, f) == evaluate(plan2047, f)


def test_cse_merges_duplicate_pair(field):
    # x0^x1 built twice, each feeding another xor
    b = _Builder(4)
    t4 = b._emit(XOR, 0, 1)
    t5 = b._emit(XOR, t4, 2)
    t6 = b._emit(XOR, 0, 1)
    t7 = b._emit(XOR, t6, 3)
    prog = b.finish([t5, t7])
    assert prog.xor_count == 4
    opt = greedy_cse(prog)
    assert opt.xor_count == 3
    assert equivalent(field, opt, prog)
    rng = random.Random(3)
    for _ in range(50):
        f = random_vector(rng, 4)
        assert opt.run(field, f) == prog.run(field, f)


def test_cse_never_loses_to_value_numbering():
    # a = x0^x1, b = x1^x0, c = (x0^x1)^b, d = (x0^x1)^a: the pair pass
    # shares x0^x1 but keeps c and d apart (3 xors); value numbering merges
    # a, b and both copies of x0^x1, then c and d (2 xors)
    b = _Builder(2)
    t_a, t_b = b._emit(XOR, 0, 1), b._emit(XOR, 1, 0)
    t_c = b._emit(XOR, b._emit(XOR, 0, 1), t_b)
    t_d = b._emit(XOR, b._emit(XOR, 0, 1), t_a)
    prog = b.finish([t_a, t_b, t_c, t_d])
    deduped = _dedup_xors(prog)
    assert deduped.xor_count == 2
    assert greedy_cse(prog).to_text() == deduped.to_text()


def _self_xors(prog):
    return [i for i in range(prog.n_instructions)
            if prog.kinds[i] == XOR and prog.op_a[i] == prog.op_b[i]]


def test_dedup_drops_a_zero_that_feeds_only_xors(field):
    # a = x0^x1, b = x1^x0, z = a^b is zero, c = z^x2 is x2: value
    # numbering that kept z as `xor a a` took 3 xors
    b = _Builder(3)
    t_a, t_b = b._emit(XOR, 0, 1), b._emit(XOR, 1, 0)
    t_c = b._emit(XOR, b._emit(XOR, t_a, t_b), 2)
    prog = b.finish([t_a, t_c])
    for opt in (_dedup_xors(prog), greedy_cse(prog)):
        assert _self_xors(opt) == []
        assert opt.xor_count == 1
        assert opt.outputs[1] == 2
        assert equivalent(field, opt, prog)


def test_dedup_emits_one_zero_for_cmuls_and_outputs(field):
    # z = (x0^x1)^(x1^x0) is read by two cmuls, an xor and an output
    b = _Builder(3)
    t_z = b._emit(XOR, b._emit(XOR, 0, 1), b._emit(XOR, 1, 0))
    t_m, t_n = b._emit(CMUL, t_z, 5), b._emit(CMUL, t_z, 7)
    prog = b.finish([t_m, t_n, b._emit(XOR, t_z, 2), t_z])
    deduped = _dedup_xors(prog)
    assert len(_self_xors(deduped)) == 1
    assert deduped.xor_count == 2  # x0^x1 and the one zero
    assert deduped.cmul_count == prog.cmul_count == 2
    assert deduped.outputs[2] == 2
    assert equivalent(field, deduped, prog)
    rng = random.Random(4)
    for _ in range(20):
        f = random_vector(rng, 3)
        assert deduped.run(field, f) == prog.run(field, f) == [0, 0, f[2], 0]


def test_cse_on_plan23(field, prog23):
    opt = greedy_cse(prog23)
    assert opt.xor_count < prog23.xor_count
    assert opt.cmul_count == prog23.cmul_count
    assert equivalent(field, opt, prog23)
    # fixed point: a second pass changes nothing
    again = greedy_cse(opt)
    assert again.xor_count == opt.xor_count
    assert again.cmul_count == opt.cmul_count


def test_cse_budget_falls_back_to_dedup(monkeypatch, field, prog23):
    monkeypatch.setattr(slp, "PAIR_BUDGET", 10)
    opt = greedy_cse(prog23)
    assert opt.xor_count <= prog23.xor_count
    assert opt.cmul_count == prog23.cmul_count
    assert equivalent(field, opt, prog23)


def _bilinear_program(field, matrices):
    alg = matrices()
    return compile_bilinear(field, alg, list(range(3, 3 + alg.r.cols)))


CSE_PINS = [  # name, sha256 prefix of greedy_cse(prog).to_text(), its xor count
    ("t5", "cd70614b3119d107", 27),
    ("conv11", "1d2150ca3aeba3a2", 117),
    ("plan1", "279422952316624b", 0),
    ("plan23", "e20122e1914539aa", 337),
    ("plan89", "26fc5a3de3e5fd98", 2376),
]


@pytest.mark.parametrize("name, digest, xors", CSE_PINS,
                         ids=[f"{name}-{digest}" for name, digest, _ in CSE_PINS])
def test_cse_output_is_pinned(field, plan23, plan89, name, digest, xors):
    prog = {
        "t5": lambda: _bilinear_program(field, t5_matrices),
        "conv11": lambda: _bilinear_program(field, conv11_matrices),
        "plan1": lambda: compile_plan(build_plan(field, 1)),
        "plan23": lambda: compile_plan(plan23),
        "plan89": lambda: compile_plan(plan89),
    }[name]()
    opt = greedy_cse(prog)
    assert opt.xor_count == xors
    assert opt.cmul_count == prog.cmul_count
    assert hashlib.sha256(opt.to_text().encode()).hexdigest()[:16] == digest


COMPILE_PINS = [  # n, sha256 prefix of compile_plan(plan).to_text()
    (1, "279422952316624b"),
    (23, "6c0f76aac163d3f9"),
    (89, "b3e77158933febe0"),
    (2047, "adbc4a254413c2ed"),
]


@pytest.mark.parametrize("n, digest", COMPILE_PINS, ids=[f"n{n}" for n, _ in COMPILE_PINS])
def test_compile_output_is_pinned(field, prog23, plan89, prog2047, n, digest):
    prog = {
        1: lambda: compile_plan(build_plan(field, 1)),
        23: lambda: prog23,
        89: lambda: compile_plan(plan89),
        2047: lambda: prog2047,
    }[n]()
    assert hashlib.sha256(prog.to_text().encode()).hexdigest()[:16] == digest


def _fibonacci_dag(levels=40):
    """v_k = v_(k-1) ^ v_(k-2) over inputs x0, x1 for 40 levels (all but
    the last two v read twice or more), and outputs v_k ^ x2 ^ x3 ^ x4
    folded left for every fourth k, plus the last v. Expanded in full, the
    last v is a tree of ~10^8 nodes; value numbering cannot see the shared
    x2 ^ x3."""
    b = _Builder(5)
    v = [0, 1]
    for _ in range(levels):
        v.append(b._emit(XOR, v[-1], v[-2]))
    outputs = [b.xor_fold([v[k], 2, 3, 4]) for k in range(2, len(v), 4)]
    return b.finish(outputs + [v[-1]])


def test_cse_cuts_shared_dag(field):
    prog = _fibonacci_dag()
    start = time.perf_counter()
    opt = greedy_cse(prog)
    assert time.perf_counter() - start < 0.5
    assert opt.xor_count < _dedup_xors(prog).xor_count
    assert opt.cmul_count == prog.cmul_count
    assert equivalent(field, opt, prog)


def _pair_work(prog):
    """What greedy_cse weighs against its budget, computed by recursion:
    the atom pairs of every root's parity set, cut at the roots."""
    n_in = prog.n_inputs
    reads = Counter(prog.op_a)
    reads.update(prog.op_b[i] for i in range(prog.n_instructions) if prog.kinds[i] == XOR)
    cmul_fed = {prog.op_a[i] for i in range(prog.n_instructions) if prog.kinds[i] == CMUL}

    def is_xor(v):
        return v >= n_in and prog.kinds[v - n_in] == XOR

    def is_root(v):
        return is_xor(v) and (reads[v] >= 2 or v in cmul_fed or v in prog.outputs)

    @cache
    def atoms(v):
        if not is_xor(v) or is_root(v):
            return frozenset([v])
        return atoms(prog.op_a[v - n_in]) ^ atoms(prog.op_b[v - n_in])

    sets = [atoms(prog.op_a[v - n_in]) ^ atoms(prog.op_b[v - n_in])
            for v in range(prog.n_inputs + prog.n_instructions) if is_root(v)]
    return sum(len(s) * (len(s) - 1) // 2 for s in sets)


@pytest.mark.parametrize("name", ["conv11", "fibonacci dag"])
def test_cse_budget_edge(monkeypatch, field, name):
    if name == "conv11":
        prog = _bilinear_program(field, conv11_matrices)
    else:
        prog = _fibonacci_dag()
    deduped = _dedup_xors(prog)
    full = greedy_cse(prog)
    assert full.xor_count < deduped.xor_count
    work = _pair_work(prog)
    monkeypatch.setattr(slp, "PAIR_BUDGET", work)
    assert greedy_cse(prog).to_text() == full.to_text()
    monkeypatch.setattr(slp, "PAIR_BUDGET", work - 1)
    assert greedy_cse(prog).to_text() == deduped.to_text()


def _reference_pairs(exprs, first_ext_id):
    """Greedy extraction that recounts every pair at each step."""
    exprs = [set(s) for s in exprs]
    extractions = []
    while True:
        counts = Counter(p for s in exprs for p in combinations(sorted(s), 2))
        top = max(counts.values(), default=0)
        if top < 2:
            return extractions, exprs
        a, b = min(p for p, k in counts.items() if k == top)
        w = first_ext_id + len(extractions)
        for s in exprs:
            if a in s and b in s:
                s -= {a, b}
                s.add(w)
        extractions.append((w, a, b))


# ten extractions from five atoms: the matrices outgrow their first size
PAIRS_TWICE = [set(p) for p in combinations(range(5), 2)] * 2


@settings(max_examples=400, deadline=None)
@given(
    exprs=st.lists(st.sets(st.integers(0, 60), max_size=10), max_size=14)
    | st.lists(st.sets(st.sampled_from((3, 9, 10, 17, 40)), min_size=1), max_size=14)
    | st.lists(st.sets(st.integers(0, 5), min_size=2, max_size=3), max_size=30)
    # many rows over few atoms, like P's and Q's: long runs of extractions
    # in which most rows share atoms with the pair just taken
    | st.lists(st.sets(st.integers(0, 11), min_size=2, max_size=9), max_size=43),
    gap=st.integers(0, 5),
)
@example(exprs=PAIRS_TWICE, gap=0)
def test_greedy_pairs_matches_reference(exprs, gap):
    first_ext_id = 61 + gap
    want, want_exprs = _reference_pairs(exprs, first_ext_id)
    got_exprs = [set(s) for s in exprs]
    assert _greedy_pairs(got_exprs, first_ext_id) == want
    assert got_exprs == want_exprs


def test_cse_keeps_dead_cmul():
    b = _Builder(2)
    t = b._emit(XOR, 0, 1)
    b._emit(CMUL, t, 7)  # never used by an output
    prog = b.finish([t])
    opt = greedy_cse(prog)
    assert opt.cmul_count == prog.cmul_count == 1


def test_compile_bilinear_matches_apply(field):
    rng = random.Random(6)
    alg = conv11_matrices()
    y = random_vector(rng, 11)
    prog = compile_bilinear(field, alg, y)
    assert prog.cmul_count <= 43
    for _ in range(200):
        x = random_vector(rng, 11)
        assert prog.run(field, x) == conv11_apply(field, x, y)


def test_text_roundtrip(field, prog23):
    text = prog23.to_text()
    assert text.splitlines()[0] == "slp 23 23"
    back = Slp.from_text(text)
    assert back.xor_count == prog23.xor_count
    assert back.cmul_count == prog23.cmul_count
    rng = random.Random(7)
    f = random_vector(rng, 23)
    assert back.run(field, f) == prog23.run(field, f)


def test_text_format_lines():
    b = _Builder(2)
    t2 = b._emit(XOR, 0, 1)
    t3 = b._emit(CMUL, t2, 0x1A9)
    prog = b.finish([t3])
    lines = prog.to_text().splitlines()
    assert lines == ["slp 2 1", "t2 = xor t0 t1", "t3 = cmul 0x1a9 t2", "out0 = t3"]


def test_from_text_rejects_garbage():
    with pytest.raises(ValueError):
        Slp.from_text("t0 = xor t1 t2\n")  # no header
    with pytest.raises(ValueError):
        Slp.from_text("slp 2 1\nt2 = nand t0 t1\nout0 = t2\n")
    with pytest.raises(ValueError):
        Slp.from_text("slp 2 1\nt2 = cmul 0x001 t0\nout0 = t2\n")  # trivial const
    with pytest.raises(ValueError):
        Slp.from_text("slp 2 1\nt2 = xor t0 t3\nout0 = t2\n")  # forward ref
    with pytest.raises(ValueError):
        Slp.from_text("slp 2 1\nout3 = t0\n")  # output index past the header's
    with pytest.raises(ValueError):
        Slp.from_text("slp 2 1\nt2 = xor t0\nout0 = t2\n")  # one operand
    with pytest.raises(ValueError, match=r"^malformed instruction 't2 xor t0 t1'$"):
        Slp.from_text("slp 2 1\nt2 xor t0 t1\nout0 = t2\n")  # no =
    with pytest.raises(ValueError):
        Slp.from_text("slp 2 1\nt2 = xor x0 q1\nout0 = t2\n")  # operands not t<digits>
    with pytest.raises(ValueError):
        Slp.from_text("slp 2 1\nt2 = xor t0 t1\nq3 = xor t2 t1\nout0 = t3\n")  # id not t<digits>
    with pytest.raises(ValueError):
        Slp.from_text("slp 2 1\nt2 = xor t0 t1\nout0 = z2\n")  # output not t<digits>
    with pytest.raises(ValueError):
        Slp.from_text("slp 2 1\nt2 = xor t0 t1\noutx = t2\n")  # output index not digits
    with pytest.raises(ValueError):
        Slp.from_text("slp 2 1\nt2 = xor t0 t1\nout0 = t2\nout0 = t1\n")  # bound twice
    # int() would read each of these header counts
    for text in ("slp -2 0\n", "slp 3 -1\n", "slp +3 1\nout0 = t0\n", "slp 3 +1\nout0 = t0\n",
                 "slp 3_0 1\nout0 = t0\n", "slp \u0663 1\nout0 = t0\n"):
        with pytest.raises(ValueError):
            Slp.from_text(text)
    # and int(c, 16) each of these constants
    for const in ("1a9", "+0x1a9", "-0x2", "0x1_a9", "0X1a9", "0x\u0661a9", "\u0661a9"):
        with pytest.raises(ValueError):
            Slp.from_text(f"slp 2 1\nt2 = cmul {const} t0\nout0 = t2\n")
    # the same line with a well-formed constant loads
    assert Slp.from_text("slp 2 1\nt2 = cmul 0x1A9 t0\nout0 = t2\n").op_b[0] == 0x1A9


def test_validate_rejects_bad_programs():
    with pytest.raises(ValueError):
        Slp(2, bytes([XOR]), [0], [5], [2]).validate()
    with pytest.raises(ValueError):
        Slp(2, bytes([CMUL]), [0], [1], [2]).validate()
    with pytest.raises(ValueError):
        Slp(2, bytes([XOR]), [0], [1], [9]).validate()
    with pytest.raises(ValueError):
        Slp(-2, b"", [], [], []).validate()


# ---------------------------------------------------------------------------
# Equivalence and the matrix proof.
# ---------------------------------------------------------------------------


def _with(prog, kinds=None, op_a=None, op_b=None, outputs=None):
    """A copy of prog with some of its instruction arrays replaced."""
    return Slp(
        prog.n_inputs,
        prog.kinds if kinds is None else kinds,
        prog.op_a if op_a is None else op_a,
        prog.op_b if op_b is None else op_b,
        prog.outputs if outputs is None else outputs,
    ).validate()


def _drop(prog, k):
    """prog without xor instruction k; its users read its first operand."""
    gone = prog.n_inputs + k

    def fix(v):
        if v == gone:
            return prog.op_a[k]
        return v - 1 if v > gone else v

    keep = [i for i in range(prog.n_instructions) if i != k]
    return _with(
        prog,
        kinds=bytes(prog.kinds[i] for i in keep),
        op_a=[fix(prog.op_a[i]) for i in keep],
        op_b=[fix(prog.op_b[i]) if prog.kinds[i] == XOR else prog.op_b[i] for i in keep],
        outputs=[fix(o) for o in prog.outputs],
    )


def _mutants(prog):
    xor = prog.kinds.index(XOR)
    other = next(v for v in range(prog.n_inputs)
                 if v not in (prog.op_a[xor], prog.op_b[xor]))
    op_b = list(prog.op_b)
    op_b[xor] = other
    yield "xor operand", _with(prog, op_b=op_b)

    cmul = prog.kinds.index(CMUL)
    op_b = list(prog.op_b)
    op_b[cmul] = op_b[cmul] + 1 if op_b[cmul] < 2047 else 2
    yield "cmul constant", _with(prog, op_b=op_b)

    outputs = list(prog.outputs)
    outputs[0], outputs[1] = outputs[1], outputs[0]
    yield "swapped outputs", _with(prog, outputs=outputs)

    yield "dropped instruction", _drop(prog, xor)


def test_equivalent_rejects_mutants(field, prog23):
    assert equivalent(field, prog23, prog23)
    rng = random.Random(9)
    f = random_vector(rng, 23)
    for name, mutant in _mutants(prog23):
        assert mutant.run(field, f) != prog23.run(field, f), name  # a real fault
        assert not equivalent(field, mutant, prog23), name
        assert not equivalent(field, prog23, mutant), name


@pytest.mark.parametrize("n", [1, 23, 89])
def test_compile_plan_equals_dft_matrix(field, n):
    prog = compile_plan(build_plan(field, n))
    assert np.array_equal(prog.matrix(field), oracle.dft_matrix(field, n))


def test_dft_matrix_rejects_mutants(field, plan89):
    prog = compile_plan(plan89)
    dft = oracle.dft_matrix(field, 89)
    for name, mutant in _mutants(prog):
        assert not np.array_equal(mutant.matrix(field), dft), name


def test_equivalent_accepts_reassociated_xor_chain(field):
    left = _Builder(4)
    t = left.xor_fold([0, 1, 2, 3])  # ((x0 ^ x1) ^ x2) ^ x3
    right = _Builder(4)
    u = right._emit(XOR, 2, 3)
    u = right._emit(XOR, 1, u)
    u = right._emit(XOR, 0, u)  # x0 ^ (x1 ^ (x2 ^ x3))
    a = left.finish([t, left.cmul(5, t)])
    b = right.finish([u, right.cmul(5, u)])
    assert equivalent(field, a, b)
    assert not equivalent(field, a, right.finish([u, u]))


def test_equivalent_is_complete(field):
    # 5 * (x0 ^ x1) and 5*x0 ^ 5*x1 are the same map written two ways
    a = _Builder(2)
    a_out = a.cmul(5, a._emit(XOR, 0, 1))
    b = _Builder(2)
    b_out = b._emit(XOR, b.cmul(5, 0), b.cmul(5, 1))
    pa, pb = a.finish([a_out]), b.finish([b_out])
    assert equivalent(field, pa, pb)
    assert pa.matrix(field).tolist() == [[5, 5]]
    five, six = _Builder(1), _Builder(1)
    assert not equivalent(field, five.finish([five.cmul(5, 0)]), six.finish([six.cmul(6, 0)]))


def test_equivalent_needs_matching_shapes(field, prog23):
    assert not equivalent(field, prog23, _with(prog23, outputs=prog23.outputs[:-1]))
    assert not equivalent(field, _Builder(2).finish([0]), _Builder(3).finish([0]))


N_IN = 3
CONSTANTS = st.sampled_from((2, 3, 0x1A9))


@st.composite
def small_programs(draw):
    kinds, op_a, op_b = [], [], []
    for i in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from((XOR, XOR, CMUL)))
        kinds.append(kind)
        op_a.append(draw(st.integers(0, N_IN + i - 1)))
        op_b.append(draw(st.integers(0, N_IN + i - 1) if kind == XOR else CONSTANTS))
    ids = st.integers(0, N_IN + len(kinds) - 1)
    outputs = draw(st.lists(ids, min_size=2, max_size=2))
    return Slp(N_IN, kinds, op_a, op_b, outputs).validate()


@settings(max_examples=300, deadline=None)
@given(
    a=small_programs(),
    b=small_programs(),
    how=st.sampled_from(("independent", "cse", "edit")),
    data=st.data(),
    vectors=st.lists(st.lists(st.integers(0, 2047), min_size=N_IN, max_size=N_IN),
                     min_size=1, max_size=4),
)
def test_equivalent_is_sound(field, a, b, how, data, vectors):
    if how == "cse":
        b = greedy_cse(a)
        assert equivalent(field, a, b)
        assert b.cmul_count == a.cmul_count
        assert b.xor_count <= _dedup_xors(a).xor_count
    elif how == "edit" and a.n_instructions:
        # one operand or constant of a changed: usually a different map
        i = data.draw(st.integers(0, a.n_instructions - 1))
        op_b = list(a.op_b)
        op_b[i] = data.draw(st.integers(0, N_IN + i - 1) if a.kinds[i] == XOR
                            else CONSTANTS)
        b = _with(a, op_b=op_b)
    if equivalent(field, a, b):
        for f in vectors:
            assert a.run(field, f) == b.run(field, f)
    # a linear map is fixed by its unit vectors: column j of the matrix is
    # the program run on unit vector j, and the programs are equal exactly
    # when they agree on every unit vector
    units = [[int(i == j) for j in range(N_IN)] for i in range(N_IN)]
    for prog in (a, b):
        assert prog.matrix(field).T.tolist() == [prog.run(field, u) for u in units]
    agree = all(a.run(field, u) == b.run(field, u) for u in units)
    assert equivalent(field, a, b) == agree
