"""Straight-line programs of xor and constant-multiply operations.

A program is a branch-free instruction list over GF(2^11). Value ids number
the inputs 0..n_inputs-1 and then one id per instruction; operands always
reference earlier ids. Constants 0 and 1 never appear in cmul instructions:
the compiler folds them away, so the cmul count is literally the
multiplicative complexity of the compiled map.

Text format (one instruction per line, after a `slp <inputs> <outputs>`
header that makes the file self-describing):

    t12 = xor t3 t7
    t13 = cmul 0x1a9 t12
    out0 = t13

`run` interprets a program on one input vector. Every instruction is
GF(2^11)-linear, so a program is fixed by its matrix, which `matrix` finds
in one run. `equivalent` compares two programs' matrices, and a compiled
plan is proved by comparing its matrix with `oracle.dft_matrix`.

`greedy_cse` cuts a program at its xor roots, the xor values that a cmul
reads, that are bound to an output or that two or more instructions read,
and shares atom pairs among the roots' parity sets. On a compiled plan the
sets are the rows of the P, Q and A stage matrices.
"""

from __future__ import annotations

import re
from array import array
from itertools import chain

import numpy as np

from . import bilinear, cfft

XOR = 0
CMUL = 1

# greedy_cse's bound on sum C(|set|, 2) over the parity sets it would pair
PAIR_BUDGET = 5_000_000
# and on the bytes of the pair pass's first incidence and pair-count matrices
PAIR_BYTES = 1 << 26


class Slp:
    """Immutable straight-line program.

    kinds[i] is XOR or CMUL; for xor, (op_a[i], op_b[i]) are operand ids;
    for cmul, op_a[i] is the operand id and op_b[i] the constant.
    """

    __slots__ = ("n_inputs", "kinds", "op_a", "op_b", "outputs")

    def __init__(self, n_inputs, kinds, op_a, op_b, outputs):
        self.n_inputs = n_inputs
        self.kinds = bytes(kinds)
        self.op_a = array("l", op_a)
        self.op_b = array("l", op_b)
        self.outputs = tuple(outputs)

    @property
    def n_instructions(self) -> int:
        return len(self.kinds)

    @property
    def n_outputs(self) -> int:
        return len(self.outputs)

    @property
    def xor_count(self) -> int:
        return self.kinds.count(XOR)

    @property
    def cmul_count(self) -> int:
        return self.kinds.count(CMUL)

    def validate(self):
        """Check topological order, operand ranges and cmul constants."""
        n = self.n_inputs
        if n < 0:
            raise ValueError(f"negative input count {n}")
        for i, k in enumerate(self.kinds):
            limit = n + i
            if not 0 <= self.op_a[i] < limit:
                raise ValueError(f"instruction {i} references a later id")
            if k == XOR:
                if not 0 <= self.op_b[i] < limit:
                    raise ValueError(f"instruction {i} references a later id")
            elif k == CMUL:
                if not 2 <= self.op_b[i] <= 2047:
                    raise ValueError(f"instruction {i} has a trivial constant")
            else:
                raise ValueError(f"instruction {i} has unknown kind {k}")
        total = n + len(self.kinds)
        for o in self.outputs:
            if not 0 <= o < total:
                raise ValueError("output references an unknown id")
        return self

    def run(self, field, inputs):
        """Evaluate one input vector."""
        if len(inputs) != self.n_inputs:
            raise ValueError(f"expected {self.n_inputs} inputs, got {len(inputs)}")
        return self._walk(inputs, field.mul)

    def matrix(self, field):
        """The (n_outputs, n_inputs) uint16 matrix of the program's map.

        Each value is held as its row of coefficients, 16 bits per input in
        one int, so an xor is one int xor and a cmul one `field.mul_vec`."""
        width = 2 * self.n_inputs  # bytes per row

        def mul(c, v):
            row = np.frombuffer(v.to_bytes(width, "little"), "<u2")
            return int.from_bytes(field.mul_vec(c, row).astype("<u2").tobytes(), "little")

        rows = self._walk([1 << 16 * j for j in range(self.n_inputs)], mul)
        rows = b"".join(v.to_bytes(width, "little") for v in rows)
        return np.frombuffer(rows, "<u2").reshape(self.n_outputs, self.n_inputs)

    def _walk(self, values, mul):
        """The outputs of the program run on values, one per input, with
        mul(c, v) as cmul. Each value is dropped after its last read: bit 0
        of drops[i] is set where instruction i reads its first operand for
        the last time, bit 1 its second (xors only); outputs are kept."""
        n = self.n_instructions
        at = np.arange(n, dtype=np.int32)
        xors = np.flatnonzero(np.frombuffer(self.kinds, np.uint8) == XOR)
        first = np.frombuffer(self.op_a, np.dtype("l"))
        second = np.frombuffer(self.op_b, np.dtype("l"))[xors]
        last = np.full(self.n_inputs + n, -1, np.int32)
        np.maximum.at(last, first, at)
        np.maximum.at(last, second, xors)
        last[list(self.outputs)] = n
        drops = (last[first] == at).view(np.uint8)
        drops[xors] |= (last[second] == xors).view(np.uint8) << 1

        values = list(values)
        put = values.append
        for kind, a, b, drop in zip(self.kinds, self.op_a, self.op_b, drops.tobytes()):
            put(values[a] ^ values[b] if kind == XOR else mul(b, values[a]))
            if drop & 1:
                values[a] = None
            if drop & 2:
                values[b] = None
        return [values[o] for o in self.outputs]

    def to_text(self) -> str:
        lines = [f"slp {self.n_inputs} {len(self.outputs)}"]
        base = self.n_inputs
        for i in range(len(self.kinds)):
            if self.kinds[i] == XOR:
                lines.append(f"t{base + i} = xor t{self.op_a[i]} t{self.op_b[i]}")
            else:
                lines.append(f"t{base + i} = cmul 0x{self.op_b[i]:03x} t{self.op_a[i]}")
        for k, o in enumerate(self.outputs):
            lines.append(f"out{k} = t{o}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Slp":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        header = lines[0].split() if lines else []
        if len(header) != 3 or header[0] != "slp":
            raise ValueError("missing slp header line")
        n_in, n_out = (_parse_id("", count) for count in header[1:])
        if n_out > len(lines) - 1:
            raise ValueError(f"{n_out} outputs declared, {len(lines) - 1} lines follow")
        kinds, op_a, op_b = bytearray(), array("l"), array("l")
        outputs = [None] * n_out
        next_id = n_in
        for ln in lines[1:]:
            lhs, eq, rhs = (part.strip() for part in ln.partition("="))
            if not eq:
                raise ValueError(f"malformed instruction {ln!r}")
            fields = rhs.split()
            if lhs.startswith("out"):
                k = _parse_id("out", lhs)
                if not 0 <= k < n_out or len(fields) != 1 or outputs[k] is not None:
                    raise ValueError(f"bad output binding {ln!r}")
                outputs[k] = _parse_id("t", fields[0])
                continue
            if len(fields) != 3:
                raise ValueError(f"malformed instruction {ln!r}")
            if _parse_id("t", lhs) != next_id:
                raise ValueError(f"non-sequential instruction id {lhs}")
            if fields[0] == "xor":
                kind, a, b = XOR, _parse_id("t", fields[1]), _parse_id("t", fields[2])
            elif fields[0] == "cmul" and re.fullmatch("0x[0-9a-fA-F]+", fields[1]):
                kind, a, b = CMUL, _parse_id("t", fields[2]), int(fields[1], 16)
            else:  # also a constant that is not 0x and hex digits
                raise ValueError(f"malformed instruction {ln!r}")
            kinds.append(kind)
            try:
                op_a.append(a)
                op_b.append(b)
            except OverflowError:  # an id or constant past what array("l") holds
                raise ValueError(f"malformed instruction {ln!r}") from None
            next_id += 1
        if any(o is None for o in outputs):
            raise ValueError("missing output binding")
        return cls(n_in, kinds, op_a, op_b, outputs).validate()

    def __repr__(self) -> str:
        return (
            f"Slp(inputs={self.n_inputs}, outputs={len(self.outputs)}, "
            f"xor={self.xor_count}, cmul={self.cmul_count})"
        )


def equivalent(field, a: Slp, b: Slp) -> bool:
    """Whether the two programs compute the same map, which holds exactly
    when their matrices are equal, as every instruction is linear."""
    return np.array_equal(a.matrix(field), b.matrix(field))


def _parse_id(prefix: str, token: str) -> int:
    """The number in a `t<digits>` or `out<digits>` token, or a header
    count with no prefix; the digits are ASCII."""
    digits = token[len(prefix):]
    if not token.startswith(prefix) or not digits.isascii() or not digits.isdigit():
        raise ValueError(f"expected {prefix}<digits>, got {token!r}")
    return int(digits)


class _Builder:
    """Accumulates instructions; folds trivial constants at emit time."""

    def __init__(self, n_inputs: int):
        self.n_inputs = n_inputs
        self.kinds = bytearray()
        self.op_a = array("l")
        self.op_b = array("l")

    def _emit(self, kind, a, b) -> int:
        new_id = self.n_inputs + len(self.kinds)
        self.kinds.append(kind)
        self.op_a.append(a)
        self.op_b.append(b)
        return new_id

    def xor_fold(self, ids):
        """Left-fold xor over ids; None terms vanish; empty sum is None."""
        acc = None
        for i in ids:
            if i is None:
                continue
            acc = i if acc is None else self._emit(XOR, acc, i)
        return acc

    def apply(self, matrix, ids):
        """matrix times the values ids: row i xor-folds the ids its
        columns select, in column order."""
        return [self.xor_fold(ids[j] for j in row.nonzero()[0].tolist())
                for row in matrix.bits()]

    def cmul(self, const, src):
        if src is None or const == 0:
            return None
        if const == 1:
            return src
        return self._emit(CMUL, src, const)

    def finish(self, outputs) -> Slp:
        if any(o is None for o in outputs):
            raise ValueError("an output reduced to the empty sum")
        return Slp(self.n_inputs, self.kinds, self.op_a, self.op_b, outputs)


def _emit_bilinear(b: _Builder, alg: bilinear.BilinearAlgorithm, consts, ids):
    """Q . (consts o P ids) with fixed constants: P's rows, then one cmul
    per product, then Q's rows."""
    prods = [b.cmul(c, w) for c, w in zip(consts, b.apply(alg.p, ids))]
    return b.apply(alg.q, prods)


def compile_plan(plan: cfft.CfftPlan) -> Slp:
    """Compile a transform plan into a program.

    The xor count equals the plan's addition count and the cmul count its
    multiplication count (constants 0 and 1 are folded, matching how the
    plan counts them).
    """
    alg = bilinear.conv11_matrices()
    t, k = alg.t, alg.p.cols  # products and inputs per size-11 coset
    b = _Builder(plan.n)
    perm, consts = plan.permutation, plan.constants
    lam = [perm[0]]
    for bi in range(len(plan.big_cosets)):
        lam += _emit_bilinear(b, alg, consts[1 + t * bi : 1 + t * (bi + 1)],
                              perm[1 + k * bi : 1 + k * (bi + 1)])
    return b.finish(b.apply(plan.a_matrix, lam))


def compile_bilinear(field, alg: bilinear.BilinearAlgorithm, y) -> Slp:
    """Fix the coefficient side of a bilinear algorithm and compile the
    resulting linear map of the data side."""
    b = _Builder(alg.p.cols)
    return b.finish(_emit_bilinear(b, alg, alg.r.apply_field(list(y)), range(alg.p.cols)))


# ---------------------------------------------------------------------------
# Common subexpression elimination.
# ---------------------------------------------------------------------------


def _dedup_xors(slp: Slp) -> Slp:
    """Value numbering over xor instructions only.

    x ^ x is zero, and an xor with zero is its other operand. A zero is
    emitted, as one `xor x x`, only where a cmul reads it or an output is
    bound to it. Cmul instructions are remapped but never merged, so the
    cmul count is untouched. A single in-order pass reaches the fixpoint
    because operand remapping only ever points at earlier results.
    """
    n_in, kinds, op_a, op_b = slp.n_inputs, slp.kinds, slp.op_a, slp.op_b
    remap = list(range(n_in))  # -1 is zero, which sorts below every id
    seen: dict = {}
    b = _Builder(n_in)
    emit = b._emit
    zero_of = None  # the first x seen in an x ^ x
    zero = None  # the id of the emitted zero_of ^ zero_of

    def read(v):  # v as a cmul operand or an output binding
        nonlocal zero
        if v >= 0:
            return v
        if zero is None:
            zero = emit(XOR, zero_of, zero_of)
        return zero

    for i in range(len(kinds)):
        x = remap[op_a[i]]
        if kinds[i] == XOR:
            y = remap[op_b[i]]
            if x > y:
                x, y = y, x
            elif x == y:
                if zero_of is None:
                    zero_of = x
                remap.append(-1)
                continue
            if x < 0:
                remap.append(y)
                continue
            key = (x << 32) | y
            hit = seen.get(key)
            if hit is None:
                hit = seen[key] = emit(XOR, x, y)
            remap.append(hit)
        else:
            remap.append(emit(CMUL, read(x), op_b[i]))
    return b.finish([read(remap[o]) for o in slp.outputs])


def _stage_sets(slp: Slp):
    """The program's xor roots and their parity sets, or None over
    PAIR_BUDGET.

    A root is an xor value that a cmul reads, that is bound to an output,
    or that two or more instructions read. Each root is flattened only
    through the single-use xors below it, so every instruction is visited
    once and a set's atoms are inputs, cmul results and other roots: on a
    compiled plan, the rows of P, Q and A. Roots are taken in id order and
    their pairs, C(|set|, 2) each, counted until the sum passes the budget.
    """
    n_in, kinds, op_a, op_b = slp.n_inputs, slp.kinds, slp.op_a, slp.op_b
    total = n_in + len(kinds)
    xors = np.frombuffer(kinds, np.uint8) == XOR
    a, b = np.frombuffer(op_a, np.dtype("l")), np.frombuffer(op_b, np.dtype("l"))
    reads = np.bincount(a, minlength=total) + np.bincount(b[xors], minlength=total)
    kept = reads >= 2  # the values flattening stops at, if they are xors
    kept[a[~xors]] = True
    kept[list(slp.outputs)] = True
    is_xor = np.concatenate((np.zeros(n_in, bool), xors))
    roots = np.flatnonzero(is_xor & kept).tolist()
    flat = (is_xor & ~kept).tolist()

    exprs, pairs = [], 0
    for root in roots:
        atoms: set = set()
        stack = [op_a[root - n_in], op_b[root - n_in]]
        while stack:
            v = stack.pop()
            if flat[v]:
                stack.append(op_a[v - n_in])
                stack.append(op_b[v - n_in])
            elif v in atoms:  # parity: an atom seen twice cancels
                atoms.discard(v)
            else:
                atoms.add(v)
        exprs.append(atoms)
        pairs += len(atoms) * (len(atoms) - 1) // 2
        if pairs > PAIR_BUDGET:
            return None
    return roots, exprs


def _greedy_pairs(exprs, first_ext_id):
    """Repeatedly extract the most frequent atom pair across all expressions.

    Ties break toward the lexicographically smallest pair. Mutates exprs in
    place; returns the extraction list [(new_id, a, b), ...], or None,
    touching nothing, when its first matrices would pass PAIR_BYTES.

    The state is an incidence matrix M (expression x atom, atoms in id
    order, one new column per extraction) and the pair counts of M^T M above
    the diagonal, u[r, j] for j > r. Row r caches its best pair, the first
    maximum of u[r], so the pick is the first maximum over rows. Extracting
    (a, b) as w changes row r only where d[r], the number of expressions
    holding a, b and r, is nonzero, and rows a and b; those rows are
    rescanned, and every other cache stays exact.
    """
    atom_ids = sorted(set().union(*exprs))
    if not atom_ids:
        return []
    n_atoms, cap = len(atom_ids), 2 * len(atom_ids) + 2
    if len(exprs) * cap + 4 * cap * cap > PAIR_BYTES:  # m's bools and u's int32s
        return None
    m = np.zeros((len(exprs), cap), bool)
    lens = [len(s) for s in exprs]
    members = np.fromiter(chain.from_iterable(exprs), np.int64, sum(lens))
    m[np.repeat(np.arange(len(exprs)), lens), np.searchsorted(atom_ids, members)] = True
    mf = m[:, :n_atoms].astype(np.float64)
    u = np.zeros((cap, cap), np.int32)
    u[:n_atoms, :n_atoms] = np.triu(mf.T @ mf, 1)
    best = np.zeros(cap, np.int32)
    partner = np.zeros(cap, np.intp)
    ncol = n_atoms

    def rescan(rows):
        partner[rows] = j = u[rows, :ncol].argmax(1)
        best[rows] = u[rows, j]

    rescan(np.arange(n_atoms))
    extractions = []
    while True:
        a = int(best[:ncol].argmax())
        if best[a] < 2:
            break
        b = int(partner[a])
        if ncol == cap:
            cap *= 2
            m = np.pad(m, ((0, 0), (0, cap - ncol)))
            u = np.pad(u, (0, cap - ncol))
            best = np.pad(best, (0, cap - ncol))
            partner = np.pad(partner, (0, cap - ncol))
        w = ncol
        ncol += 1
        extractions.append((w, a, b))
        hit = np.flatnonzero(m[:, a] & m[:, b])
        d = m[hit, :ncol].sum(0, dtype=np.int32)
        d[a] = d[b] = 0
        for v in (a, b):
            u[:v, v] -= d[:v]
            u[v, v + 1 : ncol] -= d[v + 1 : ncol]
        u[a, b] = 0
        u[:ncol, w] = d
        m[hit, a] = m[hit, b] = False
        m[hit, w] = True
        rescan(np.append(np.flatnonzero(d), (a, b)))  # row w has no j > w

    ids = np.concatenate((atom_ids, first_ext_id + np.arange(ncol - n_atoms)))
    for s, row in zip(exprs, m[:, :ncol]):
        s.clear()
        s.update(ids[row].tolist())
    ids = ids.tolist()
    return [(ids[w], ids[a], ids[b]) for w, a, b in extractions]


def _emit_optimized(slp: Slp, roots, exprs, extractions) -> Slp:
    """Rebuild a program from rewritten root sets and extractions.

    Instructions are re-emitted in order, cmuls as they are and each root
    as the xor of its set; non-root xors are gone. An extraction follows
    the last atom it depends on.
    """
    n_in, kinds, op_a, op_b = slp.n_inputs, slp.kinds, slp.op_a, slp.op_b
    total = n_in + len(kinds)
    level = list(range(total))
    due: dict = {}
    for w, a, b in extractions:
        level.append(max(level[a], level[b]))
        due.setdefault(level[w], []).append((w, a, b))
    set_of = dict(zip(roots, exprs))
    builder = _Builder(n_in)
    new = list(range(n_in)) + [None] * (len(kinds) + len(extractions))
    for v in range(total):
        i = v - n_in
        if i >= 0 and kinds[i] == CMUL:
            # emitted directly, never folded, so the cmul count is invariant
            new[v] = builder._emit(CMUL, new[op_a[i]], op_b[i])
        elif v in set_of:
            new[v] = builder.xor_fold(new[t] for t in sorted(set_of[v]))
        elif i >= 0:
            continue  # an xor flattened into a root
        for w, a, b in due.get(v, ()):
            new[w] = builder._emit(XOR, new[a], new[b])
    return builder.finish([new[o] for o in slp.outputs])


def greedy_cse(slp: Slp) -> Slp:
    """Reduce the xor count while preserving semantics and the cmul count.

    The program is cut at its xor roots: the values a cmul reads, that are
    bound to an output or that two or more instructions read. Each root
    becomes a parity set over inputs, cmul results and other roots, found
    through the single-use xors below it; on a compiled plan those are the
    rows of the P, Q and A stages, not their products. Greedy extraction
    of the most frequent atom pair then runs on the sets to its fixpoint
    (Paar's method), and the program is re-emitted from them. PAIR_BUDGET
    bounds the pair enumeration, sum C(|set|, 2); past it (n = 2047), or
    when a root cancels to zero, value numbering over the xor stream is
    the result, as it is when the pass's matrices would pass PAIR_BYTES.
    That program is also the floor: a greedy result with no fewer xors is
    dropped. On the lengths where it runs, the greedy pass is
    deterministic.
    """
    cut = _stage_sets(slp)
    deduped = _dedup_xors(slp)
    if cut is None or not all(cut[1]):
        return deduped
    roots, exprs = cut
    extractions = _greedy_pairs(exprs, slp.n_inputs + slp.n_instructions)
    if extractions is None:
        return deduped
    optimized = _emit_optimized(slp, roots, exprs, extractions)
    if optimized.xor_count < deduped.xor_count:
        return optimized
    return deduped
