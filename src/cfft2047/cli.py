"""Command-line front end.

Exit codes: 0 on success, 1 on a verification failure, 2 on usage or I/O
errors. All commands are deterministic given --seed and their inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import re
import statistics
import sys
import time

import numpy as np

from . import bilinear, cfft, oracle, slp
from .gf import Field

# Matrices that `dump` prints, by name; each factory returns a BitMatrix.
MATRICES = {
    "T": bilinear.forward_matrix,
    "S": bilinear.output_matrix,
    **{f"PI{k}": lambda k=k: bilinear.coefficient_maps()[k] for k in range(3)},
    **{f"PI{k + 3}": lambda k=k: bilinear.input_maps()[k] for k in range(3)},
    "PT5": lambda: bilinear.t5_matrices().p,
    "RT5": lambda: bilinear.t5_matrices().r,
    "QT5": lambda: bilinear.t5_matrices().q,
    "P11": lambda: bilinear.conv11_matrices().p,
    "R11": lambda: bilinear.conv11_matrices().r,
    "Q11": lambda: bilinear.conv11_matrices().q,
}


def _read_hex_vector(path: str, n: int):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    for i, ln in enumerate(lines):
        # int(ln, 16) alone would also take a sign, _, no 0x and non-ASCII digits
        if not re.fullmatch("0x[0-9a-fA-F]{1,3}", ln):
            raise ValueError(f"{path}: element {i} is not 0x and 1-3 hex digits: {ln!r}")
    vals = [int(ln, 16) for ln in lines]
    if len(vals) != n:
        raise ValueError(f"{path}: expected {n} elements, found {len(vals)}")
    if any(v > 0x7FF for v in vals):
        raise ValueError(f"{path}: element out of range 0x000..0x7ff")
    return vals


def _write_hex_vector(path: str, vals):
    with open(path, "w") as fh:
        for v in vals:
            fh.write(f"0x{v:03x}\n")


def _load_or_build_plan(args) -> cfft.CfftPlan:
    if not args.plan:
        return cfft.build_plan(Field(), args.n)
    with open(args.plan) as fh:
        plan = cfft.plan_from_json(fh.read())
    if plan.n != args.n:
        raise ValueError(f"--n {args.n} does not match the plan's length {plan.n}")
    return plan


def cmd_cosets(args) -> int:
    table = cfft.cosets(args.n)
    census = table.census()
    if args.format == "json":
        print(json.dumps({
            "n": table.n,
            "census": {str(k): v for k, v in sorted(census.items())},
            "cosets": [list(c) for c in table.cosets],
        }))
        return 0
    summary = ", ".join(f"{v}xsize-{k}" for k, v in sorted(census.items()))
    print(f"{len(table.cosets)} cosets: {summary}")
    for c in table.cosets:
        print(f"  [{c[0]:4d}] size {len(c):2d}: {' '.join(str(m) for m in c)}")
    return 0


def cmd_plan(args) -> int:
    plan = _load_or_build_plan(args)
    text = cfft.plan_to_json(plan)
    with open(args.out, "w") as fh:
        fh.write(text)
    print(
        f"wrote plan n={plan.n} to {args.out}: "
        f"{len(plan.constants)} constants, mult_count={plan.mult_count}, "
        f"add_count={plan.add_count}"
    )
    return 0


def cmd_eval(args) -> int:
    plan = _load_or_build_plan(args)
    vec = _read_hex_vector(args.infile, plan.n)
    out = cfft.evaluate(plan, vec)
    _write_hex_vector(args.out, out)
    print(f"evaluated n={plan.n}: {args.infile} -> {args.out}")
    return 0


def _random(rng, size, low=0, high=2047):
    return [rng.randint(low, high) for _ in range(size)]


# Each verify suite yields (label, got, want) cases, got and want lists. It
# draws its random inputs from the shared rng only as a case is reached.


def _conv11_cases(field, rng, trials):
    def case(label, x, y):
        return label, bilinear.conv11_apply(field, x, y), oracle.naive_cyclic_conv(field, x, y)

    for i in range(11):
        yield case(f"unit {i}", [int(j == i) for j in range(11)], _random(rng, 11))
    for k in range(trials):
        yield case(f"trial {k}", _random(rng, 11), _random(rng, 11))


def _toeplitz_cases(field, rng, trials):
    def case(label, r, u):
        apply = bilinear.t5_apply if len(u) == 5 else bilinear.t10_apply
        return label, apply(field, r, u), oracle.naive_toeplitz(field, r, u)

    u5 = _random(rng, 5)
    yield "length-5 identity", bilinear.t5_apply(field, [0] * 4 + [1] + [0] * 4, u5), u5
    u10 = _random(rng, 10)
    yield "length-10 identity", bilinear.t10_apply(field, [0] * 9 + [1] + [0] * 9, u10), u10
    for k in range(trials):
        yield case(f"length-5 trial {k}", _random(rng, 9), _random(rng, 5))
        yield case(f"length-10 trial {k}", _random(rng, 19), _random(rng, 10))


def _integer_cases(rng, trials):
    def reduction(yp):
        return f"reduction identity for {yp}", [bilinear.verify_toeplitz_reduction(yp)], [True]

    yield reduction([0] * 10)
    for k in range(trials):
        yield reduction(_random(rng, 10, -100, 100))
        x, y = _random(rng, 11, -100, 100), _random(rng, 11, -100, 100)
        got, want = bilinear.conv11_int(x, y), oracle.naive_cyclic_conv_int(x, y)
        yield f"integer convolution trial {k}", got, want


def _plan_cases(plan, rng, trials):
    def case(label, f):
        return label, cfft.evaluate(plan, f), oracle.naive_dft(plan.field, f)

    n = plan.n
    for i in range(n if n <= 89 else 20):
        yield case(f"unit {i}", [int(j == i) for j in range(n)])
    for k in range(trials if n <= 89 else min(trials, 20)):
        yield case(f"trial {k}", _random(rng, n))


def cmd_verify(args) -> int:
    # every suite runs over the plan's field, which a plan file may set
    plan = _load_or_build_plan(args)
    field = plan.field
    rng = random.Random(args.seed)
    suites = (
        ("conv11 vs naive convolution", _conv11_cases(field, rng, args.trials)),
        ("Toeplitz products vs naive", _toeplitz_cases(field, rng, args.trials)),
        ("integer transform identities", _integer_cases(rng, args.trials)),
        (f"transform plan n={plan.n} vs naive DFT", _plan_cases(plan, rng, args.trials)),
    )
    failures = 0
    for name, cases in suites:
        for label, got, want in cases:
            if got != want:
                at = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w),
                          min(len(got), len(want)))
                print(f"FAIL {name}: {label}, first mismatch at output {at}")
                failures += 1
                break
        else:
            print(f"PASS {name}")
    return 1 if failures else 0


def cmd_complexity(args) -> int:
    plan = _load_or_build_plan(args)
    program = slp.compile_plan(plan)
    optimized = slp.greedy_cse(program)
    rows = {
        "n": plan.n,
        "mult": plan.mult_count,
        "add_direct_stages": plan.add_count,
        "add_after_cse": optimized.xor_count,
    }
    if args.format == "json":
        print(json.dumps(rows))
        return 0
    print(f"n = {rows['n']}")
    print(f"mult = {rows['mult']}")
    print(f"add(direct, per-stage) = {rows['add_direct_stages']}")
    print(f"add(cse) = {rows['add_after_cse']}")
    return 0


def cmd_bench(args) -> int:
    rng = random.Random(args.seed)
    marks = [time.perf_counter()]
    plan = _load_or_build_plan(args)
    marks.append(time.perf_counter())
    text = cfft.plan_to_json(plan)
    marks.append(time.perf_counter())
    loaded = cfft.plan_from_json(text)
    marks.append(time.perf_counter())
    build_s, save_s, load_s = (b - a for a, b in zip(marks, marks[1:]))
    if loaded != plan:
        print("FAIL bench plan does not survive a JSON round trip")
        return 1
    vecs = [[rng.randrange(2048) for _ in range(args.n)] for _ in range(args.trials)]
    naive_times = []
    stage_times = {name: [] for name, _ in cfft.EVALUATE_STAGES}
    for v in vecs:
        # the stages evaluate runs, one clock reading around each
        got = v
        for name, stage in cfft.EVALUATE_STAGES:
            t0 = time.perf_counter()
            got = stage(plan, got)
            stage_times[name].append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        want = oracle.naive_dft(plan.field, v)
        naive_times.append(time.perf_counter() - t0)
        if got != want:
            print("FAIL bench outputs disagree with the oracle")
            return 1
    # a vector's evaluation time is the sum of its stage times
    pm = statistics.median(map(sum, zip(*stage_times.values())))
    nm = statistics.median(naive_times)
    print(f"n = {args.n}, trials = {args.trials}")
    print(f"build_plan:             {build_s * 1e3:.3f} ms")
    print(f"plan_to_json:           {save_s * 1e3:.3f} ms")
    print(f"plan_from_json:         {load_s * 1e3:.3f} ms")
    for name, times in stage_times.items():
        print(f"{'stage ' + name + ' median:':<24}{statistics.median(times) * 1e3:.3f} ms")
    print(f"plan evaluation median: {pm * 1e3:.3f} ms")
    print(f"naive DFT median:       {nm * 1e3:.3f} ms")
    print(f"speedup: {nm / pm:.2f}x")
    return 0


def cmd_dump(args) -> int:
    print(MATRICES[args.name]().to_text())
    return 0


def cmd_cse(args) -> int:
    plan = _load_or_build_plan(args)
    field = plan.field
    program = slp.compile_plan(plan)
    optimized = slp.greedy_cse(program)
    print(
        f"n={args.n}: xor {program.xor_count} -> {optimized.xor_count}, "
        f"cmul {program.cmul_count} -> {optimized.cmul_count}"
    )
    if not np.array_equal(optimized.matrix(field), oracle.dft_matrix(field, args.n)):
        print(f"FAIL optimized program does not equal the {args.n}-point DFT matrix")
        return 1
    print(f"PASS optimized program equals the {args.n}-point DFT matrix")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(optimized.to_text())
        print(f"wrote optimized program to {args.out}")
    return 0


def cmd_emit(args) -> int:
    plan = _load_or_build_plan(args)
    program = slp.compile_plan(plan)
    with open(args.out, "w") as fh:
        fh.write(program.to_text())
    print(
        f"wrote program n={args.n} to {args.out}: "
        f"xor={program.xor_count}, cmul={program.cmul_count}"
    )
    return 0


def _at_least(least: int):
    """argparse type: an integer no smaller than least."""

    def count(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return count


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; `main` dispatches on
    args.command at call time, so the parser holds no command functions."""
    ap = argparse.ArgumentParser(
        prog="cfft2047",
        description="Build, run, verify and account DFT plans over GF(2^11).",
    )
    # commands without --plan build their plan; see _load_or_build_plan
    ap.set_defaults(plan=None)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_n(p):
        p.add_argument("--n", type=int, required=True,
                       help="transform length (must divide 2047)")

    p = sub.add_parser("cosets", help="print the cyclotomic coset table")
    add_n(p)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("plan", help="build a plan and write it as JSON")
    add_n(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="apply a plan to a hex vector file")
    add_n(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--plan", help="load this plan file instead of rebuilding")

    p = sub.add_parser("verify", help="run the oracle suites")
    add_n(p)
    p.add_argument("--trials", type=_at_least(0), default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--plan", help="verify this plan file instead of a fresh build")

    p = sub.add_parser("complexity", help="print operation counts")
    add_n(p)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("bench", help="time plan evaluation, stage by stage, "
                                     "against the naive DFT")
    add_n(p)
    p.add_argument("--trials", type=_at_least(1), default=5)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("dump", help="print a named matrix as 0/1 rows")
    p.add_argument("name", choices=tuple(MATRICES))

    p = sub.add_parser("cse", help="compile a plan and reduce its xor count")
    add_n(p)
    p.add_argument("--out", help="also write the optimized program text")

    p = sub.add_parser("emit", help="compile a plan and write the program text")
    add_n(p)
    p.add_argument("--out", required=True)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
