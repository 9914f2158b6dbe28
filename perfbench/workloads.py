"""The benchmark's three workloads.

Each workload has a `prepare(pkg, seed)` that does the set-up a user pays
before the first timed call, and a `run(pkg, state, seed, seconds, tracer)`
that drives one closed-loop client on one thread until `seconds` of calls
have been timed, then checks every output outside the timed region. The
package only ever sees inputs generated here from the seed.

stream-2047   one `evaluate` per call at n = 2047, the latency a library
              user sees; stage A dominates it.
batch-89      (64, 89) blocks through `evaluate_batch` when the package
              has it, else `evaluate` row by row; at n = 89 the Python
              overhead of `evaluate` is about half the time and the plan
              builds in milliseconds, so build-side changes should not
              show here.
toolchain-23  the CLI's plan and eval commands, `compile_plan` and
              `greedy_cse` at n = 23: build, save, load and compile rather
              than evaluate. At n = 2047 one such pass takes ~12 s, and a
              run of a few passes cannot be timed steadily on a shared
              host, so the timed loop uses n = 23 (~0.2 s a pass) and the
              traced run adds one pass at n = 2047, with `greedy_cse` also
              at n = 89, for the per-layer figures.

Every timed call is bracketed by `pace()` readings; run.py uses them to
scale each call's time to a reference speed of the core.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import resource
import sys
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from time import perf_counter

import numpy as np

BATCH_ROWS = 64
TOOL_N = 23
ORACLE_SHARE = 0.02  # stream-2047 rounds also checked against the naive DFT
MALFORMED_SHARE = 0.03  # stream-2047 rounds followed by one bad request
MALFORMED_KINDS = ("out_of_range", "wrong_length", "non_integer")


def load_package(root: Path):
    """Import cfft2047 from the checkout's src/ and nowhere else."""
    src = root / "src"
    if not (src / "cfft2047" / "__init__.py").is_file():
        raise SystemExit(f"error: {src}/cfft2047 not found; run from a full checkout")
    sys.path.insert(0, str(src))
    import cfft2047
    from cfft2047 import bilinear, cfft, cli, gf, oracle, slp  # noqa: F401

    if Path(cfft2047.__file__).resolve().parent != (src / "cfft2047").resolve():
        raise SystemExit(f"error: imported cfft2047 from {cfft2047.__file__}, not {src}")
    return cfft2047


_PACE_BLOCK = np.arange(128, dtype=np.int16)
_PACE_INDEX = np.arange(128)[::-1].copy()


def pace():
    """Seconds a fixed mix of dict updates and small numpy operations takes
    right now: the kinds of work `greedy_cse` and `evaluate` do.

    Other tenants of a shared host slow a core by up to ~2x, in bursts of
    milliseconds to minutes, and they slow this mix by about as much as
    they slow the package (a plain integer loop slows less). The program
    under test cannot change how long the mix takes, so readings taken
    next to a call say how fast the core ran, whatever the call did.
    """
    t0 = perf_counter()
    table = {}
    for i in range(600):
        table[(i * 7919) % 4099] = i
    total = 0
    for v in table.values():
        total += v
    block = _PACE_BLOCK.copy()
    for _ in range(60):
        block ^= block[_PACE_INDEX]
    return perf_counter() - t0


@dataclass
class Result:
    """What one timed loop did. latencies[i] is the seconds of valid call
    i and pace[i] the mean of the pace() readings just before and just
    after it; wall is the seconds of every timed call, failed ones too."""

    latencies: list = dc_field(default_factory=list)
    pace: list = dc_field(default_factory=list)
    vectors: int = 0
    wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    notes: dict = dc_field(default_factory=dict)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _rng(seed, stream):
    return np.random.default_rng([seed, stream])


def _call(fn, *args):
    """fn(*args), or None when it raises: any error on a valid request is a
    failed operation, never a crash of the benchmark."""
    try:
        return fn(*args)
    except Exception:
        return None


def _paused(tracer):
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.paused()


def _timed_pair(call, first, second_of):
    """call(first), then call(second_of(result)), each between pace()
    readings. Returns both results, both durations and both paces."""
    p0 = pace()
    t0 = perf_counter()
    once = _call(call, first)
    t1 = perf_counter()
    second = _call(second_of, once) if once is not None else None
    p1 = pace()
    t2 = perf_counter()
    twice = _call(call, second) if second is not None else None
    t3 = perf_counter()
    p2 = pace()
    return once, twice, (t1 - t0, t3 - t2), ((p0 + p1) / 2, (p1 + p2) / 2)


# ---------------------------------------------------------------------------
# stream-2047
# ---------------------------------------------------------------------------


@dataclass
class EvalState:
    field: object
    plan: object


def prepare_stream(pkg, seed):
    field = pkg.gf.Field()
    plan = pkg.cfft.build_plan(field, 2047)
    pkg.cfft.evaluate(plan, _rng(seed, 0).integers(0, 2048, 2047).tolist())
    return EvalState(field, plan)


def _malformed(kind, f):
    bad = list(f)
    if kind == "out_of_range":
        bad[len(bad) // 2] = 2048
    elif kind == "wrong_length":
        bad.pop()
    else:
        bad[len(bad) // 2] = 3.7
    return bad


def run_stream(pkg, state, seed, seconds, tracer=None):
    """Each round evaluates f, then evaluates the result again; both calls
    are timed. Because n is odd, F(F(f))_j = f_(-j mod n), so the pair
    checks both outputs; the second input is a DFT output, which is as
    uniform as f itself."""
    plan, n = state.plan, state.plan.n
    evaluate = lambda f: pkg.cfft.evaluate(plan, f)  # noqa: E731
    rng = _rng(seed, 1)
    res = Result()
    oracle_due, bad_seen = [], dict.fromkeys(MALFORMED_KINDS, 0)
    bad_rejected = dict.fromkeys(MALFORMED_KINDS, 0)
    bad_other = 0
    while res.wall < seconds:
        f = rng.integers(0, 2048, n).tolist()
        to_oracle = rng.random() < ORACLE_SHARE or not oracle_due
        bad_kind = (MALFORMED_KINDS[int(rng.integers(len(MALFORMED_KINDS)))]
                    if rng.random() < MALFORMED_SHARE else None)
        once, twice, times, paces = _timed_pair(evaluate, f, lambda x: x)
        res.wall += sum(times)
        res.attempted += 2
        if twice == [f[-j % n] for j in range(n)]:
            res.latencies += times
            res.pace += paces
            res.vectors += 2
            if to_oracle:
                oracle_due.append((f, once))
        else:
            res.failed += 2
        if bad_kind:
            bad_seen[bad_kind] += 1
            with _paused(tracer):
                try:
                    evaluate(_malformed(bad_kind, f))
                except ValueError:
                    bad_rejected[bad_kind] += 1
                except Exception:
                    bad_other += 1
    res.peak_rss_mb = _peak_rss_mb()

    with _paused(tracer):
        for f, got in oracle_due:
            if got != pkg.oracle.naive_dft(state.field, f):
                res.failed += 1
    res.notes = {
        "oracle_checked": len(oracle_due),
        "identity_checked_rounds": res.attempted // 2,
        "malformed_attempted": sum(bad_seen.values()),
        "malformed_rejected": sum(bad_rejected.values()),
        "malformed_by_kind": {k: f"{bad_rejected[k]}/{bad_seen[k]} rejected"
                              for k in MALFORMED_KINDS},
        "malformed_other_exception": bad_other,
    }
    return res


# ---------------------------------------------------------------------------
# batch-89
# ---------------------------------------------------------------------------


def _batch_call(pkg):
    """The batch entry point when the package has one, else a row loop."""
    fn = getattr(pkg.cfft, "evaluate_batch", None)
    if fn is not None:
        return "evaluate_batch", fn
    evaluate = pkg.cfft.evaluate
    return "evaluate_row_loop", lambda plan, rows: [evaluate(plan, r) for r in rows.tolist()]


def prepare_batch(pkg, seed):
    field = pkg.gf.Field()
    plan = pkg.cfft.build_plan(field, 89)
    _batch_call(pkg)[1](plan, _rng(seed, 0).integers(0, 2048, (BATCH_ROWS, 89)))
    return EvalState(field, plan)


def run_batch(pkg, state, seed, seconds, tracer=None):
    """Each round transforms a block, then the output block; both calls are
    timed. Every row is checked by the identity F(F(f))_j = f_(-j mod n),
    and one seeded row of each block against the naive DFT."""
    path, batch = _batch_call(pkg)
    plan, n = state.plan, state.plan.n
    call = lambda rows: batch(plan, rows)  # noqa: E731
    as_block = lambda out: np.asarray(out, dtype=np.int64).reshape(BATCH_ROWS, n)  # noqa: E731
    reverse = (-np.arange(n)) % n
    rng = _rng(seed, 1)
    res = Result(notes={"batch_path": path})
    oracle_due = []
    while res.wall < seconds:
        block = rng.integers(0, 2048, (BATCH_ROWS, n))
        row = int(rng.integers(BATCH_ROWS))
        once, twice, times, paces = _timed_pair(call, block, as_block)
        res.wall += sum(times)
        res.attempted += 2 * BATCH_ROWS
        twice = _call(as_block, twice) if twice is not None else None
        if twice is not None and np.array_equal(twice, block[:, reverse]):
            res.latencies += times
            res.pace += paces
            res.vectors += 2 * BATCH_ROWS
            oracle_due.append((block[row].tolist(), [int(v) for v in once[row]]))
        else:
            res.failed += 2 * BATCH_ROWS
    res.peak_rss_mb = _peak_rss_mb()

    with _paused(tracer):
        for f, got in oracle_due:
            if got != pkg.oracle.naive_dft(state.field, f):
                res.failed += 1
    res.notes["oracle_checked"] = len(oracle_due)
    return res


# ---------------------------------------------------------------------------
# toolchain-23
# ---------------------------------------------------------------------------


def prepare_toolchain(pkg, seed):
    field = pkg.gf.Field()
    return EvalState(field, pkg.cfft.build_plan(field, TOOL_N))


def _cli(pkg, argv):
    """Run the CLI in process; its own printing is kept off our stdout."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return pkg.cli.main(argv)


def _read_hex(path):
    with open(path) as fh:
        return [int(ln, 16) for ln in fh if ln.strip()]


def toolchain_pass(pkg, field, plans, rng, workdir, tracer=None):
    """CLI plan, then CLI eval from the saved plan, at n = plans[0].n; then
    compile_plan and greedy_cse of every plan in `plans`. Each step is
    timed between pace() readings and checked afterwards.

    Returns (step seconds, pace readings, check results, counts)."""
    cfft, slp = pkg.cfft, pkg.slp
    plan = plans[0]
    n = plan.n
    plan_path, in_path, out_path = (os.path.join(workdir, name)
                                    for name in ("plan.json", "f.hex", "F.hex"))
    f = rng.integers(0, 2048, n).tolist()
    with open(in_path, "w") as fh:
        fh.writelines(f"0x{v:03x}\n" for v in f)
    steps, paces = {}, [pace()]

    def timed(key, fn, *args):
        gc.collect()  # every step starts from the same collector state
        t0 = perf_counter()
        out = _call(fn, *args)
        steps[key] = perf_counter() - t0
        paces.append(pace())
        return out

    rc_plan = timed("cli_plan_s", _cli, pkg, ["plan", "--n", str(n), "--out", plan_path])
    rc_eval = timed("cli_eval_s", _cli, pkg, ["eval", "--n", str(n), "--plan", plan_path,
                                              "--in", in_path, "--out", out_path])
    programs = {}
    for p in plans:
        compiled = timed(f"compile_{p.n}_s", slp.compile_plan, p)
        programs[p.n] = (compiled, timed(f"cse_{p.n}_s", slp.greedy_cse, compiled)
                         if compiled is not None else None)

    with _paused(tracer):
        plan_text = _call(Path(plan_path).read_text)
        checks = {
            "plan_loads_equal": rc_plan == 0 and plan_text is not None
            and _call(cfft.plan_from_json, plan_text) == plan,
            "eval_matches_oracle": rc_eval == 0
            and _call(_read_hex, out_path) == pkg.oracle.naive_dft(field, f),
        }
        counts = {"plan_bytes": len(plan_text.encode()) if plan_text else 0}
        for p in plans:
            compiled, cse = programs[p.n]
            v = rng.integers(0, 2048, p.n).tolist()
            checks[f"compile_counts_{p.n}"] = compiled is not None and (
                compiled.cmul_count, compiled.xor_count) == (p.mult_count, p.add_count)
            checks[f"cse_keeps_cmul_{p.n}"] = cse is not None and cse.cmul_count == p.mult_count
            checks[f"cse_matches_evaluate_{p.n}"] = checks[f"cse_keeps_cmul_{p.n}"] and (
                _call(cse.run, field, v) == cfft.evaluate(p, v))
            if cse is not None:
                counts[f"cse_xor_count_{p.n}"] = cse.xor_count
                counts[f"cse_cmul_count_{p.n}"] = cse.cmul_count
    return steps, paces, checks, counts


def run_toolchain(pkg, state, seed, seconds, tracer=None, workdir="."):
    """Whole passes at n = TOOL_N, started while less than `seconds` has
    been timed; a pass's latency is the sum of its steps."""
    rng = _rng(seed, 1)
    res = Result()
    steps, checks, counts = {}, {}, {}
    while res.wall < seconds:
        times, paces, passed, counts = toolchain_pass(pkg, state.field, [state.plan],
                                                      rng, workdir, tracer)
        total = sum(times.values())
        res.wall += total
        res.attempted += len(passed)
        res.failed += list(passed.values()).count(False)
        if all(passed.values()):
            bracket = [(a + b) / 2 for a, b in zip(paces, paces[1:])]
            res.latencies.append(total)
            # the pace at which the pass as a whole ran: step times over
            # their own paces add up to total / that pace
            res.pace.append(total / sum(t / p for t, p in zip(times.values(), bracket)))
            res.vectors += 1
        for key, t in times.items():
            steps.setdefault(key, []).append(t)
        for key, ok in passed.items():
            checks[key] = checks.get(key, 0) + ok
    res.peak_rss_mb = _peak_rss_mb()
    res.notes = {"steps": steps, "counts": counts, "checks": checks}
    return res


@dataclass(frozen=True)
class Workload:
    name: str
    vectors_per_call: int
    prepare: object
    run: object


WORKLOADS = {w.name: w for w in (
    Workload("stream-2047", 1, prepare_stream, run_stream),
    Workload("batch-89", BATCH_ROWS, prepare_batch, run_batch),
    Workload("toolchain-23", 1, prepare_toolchain, run_toolchain),
)}
