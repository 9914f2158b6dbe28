"""Benchmark of the cfft2047 package.

    python3 perfbench/run.py --workload stream-2047 --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout: it imports the package from ./src. It
prints a human-readable report, then, as its last line, one JSON object
with `correct`, `attempted`, `failed` and `metrics`. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 the run
is made twice on the same inputs, untraced and then traced for half of
--seconds each, and the metrics are the per-layer ones plus the tracing
overhead. Full results, the run
record and the spans go to .bench_out/.

Load is one closed-loop client on one thread. `setup_s` is the median
over SETUP_PROBES fresh processes, run one at a time before and after the
load, of the time from process start to the end of set-up (imports,
Field, build_plan and the first call), each scaled by PACE_REF over the
median of the pace() readings the process took. The gated timings are taken over
every valid call, each scaled by PACE_REF over the mean of the pace()
readings taken just before and just after it (see workloads.py): the
speed of a core whose pace() takes PACE_REF, so that other tenants of a
shared host, who slow the core by up to ~2x, move them little. The scale
depends on those readings only, never on how long a call took; unscaled
figures are printed beside them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = (4, 3)  # fresh processes timed before and after the load
PERCENTILES = (50, 90, 95, 99, 99.9)
PACE_REF = 105e-6  # pace() on a quiet core of the reference machine (see README)

END_TO_END = {  # name -> unit; values come from end_to_end() below
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "throughput_vps": "1/s",
    "peak_rss_mb": "MB",
}


def run_record(args):
    """Where and what was measured; read-only from /proc, /sys and .git."""
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "nproc": os.cpu_count(),
              "python": platform.python_version(), "numpy": np.__version__}
    try:
        with open("/proc/cpuinfo") as fh:
            record["cpu_model"] = next(ln.split(":", 1)[1].strip() for ln in fh
                                       if ln.startswith("model name"))
    except (OSError, StopIteration):
        record["cpu_model"] = "unknown"
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                record[f"l{level}_cache"] = (index / "size").read_text().strip()
        except OSError:
            pass
    record["git_sha"] = _git_sha()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    record["src_sha256"] = digest.hexdigest()
    return record


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def measure_setup(workload, seed, count):
    """(seconds from spawning a fresh interpreter to its set-up being done,
    the median of the pace() readings it took) for `count` probes."""
    probes = []
    for _ in range(count):
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("probe.py")),
             workload, str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        fields = line.split()
        if fields[:1] != ["ready"] or len(fields) != 4 or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        probes.append((elapsed, statistics.median(float(f) for f in fields[1:])))
    return probes


def percentile(values, p):
    return float(np.percentile(values, p)) if values else 0.0


def tail(latencies):
    """The highest listed percentile with at least ten samples beyond it."""
    n = len(latencies)
    usable = [p for p in PERCENTILES if n * (100 - p) / 100 >= 10]
    return (usable[-1], percentile(latencies, usable[-1])) if usable else (None, None)


def scaled(res):
    """Each valid call's seconds, scaled to a core whose pace() takes PACE_REF."""
    return [lat * PACE_REF / p for lat, p in zip(res.latencies, res.pace)]


def end_to_end(res, setup_times, per_call):
    times = scaled(res)
    return {
        "setup_s": statistics.median(t * PACE_REF / p for t, p in setup_times),
        "latency_p50_ms": percentile(times, 50) * 1e3,
        "latency_p95_ms": percentile(times, 95) * 1e3,
        "throughput_vps": per_call * len(times) / sum(times) if times else 0.0,
        "peak_rss_mb": res.peak_rss_mb,
    }


@contextlib.contextmanager
def scratch_dir():
    """A directory for the files the CLI reads and writes, removed after."""
    path = OUT / f"work-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield str(path)
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run_workload(pkg, wl, seed, seconds, tracer=None):
    state = wl.prepare(pkg, seed)
    if tracer is not None:
        tracer.phase = "timed"
    if wl.run is workloads.run_toolchain:
        with scratch_dir() as workdir:
            return state, wl.run(pkg, state, seed, seconds, tracer, workdir=workdir)
    return state, wl.run(pkg, state, seed, seconds, tracer)


def stage_a_ops_per_byte(plan):
    """Direct xors of the recombination matrix per byte of it."""
    a = plan.a_matrix
    xors = sum(max(0, m.bit_count() - 1) for m in a.row_masks)
    return xors / (a.rows * a.cols / 8)


def report(lines, name, value, unit, detail=""):
    lines.append(f"  {name:<34} {value:>14.6g} {unit:<6} {detail}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    pkg = workloads.load_package(ROOT)
    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    record = run_record(args)
    lines = [f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
             f"trace={args.trace}",
             "run record: " + json.dumps(record, sort_keys=True)]

    if args.trace:
        metrics, units, res_all, notes = traced(pkg, wl, args, lines)
    else:
        setup_times = measure_setup(args.workload, args.seed, SETUP_PROBES[0])
        t0 = perf_counter()
        _, res = run_workload(pkg, wl, args.seed, args.seconds)
        elapsed = perf_counter() - t0
        setup_times += measure_setup(args.workload, args.seed, SETUP_PROBES[1])
        metrics = end_to_end(res, setup_times, wl.vectors_per_call)
        units = END_TO_END
        res_all = [res]
        notes = {**res.notes, "latencies_s": res.latencies, "pace_s": res.pace}
        lines.append(f"end-to-end (one client, closed loop, {len(res.latencies)} "
                     f"valid timed calls over {res.wall:.3f} s; run took "
                     f"{elapsed:.1f} s after set-up):")
        describe_end_to_end(lines, wl, res, setup_times, metrics)

    attempted = sum(r.attempted for r in res_all)
    failed = sum(r.failed for r in res_all)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"record": record, "result": result, "notes": notes}, fh,
                  indent=1, sort_keys=True, default=str)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def describe_end_to_end(lines, wl, res, setup_times, m):
    lat = res.latencies
    factors = [PACE_REF / p for p in res.pace]
    call = {"stream-2047": "per evaluate call",
            "batch-89": f"per call of {workloads.BATCH_ROWS} rows",
            "toolchain-23": "per toolchain pass"}[wl.name]
    report(lines, "setup_s", m["setup_s"], "s",
           f"median of {len(setup_times)} fresh processes, each scaled by PACE_REF / "
           "its median pace; unscaled: " + " ".join(f"{t:.3f}" for t, _ in setup_times))
    report(lines, "latency_p50_ms", m["latency_p50_ms"], "ms", f"{call}; {len(lat)} valid calls")
    report(lines, "latency_p95_ms", m["latency_p95_ms"], "ms",
           f"{len(lat) * 5 // 100} of {len(lat)} calls beyond")
    report(lines, "throughput_vps", m["throughput_vps"], "1/s",
           f"{wl.vectors_per_call * len(lat)} valid vectors / scaled seconds of the calls")
    report(lines, "peak_rss_mb", m["peak_rss_mb"], "MB", "ru_maxrss after the timed loop")
    lines.append(f"  each call's time is scaled by PACE_REF {PACE_REF * 1e6:g} us / its "
                 f"pace; the factors' quartiles: "
                 + " ".join(f"{percentile(factors, q):.3f}" for q in (25, 50, 75)))
    lines.append("  not gated, the same calls unscaled:")
    report(lines, "all.latency_p50_ms", percentile(lat, 50) * 1e3, "ms", f"{len(lat)} calls")
    report(lines, "all.latency_p95_ms", percentile(lat, 95) * 1e3, "ms")
    tail_p, tail_v = tail(lat)
    if tail_p is not None and tail_p > 95:
        report(lines, f"all.latency_p{tail_p:g}_ms", tail_v * 1e3, "ms",
               "the highest percentile with at least ten calls beyond it")
    report(lines, "all.throughput_vps", res.vectors / res.wall, "1/s",
           f"{res.vectors} valid vectors / {res.wall:.3f} s of timed calls")
    notes = res.notes
    bad_total = notes.get("malformed_attempted", 0)
    bad_failed = bad_total - notes.get("malformed_rejected", 0)
    share = (res.failed + bad_failed) / (res.attempted + bad_total)
    report(lines, "failed_share", share, "share",
           f"({res.failed} valid + {bad_failed} malformed failed) / "
           f"({res.attempted} valid + {bad_total} malformed attempted)")
    if wl.name == "stream-2047":
        lines.append(f"  malformed requests (must raise ValueError): "
                     f"{notes['malformed_by_kind']}; other exceptions: "
                     f"{notes['malformed_other_exception']}")
        lines.append(f"  checks: identity F(F(f)) = f reversed on "
                     f"{notes['identity_checked_rounds']} rounds, naive DFT on "
                     f"{notes['oracle_checked']} sampled rounds")
    elif wl.name == "batch-89":
        lines.append(f"  batch path: {notes['batch_path']}; checks: identity "
                     f"F(F(f)) = f reversed on every row, naive DFT on one seeded "
                     f"row of each of {notes['oracle_checked']} blocks")
    else:
        describe_toolchain(lines, notes)
    lines.append("  the result line's attempted/failed count valid requests only; "
                 "failed_share above adds the malformed ones")


def describe_toolchain(lines, notes):
    for key, times in notes["steps"].items():
        report(lines, key, statistics.median(times), "s", f"median of {len(times)} passes")
    for key, value in sorted(notes["counts"].items()):
        report(lines, key, value, "B" if key == "plan_bytes" else "count")
    lines.append(f"  checks passed (of passes): {notes['checks']}")


def traced(pkg, wl, args, lines):
    """Untraced then traced runs, half of --seconds each, on the same
    inputs; per-layer metrics come from the traced one, the overhead from
    the difference. The toolchain adds one traced pass at n = 2047."""
    half = args.seconds / 2
    _, plain = run_workload(pkg, wl, args.seed, half)
    tracer = spans.Tracer()
    tracer.install(pkg)
    tracer.active = True
    full = None
    try:
        state, res = run_workload(pkg, wl, args.seed, half, tracer)
        if wl.run is workloads.run_toolchain:
            tracer.phase = "full-size"
            plans = [pkg.cfft.build_plan(state.field, n) for n in (2047, 89)]
            with scratch_dir() as workdir:
                full = workloads.toolchain_pass(pkg, state.field, plans,
                                                np.random.default_rng([args.seed, 3]),
                                                workdir, tracer)
        tracer.phase = "baseline"
        rng = np.random.default_rng([args.seed, 2])
        for n, reps in ((2047, 3), (89, 15)):
            for _ in range(reps):
                pkg.oracle.naive_dft(state.field, rng.integers(0, 2048, n).tolist())
    finally:
        tracer.active = False
        tracer.uninstall()
    tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")

    m = spans.layer_metrics(tracer)
    m["bilinear.stage_a.ops_per_byte"] = (stage_a_ops_per_byte(state.plan)
                                          if m["bilinear.stage_a.bytes_computed"] else 0.0)
    p50 = percentile(scaled(plain), 50)
    traced_p50 = percentile(scaled(res), 50)
    m["trace.overhead_p50_ms"] = (traced_p50 - p50) * 1e3
    m["trace.overhead_share"] = traced_p50 / p50 - 1
    units = {k: unit_of(k) for k in m}

    lines.append("per-layer (traced run; spans recorded around calls into each "
                 f"module, {len(tracer.spans)} spans):")
    for k in sorted(m):
        report(lines, k, m[k], units[k])
    lines.append(f"  tracing overhead: scaled p50 untraced {p50 * 1e3:.4f} ms, traced "
                 f"{traced_p50 * 1e3:.4f} ms; all-calls throughput untraced "
                 f"{plain.vectors / plain.wall:.4g}/s, traced "
                 f"{res.vectors / res.wall:.4g}/s")
    lines.append("  waits: none. One client on one thread in a closed loop, so no "
                 "layer waits on another; only busy and self times are reported.")
    lines.append("  layers this workload does not call report 0.")
    if "batch_path" in res.notes:
        lines.append(f"  batch path: {res.notes['batch_path']}")
    res_all = [plain, res]
    if full is not None:
        steps, _, checks, counts = full
        lines.append("  full-size pass (n = 2047, greedy_cse also at n = 89):")
        describe_toolchain(lines, {"steps": {k: [v] for k, v in steps.items()},
                                   "counts": counts, "checks": checks})
        res_all.append(workloads.Result(attempted=len(checks),
                                        failed=list(checks.values()).count(False)))
    return m, units, res_all, {"untraced": plain.notes, "traced": res.notes,
                               "full_size": full}


def unit_of(name):
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if "share" in name:
        return "share"
    if name.endswith("bytes_computed"):
        return "B"
    if name.endswith("ops_per_byte"):
        return "ops/B"
    return "count"


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit:
        raise
    except Exception as exc:  # a broken run must not print a result
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(1)
