"""Timing spans recorded around calls into the cfft2047 package.

The tracer wraps public functions of the package's modules at run time,
from outside: the package's own files are not edited. Every wrapped call
becomes a span with a name, start, end, parent span id and a few
attributes read from the arguments or the result. Spans stay in memory and
are written out once, when the run ends.

`decompose` and `BitMatrix.apply_bits` run about 380k times per plan build
at n = 2047, so they are counted rather than spanned; each span records how
many of those calls happened while it was open.

The load is one closed-loop client on one thread, so no layer ever waits on
another: spans nest strictly and a span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import json
import statistics
from time import perf_counter

COUNTED = ("cfft.decompose", "bilinear.apply_bits")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, phase, attrs]
        self.counts = dict.fromkeys(COUNTED, 0)
        self.phase = "setup"
        self.active = False
        self._stack = []
        self._undo = []

    def install(self, pkg):
        """Wrap the package's layer boundaries; `uninstall` restores them."""
        cfft, bilinear, gf = pkg.cfft, pkg.bilinear, pkg.gf
        slp, oracle, cli = pkg.slp, pkg.oracle, pkg.cli
        n_arg = lambda a, r: {"n": a[1]}
        self._wrap(cfft, "build_plan", "cfft.build_plan", n_arg)
        self._wrap(cfft, "evaluate", "cfft.evaluate", lambda a, r: {"n": a[0].n})
        if hasattr(cfft, "evaluate_batch"):
            self._wrap(cfft, "evaluate_batch", "cfft.evaluate_batch",
                       lambda a, r: {"n": a[0].n, "rows": len(a[1])})
        self._wrap(cfft, "plan_to_json", "cfft.plan_to_json",
                   lambda a, r: {"n": a[0].n, "bytes": len(r)})
        self._wrap(cfft, "plan_from_json", "cfft.plan_from_json", lambda a, r: {"n": r.n})
        self._wrap(bilinear.BitMatrix, "apply_field_packed",
                   "bilinear.apply_field_packed",
                   lambda a, r: {"rows": a[0].rows, "cols": a[0].cols})
        self._wrap(gf.Field, "mul_vec", "gf.mul_vec",
                   lambda a, r: {"elements": int(r.size)})
        self._wrap(oracle, "naive_dft", "oracle.naive_dft",
                   lambda a, r: {"n": len(r)})
        self._wrap(slp, "compile_plan", "slp.compile_plan",
                   lambda a, r: {"n": a[0].n, "instructions": r.n_instructions})
        self._wrap(slp, "greedy_cse", "slp.greedy_cse",
                   lambda a, r: {"n": a[0].n_outputs, "xor_before": a[0].xor_count,
                                 "xor_after": r.xor_count})
        self._wrap(cli, "main", "cli.main",
                   lambda a, r: {"command": a[0][0], "n": int(a[0][a[0].index("--n") + 1])})
        self._count(cfft, "decompose", "cfft.decompose")
        self._count(bilinear.BitMatrix, "apply_bits", "bilinear.apply_bits")

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside are not recorded (output checks, bad requests)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, owner, attr, name, attrs_of=None):
        fn = getattr(owner, attr)
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.phase, None]
            stack.append(len(spans))
            spans.append(rec)
            before = tuple(counts.values())
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            attrs = attrs_of(args, result) if attrs_of else {}
            for key, b, a in zip(counts, before, counts.values()):
                if a != b:
                    attrs[key + ".calls"] = a - b
            rec[5] = attrs
            return result

        self._undo.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def _count(self, owner, attr, name):
        fn = getattr(owner, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self._undo.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def self_times(self):
        """Span duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, phase, attrs in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, phase, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "phase": phase, **(attrs or {})}) + "\n")


def layer_metrics(tracer):
    """Per-layer metrics of one traced run.

    Medians are per call. Plan building is taken at the largest n the run
    built, the CLI, plan files and compile_plan at n = 2047. A layer the
    workload never calls reports 0.
    """
    spans = tracer.spans
    selfs = tracer.self_times()

    def pick(name, phase=None, **want):
        return [i for i, s in enumerate(spans)
                if s[0] == name and (phase is None or s[4] == phase)
                and all((s[5] or {}).get(k) == v for k, v in want.items())]

    def med(values, scale=1.0):
        return statistics.median(values) * scale if values else 0.0

    def dur(ids, scale=1.0):
        return med([spans[i][2] - spans[i][1] for i in ids], scale)

    def under(i, name):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == name:
                return True
            p = spans[p][3]
        return False

    evals = pick("cfft.evaluate", "timed")
    stage_a = [i for i in pick("bilinear.apply_field_packed", "timed")
               if under(i, "cfft.evaluate") or under(i, "cfft.evaluate_batch")]
    mul = [i for i in pick("gf.mul_vec", "timed")
           if under(i, "cfft.evaluate") or under(i, "cfft.evaluate_batch")]
    built = [s[5]["n"] for s in spans if s[0] == "cfft.build_plan" and s[5]]
    builds = pick("cfft.build_plan", n=max(built)) if built else []
    compiles = pick("slp.compile_plan", n=2047)
    cli_plan = pick("cli.main", command="plan", n=2047)
    cli_eval = pick("cli.main", command="eval", n=2047)

    m = {
        "cfft.evaluate.calls": len(evals),
        "cfft.evaluate.self_ms": med([selfs[i] for i in evals], 1e3),
        "cfft.evaluate_batch.calls": len(pick("cfft.evaluate_batch", "timed")),
        "bilinear.apply_field_packed.ms": dur(stage_a, 1e3),
        "bilinear.apply_field_packed.calls": len(stage_a),
        "gf.mul_vec.ms": dur(mul, 1e3),
        "gf.mul_vec.elements": med([spans[i][5]["elements"] for i in mul]),
        "cfft.build_plan.s": dur(builds),
        "cfft.decompose.calls": med([spans[i][5].get("cfft.decompose.calls", 0)
                                     for i in builds]),
        "bilinear.apply_bits.calls": med([spans[i][5].get("bilinear.apply_bits.calls", 0)
                                          for i in builds]),
        "cfft.plan_to_json.s": dur(pick("cfft.plan_to_json", n=2047)),
        "cfft.plan_from_json.s": dur(pick("cfft.plan_from_json", n=2047)),
        "cli.plan.self_s": med([selfs[i] for i in cli_plan]),
        "cli.eval.self_s": med([selfs[i] for i in cli_eval]),
        "slp.compile_plan.s": dur(compiles),
        "slp.instructions": med([spans[i][5]["instructions"] for i in compiles]),
    }
    if stage_a:
        rows, cols = spans[stage_a[0]][5]["rows"], spans[stage_a[0]][5]["cols"]
        m["bilinear.stage_a.bytes_computed"] = rows * cols / 8
    else:
        m["bilinear.stage_a.bytes_computed"] = 0.0
    m["slp.greedy_cse_23.s"] = dur(pick("slp.greedy_cse", n=23))
    for k in (2047, 89):
        cse = pick("slp.greedy_cse", n=k)
        before = med([spans[i][5]["xor_before"] for i in cse])
        after = med([spans[i][5]["xor_after"] for i in cse])
        m[f"slp.greedy_cse_{k}.s"] = dur(cse)
        m[f"slp.xor_before_{k}"] = before
        m[f"slp.xor_after_{k}"] = after
        m[f"slp.cse_removed_share_{k}"] = (before - after) / before if before else 0.0
    for k in (2047, 89):
        m[f"oracle.naive_dft_{k}.ms"] = dur(pick("oracle.naive_dft", "baseline", n=k), 1e3)
    return m
