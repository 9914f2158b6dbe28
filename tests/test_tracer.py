"""The benchmark's tracer (perfbench/spans.py) wraps named functions of the
package at run time. Installing it here makes removing or renaming one of
those names fail the test suite, not only a traced benchmark run."""

import importlib.util
from pathlib import Path

import cfft2047
from cfft2047 import bilinear, cfft, cli, gf, oracle, slp  # noqa: F401  (install reads them)

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_and_uninstall_restore_the_package():
    wrapped = [
        (cfft, "build_plan"), (cfft, "evaluate"), (cfft, "decompose"),
        (bilinear.BitMatrix, "apply_bits"), (bilinear.BitMatrix, "apply_field_packed"),
        (gf.Field, "mul_vec"), (oracle, "naive_dft"), (slp, "compile_plan"),
        (slp, "greedy_cse"), (cli, "main"),
    ]
    before = [getattr(owner, attr) for owner, attr in wrapped]
    tracer = _load_spans().Tracer()
    tracer.install(cfft2047)
    try:
        during = [getattr(owner, attr) for owner, attr in wrapped]
        assert all(d is not b for d, b in zip(during, before))
    finally:
        tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr in wrapped] == before
