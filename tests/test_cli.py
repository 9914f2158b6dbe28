import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import cfft2047
from cfft2047 import BitMatrix, Field, Slp, build_plan, plan_from_json, plan_to_json, oracle
from cfft2047 import cli
from cfft2047.cli import main

from conftest import random_vector


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cosets_text(capsys):
    code, out, _ = run_cli(capsys, "cosets", "--n", "2047")
    assert code == 0
    assert "187 cosets: 1xsize-1, 186xsize-11" in out
    code, out, _ = run_cli(capsys, "cosets", "--n", "23")
    assert code == 0
    assert out.count("size 11") == 2
    code, out, _ = run_cli(capsys, "cosets", "--n", "1")
    assert code == 0
    assert "1 cosets: 1xsize-1" in out


def test_cosets_json(capsys):
    code, out, _ = run_cli(capsys, "cosets", "--n", "23", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 23
    assert doc["census"] == {"1": 1, "11": 2}


def test_unsupported_length(capsys):
    code, _, err = run_cli(capsys, "cosets", "--n", "12")
    assert code == 2
    assert "does not divide" in err


def test_plan_writes_reloadable_file(capsys, tmp_path, field):
    out_path = tmp_path / "p23.json"
    code, out, _ = run_cli(capsys, "plan", "--n", "23", "--out", str(out_path))
    assert code == 0
    assert "mult_count=84" in out
    loaded = plan_from_json(out_path.read_text())
    assert loaded == build_plan(field, 23)


def test_eval_zero_vector(capsys, tmp_path):
    src = tmp_path / "in.hex"
    dst = tmp_path / "out.hex"
    src.write_text("0x000\n" * 23)
    code, _, _ = run_cli(capsys, "eval", "--n", "23", "--in", str(src), "--out", str(dst))
    assert code == 0
    assert dst.read_text() == "0x000\n" * 23


def test_eval_matches_oracle_bytes(capsys, tmp_path, field):
    rng = random.Random(0)
    vec = random_vector(rng, 23)
    src = tmp_path / "in.hex"
    dst = tmp_path / "out.hex"
    src.write_text("".join(f"0x{v:03x}\n" for v in vec))
    code, _, _ = run_cli(capsys, "eval", "--n", "23", "--in", str(src), "--out", str(dst))
    assert code == 0
    want = "".join(f"0x{v:03x}\n" for v in oracle.naive_dft(field, vec))
    assert dst.read_text() == want


def test_eval_rejects_bad_vector(capsys, tmp_path):
    src = tmp_path / "in.hex"
    src.write_text("0x000\n" * 22)
    code, _, err = run_cli(capsys, "eval", "--n", "23", "--in", str(src),
                           "--out", str(tmp_path / "o.hex"))
    assert code == 2
    assert "expected 23 elements" in err


@pytest.mark.parametrize("element", ["5", "+0x5", "0x0_5", "\u0665", "0x", "0x1234"])
def test_eval_rejects_malformed_element(capsys, tmp_path, element):
    src = tmp_path / "in.hex"
    src.write_text("0x000\n" * 3 + element + "\n" + "0x000\n" * 19)
    code, out, err = run_cli(capsys, "eval", "--n", "23", "--in", str(src),
                             "--out", str(tmp_path / "o.hex"))
    assert code == 2
    assert err.startswith(f"error: {src}: element 3 ")
    assert "Traceback" not in err + out
    assert not (tmp_path / "o.hex").exists()


def test_eval_reads_short_and_uppercase_hex(capsys, tmp_path, field):
    src = tmp_path / "in.hex"
    dst = tmp_path / "out.hex"
    src.write_text("0x7ff\n  0x00A \n\n0x1\n" + "0x000\n" * 20)
    code, _, _ = run_cli(capsys, "eval", "--n", "23", "--in", str(src), "--out", str(dst))
    assert code == 0
    want = oracle.naive_dft(field, [0x7FF, 0xA, 1] + [0] * 20)
    assert dst.read_text() == "".join(f"0x{v:03x}\n" for v in want)


def test_verify_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "23", "--trials", "25")
    assert code == 0
    assert out.count("PASS") == 4
    assert "FAIL" not in out


def test_verify_trials_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "23", "--trials", "0")
    assert code == 0
    assert "FAIL" not in out


@pytest.mark.parametrize("argv", [
    ("verify", "--n", "23", "--trials", "-3"),
    ("bench", "--n", "23", "--trials", "0"),
    ("bench", "--n", "23", "--trials", "-2"),
])
def test_bad_trials_rejected_at_parsing(capsys, monkeypatch, argv):
    def no_build(*args):
        raise AssertionError("a plan was built before --trials was checked")

    monkeypatch.setattr(cli.cfft, "build_plan", no_build)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "argument --trials: must be at least" in err
    assert out == ""


def test_verify_corrupted_plan_fails(capsys, tmp_path, plan23):
    from cfft2047 import plan_to_json

    doc = json.loads(plan_to_json(plan23))
    row = doc["a_matrix"][5]  # six hex digits; flip one bit of the fourth
    doc["a_matrix"][5] = row[:3] + f"{int(row[3], 16) ^ 0b0100:x}" + row[4:]
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(doc))
    code, out, _ = run_cli(
        capsys, "verify", "--n", "23", "--trials", "5", "--plan", str(bad_path)
    )
    assert code == 1
    assert "FAIL transform plan" in out
    assert "mismatch at" in out


def test_complexity_text(capsys):
    code, out, _ = run_cli(capsys, "complexity", "--n", "23")
    assert code == 0
    assert "mult = 84" in out
    assert "add(direct, per-stage) = " in out
    assert "add(cse) = " in out


def test_complexity_json(capsys):
    code, out, _ = run_cli(capsys, "complexity", "--n", "23", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["mult"] == 84
    assert doc["add_after_cse"] < doc["add_direct_stages"]


def test_dump(capsys):
    code, out, _ = run_cli(capsys, "dump", "PT5")
    assert code == 0
    assert out.splitlines()[0] == "10000"
    code, out, _ = run_cli(capsys, "dump", "S")
    assert out.splitlines()[1] == "11000000000"
    code, out, _ = run_cli(capsys, "dump", "Q11")
    lines = out.strip().splitlines()
    assert len(lines) == 11
    assert all(len(ln) == 43 for ln in lines)
    code, _, _ = run_cli(capsys, "dump", "NOPE")
    assert code == 2
    assert len(cli.MATRICES) == 14
    for name, factory in cli.MATRICES.items():
        code, out, _ = run_cli(capsys, "dump", name)
        assert code == 0, name
        assert BitMatrix.from_text(out) == factory(), name


def test_emit_and_parse(capsys, tmp_path, field, prog23):
    out_path = tmp_path / "p.slp"
    code, out, _ = run_cli(capsys, "emit", "--n", "23", "--out", str(out_path))
    assert code == 0
    prog = Slp.from_text(out_path.read_text())
    assert prog.xor_count == prog23.xor_count
    assert prog.cmul_count == prog23.cmul_count
    # `cse --out` is the one way to write a CSE'd program: it checks it first
    code, _, err = run_cli(capsys, "emit", "--n", "23", "--out", str(out_path), "--cse")
    assert code == 2
    assert "unrecognized arguments: --cse" in err


def test_cse_command(capsys):
    code, out, _ = run_cli(capsys, "cse", "--n", "23")
    assert code == 0
    assert "xor 552 ->" in out
    assert "cmul 84 -> 84" in out
    assert "PASS optimized program equals the 23-point DFT matrix" in out


def test_cse_command_fails_on_wrong_rewrite(capsys, monkeypatch, tmp_path):
    def swap_outputs(prog):
        outputs = list(prog.outputs)
        outputs[0], outputs[1] = outputs[1], outputs[0]
        return Slp(prog.n_inputs, prog.kinds, prog.op_a, prog.op_b, outputs)

    monkeypatch.setattr(cli.slp, "greedy_cse", swap_outputs)
    out_path = tmp_path / "p.slp"
    code, out, _ = run_cli(capsys, "cse", "--n", "23", "--out", str(out_path))
    assert code == 1
    assert "FAIL optimized program does not equal the 23-point DFT matrix" in out
    assert not out_path.exists()


def test_cse_takes_its_plan_from_load_or_build_plan(capsys, monkeypatch):
    def no_build(*args):
        raise AssertionError("cse built a plan itself")

    plan = build_plan(Field(OTHER_GENPOLY), 23)
    monkeypatch.setattr(cli, "_load_or_build_plan", lambda args: plan)
    monkeypatch.setattr(cli.cfft, "build_plan", no_build)
    code, out, _ = run_cli(capsys, "cse", "--n", "23")
    assert code == 0
    # the proof runs over the plan's field, which is not the default one
    assert "PASS optimized program equals the 23-point DFT matrix" in out


def test_bench_plan_beats_naive_at_2047(capsys):
    code, out, _ = run_cli(capsys, "bench", "--n", "2047", "--trials", "3")
    assert code == 0
    lines = out.strip().splitlines()
    speedup = float(lines[-1].split()[-1].rstrip("x"))
    assert speedup > 1.0
    times = {}
    for ln in lines:
        name, _, value = ln.partition(":")
        if value.strip().endswith(" ms"):
            times[name] = float(value.split()[0])
    for name in ("build_plan", "plan_to_json", "plan_from_json"):
        assert 0 < times[name] < 60_000, name
    stages = {name: times[f"stage {name} median"]
              for name in ("permute", "P", "mul", "Q", "A")}
    assert all(0 < t < 60_000 for t in stages.values()), stages
    # at n = 2047 the recombination stage A is ~90% of an evaluation
    assert stages["A"] == max(stages.values()), stages


def test_bench_evaluates_each_vector_once(capsys, monkeypatch):
    # the stage walk gives both the output and the evaluation time
    def no_evaluate(*args):
        raise AssertionError("bench called cfft.evaluate")

    monkeypatch.setattr(cli.cfft, "evaluate", no_evaluate)
    code, out, _ = run_cli(capsys, "bench", "--n", "23", "--trials", "2")
    assert code == 0
    labels = [ln.partition(":")[0] for ln in out.strip().splitlines()]
    assert labels == [
        "n = 23, trials = 2", "build_plan", "plan_to_json", "plan_from_json",
        *(f"stage {name} median" for name in ("permute", "P", "mul", "Q", "A")),
        "plan evaluation median", "naive DFT median", "speedup",
    ]


def _separate_run(argv):
    """`python -m cfft2047.cli argv` in a fresh interpreter."""
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=str(Path(cfft2047.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "cfft2047.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_main_reused_in_one_process_prints_what_separate_runs_print(capsys, monkeypatch):
    # the parser is built once per process, so a usage error in one call
    # must not leak into the next
    monkeypatch.setenv("COLUMNS", "80")
    runs = [
        ("cosets", "--n", "23"),
        ("eval", "--n", "23", "--out", "unused.hex"),  # --in is missing
        ("complexity", "--n", "23", "--format", "json"),
    ]
    in_process = [run_cli(capsys, *argv) for argv in runs]
    assert in_process[1][0] == 2
    assert "the following arguments are required: --in" in in_process[1][2]
    assert in_process == [_separate_run(argv) for argv in runs]


def test_main_dispatches_on_the_command_at_call_time(capsys, monkeypatch, tmp_path):
    assert run_cli(capsys, "cosets", "--n", "1")[0] == 0
    seen = []

    def fake_plan(args):
        seen.append((args.command, args.n, args.out))
        return 0

    monkeypatch.setattr(cli, "cmd_plan", fake_plan)
    out_path = str(tmp_path / "p.json")
    assert run_cli(capsys, "plan", "--n", "23", "--out", out_path)[0] == 0
    assert seen == [("plan", 23, out_path)]
    assert not (tmp_path / "p.json").exists()
    assert cli._build_parser() is cli._build_parser()


def test_eval_rejects_plan_missing_key(capsys, tmp_path, plan23):
    from cfft2047 import plan_to_json

    doc = json.loads(plan_to_json(plan23))
    del doc["constants"]
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(doc))
    src = tmp_path / "in.hex"
    src.write_text("0x000\n" * 23)
    code, _, err = run_cli(capsys, "eval", "--n", "23", "--in", str(src),
                           "--out", str(tmp_path / "o.hex"), "--plan", str(bad_path))
    assert code == 2
    assert "'constants'" in err


def test_verify_rejects_inconsistent_plan(capsys, tmp_path, plan23):
    from cfft2047 import plan_to_json

    doc = json.loads(plan_to_json(plan23))
    doc["constants"].append(1)
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify", "--n", "23", "--trials", "1",
                           "--plan", str(bad_path))
    assert code == 2
    assert "expected 87 constants" in err


def _set_row(i, row):
    return lambda d: d["a_matrix"].__setitem__(i, row)


BAD_PLAN_EDITS = [  # name, edit of a well-formed n = 23 document, error text
    ("old tag", lambda d: d.update(format="cfft2047-plan"), "'cfft2047-plan-2'"),
    ("missing key", lambda d: d.pop("permutation"), "'permutation'"),
    ("unknown key", lambda d: d.update(add_count=552), "'add_count'"),
    ("genpoly type", lambda d: d.update(genpoly="0x805"), "'genpoly'"),
    ("genpoly not primitive", lambda d: d.update(genpoly=0x801), "primitive"),
    ("n type", lambda d: d.update(n=23.0), "'n'"),
    ("n", lambda d: d.update(n=7), "does not divide 2047"),
    ("permutation", lambda d: d["permutation"].__setitem__(0, 1), "bijection"),
    ("constant range", lambda d: d["constants"].__setitem__(3, 2048), "out of range"),
    ("constant count", lambda d: d["constants"].pop(), "expected 87 constants"),
    ("row count", lambda d: d["a_matrix"].pop(), "has 22 rows"),
    ("row width", _set_row(4, "0000001"), "row 4"),
    ("uppercase", _set_row(4, "00000F"), "row 4"),
    ("0x prefix", _set_row(4, "0x0001"), "row 4"),
    ("underscore", _set_row(4, "00_001"), "row 4"),
    ("sign", _set_row(4, "+00001"), "row 4"),
    ("whitespace", _set_row(4, "00001 "), "row 4"),
    ("mask too wide", _set_row(4, "800001"), "row 4"),
]


@pytest.mark.parametrize("edit, message", [e[1:] for e in BAD_PLAN_EDITS],
                         ids=[e[0] for e in BAD_PLAN_EDITS])
def test_eval_and_verify_reject_bad_plan(capsys, tmp_path, plan23, edit, message):
    doc = json.loads(plan_to_json(plan23))
    edit(doc)
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        plan_from_json(bad_path.read_text())
    src = tmp_path / "in.hex"
    src.write_text("0x000\n" * 23)
    for argv in (["eval", "--in", str(src), "--out", str(tmp_path / "o.hex")],
                 ["verify", "--trials", "1"]):
        code, out, err = run_cli(capsys, *argv, "--n", "23", "--plan", str(bad_path))
        assert code == 2, argv[0]
        assert message in err and "Traceback" not in err + out
        assert "PASS" not in out and "FAIL" not in out
    assert not (tmp_path / "o.hex").exists()


def test_eval_and_verify_reject_deeply_nested_plan(capsys, tmp_path):
    bad_path = tmp_path / "deep.json"
    bad_path.write_text("[" * 200_000 + "]" * 200_000)
    src = tmp_path / "in.hex"
    src.write_text("0x000\n" * 23)
    for argv in (["eval", "--in", str(src), "--out", str(tmp_path / "o.hex")],
                 ["verify", "--trials", "1"]):
        code, out, err = run_cli(capsys, *argv, "--n", "23", "--plan", str(bad_path))
        assert code == 2, argv[0]
        assert err.startswith("error: plan document is nested too deeply")
        assert "PASS" not in out and "FAIL" not in out
    assert not (tmp_path / "o.hex").exists()


OTHER_GENPOLY = (1 << 11) | (1 << 9) | 1  # x^11 + x^9 + 1, also primitive


@pytest.fixture
def other_field_plan_path(tmp_path):
    path = tmp_path / "p23.json"
    path.write_text(plan_to_json(build_plan(Field(OTHER_GENPOLY), 23)))
    return path


def test_verify_plan_over_its_own_field(capsys, other_field_plan_path):
    code, out, _ = run_cli(capsys, "verify", "--n", "23", "--trials", "5",
                           "--plan", str(other_field_plan_path))
    assert code == 0, out
    assert out.count("PASS") == 4


def test_eval_plan_builds_no_field(capsys, monkeypatch, tmp_path, other_field_plan_path):
    def no_field(*args):
        raise AssertionError("eval --plan built a Field")

    monkeypatch.setattr(cli, "Field", no_field)
    rng = random.Random(1)
    vec = random_vector(rng, 23)
    src = tmp_path / "in.hex"
    dst = tmp_path / "out.hex"
    src.write_text("".join(f"0x{v:03x}\n" for v in vec))
    code, _, _ = run_cli(capsys, "eval", "--n", "23", "--in", str(src), "--out", str(dst),
                         "--plan", str(other_field_plan_path))
    assert code == 0
    want = oracle.naive_dft(Field(OTHER_GENPOLY), vec)
    assert dst.read_text() == "".join(f"0x{v:03x}\n" for v in want)


def test_eval_rejects_length_other_than_plan(capsys, tmp_path, other_field_plan_path):
    src = tmp_path / "in.hex"
    src.write_text("0x000\n" * 23)  # fits the plan, so only --n is wrong
    code, _, err = run_cli(capsys, "eval", "--n", "2047", "--in", str(src),
                           "--out", str(tmp_path / "o.hex"),
                           "--plan", str(other_field_plan_path))
    assert code == 2
    assert "--n 2047" in err and "length 23" in err
    assert not (tmp_path / "o.hex").exists()


def test_verify_rejects_length_other_than_plan(capsys, other_field_plan_path):
    code, out, err = run_cli(capsys, "verify", "--n", "89", "--trials", "1",
                             "--plan", str(other_field_plan_path))
    assert code == 2
    assert "--n 89" in err and "length 23" in err
    assert "FAIL" not in out
