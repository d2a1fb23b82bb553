"""Command-line interface: exit codes, text output, structured output."""

import json

import pytest

from cnq import Circuit
from cnq.cli import main

from conftest import fixture_path

FIG2 = str(fixture_path("fig2"))
FIG5 = str(fixture_path("fig5"))
FIG6 = str(fixture_path("fig6"))
BROKEN = str(fixture_path("broken"))
INTERACTION = str(fixture_path("interaction"))
LONELY = str(fixture_path("lonely_v"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--format", "structured")
    return code, json.loads(out)


# -- exit codes -------------------------------------------------------------------


def test_verify_pass_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", FIG2)
    assert code == 0
    assert "spec t: PASS" in out
    assert out.strip().endswith("verdict: PASS")


def test_verify_fail_exits_one(capsys):
    code, out, _ = run(capsys, "verify", BROKEN)
    assert code == 1
    assert "first difference at a=0, b=1, c=1, t=0" in out


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "verify", "missing.cnq")[0] == 2
    assert run(capsys, "verify", LONELY)[0] == 2        # no spec lines
    code, _, err = run(capsys, "verify", "missing.cnq")
    assert "E_IO" in err


def test_undecodable_file_exits_two(capsys, tmp_path):
    binary = tmp_path / "bin.cnq"
    binary.write_bytes(b"\xff\xfe")
    code, _, err = run(capsys, "eval", str(binary))
    assert code == 2
    assert "E_IO" in err


@pytest.mark.parametrize("command", ["eval", "verify"])
def test_a_byte_order_mark_is_skipped(capsys, tmp_path, command):
    bom = tmp_path / "fig2.cnq"
    bom.write_bytes(b"\xef\xbb\xbf" + fixture_path("fig2").read_bytes())
    assert run(capsys, command, str(bom))[:2] == run(capsys, command, FIG2)[:2]


def test_parse_error_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.cnq"
    bad.write_text("line a\nfrobnicate a\n")
    code, _, err = run(capsys, "eval", str(bad))
    assert code == 2
    assert "line 2" in err and "E_SYNTAX" in err


@pytest.mark.parametrize("bad_side", [0, 1])
def test_equiv_names_the_file_that_failed_to_parse(capsys, tmp_path, bad_side):
    bad = tmp_path / "bad.cnq"
    bad.write_text("line a\nfrobnicate a\n")
    files = [FIG2, FIG2]
    files[bad_side] = str(bad)
    code, _, err = run(capsys, "equiv", *files)
    assert code == 2
    assert err.startswith(f"error: {bad}: line 2, col 1: E_SYNTAX")


def test_target_interaction_exits_three(capsys):
    code, _, err = run(capsys, "eval", INTERACTION)
    assert code == 3
    assert "E_TARGET_INTERACTION" in err


def test_guard_exits_four(capsys):
    code, _, err = run(capsys, "simulate", FIG2, "--guard-sim", "2")
    assert code == 4
    assert "E_TOO_MANY_LINES" in err


def test_fuzz_honours_the_simulation_guard(capsys):
    code, out, err = run(capsys, "fuzz", "--count", "3", "--guard-sim", "1")
    assert code == 4
    assert out == ""
    assert "E_TOO_MANY_LINES" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", FIG2, "--guard-sim", "3"),
        ("optimize", FIG2, "--guard-enum", "3"),
        ("equiv", FIG2, FIG2, "--guard-sim", "3"),
        ("check", FIG2, "--guard-enum", "3"),
        ("verify", FIG2, "--guard-sim", "3"),
        ("verify", FIG2, "--guard-enum", "3"),
    ],
)
def test_a_guard_goes_only_to_the_commands_it_bounds(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


def test_bad_subcommand_exits_two(capsys):
    # main traps argparse's SystemExit and forwards the code
    assert main(["frobnicate"]) == 2
    assert "invalid choice" in capsys.readouterr().err


# -- per-command text output ---------------------------------------------------------


def test_eval_text(capsys):
    code, out, _ = run(capsys, "eval", FIG2)
    assert code == 0
    assert "t [target] : t ^ a&b ^ b&c" in out
    assert "exponent 2*a*b + 2*b*c" in out


def test_eval_warns_on_residual(capsys):
    code, out, _ = run(capsys, "eval", LONELY)
    assert code == 0
    assert "no Boolean form" in out
    assert "warning:" in out


def test_simulate_single_input(capsys):
    code, out, _ = run(capsys, "simulate", FIG2, "--input", "1100")
    assert code == 0
    assert "input |1100>:" in out
    assert "|1101> +1.000000000000" in out


def test_simulate_enumerates_small_circuits(capsys):
    code, out, _ = run(capsys, "simulate", FIG2)
    assert code == 0
    assert out.count("input |") == 16
    assert "-0.000000000000" not in out


def test_simulate_bad_input_bits(capsys):
    code, _, err = run(capsys, "simulate", FIG2, "--input", "12")
    assert code == 2
    assert err == "error: --input wants 4 bits in line order a/b/c/t\n"


def test_a_witness_that_binds_no_line_reads_every_input(capsys, tmp_path):
    # the exponent of t is the constant 1, so no input makes it Boolean
    lone = tmp_path / "lone.cnq"
    lone.write_text("line t target\nv -> t\nspec t = t\n")
    code, out, _ = run(capsys, "verify", str(lone))
    assert code == 1
    assert "    non-Boolean at every input\n" in out
    code, doc = run_json(capsys, "verify", str(lone))
    assert code == 1
    assert doc["specs"][0]["witness"] == {}


def test_simulate_large_circuit_needs_input(capsys, tmp_path):
    big = tmp_path / "big.cnq"
    big.write_text("".join(f"line x{i}\n" for i in range(9)))
    code, _, err = run(capsys, "simulate", str(big))
    assert code == 2
    assert "--input" in err


def test_check_text(capsys):
    code, out, _ = run(capsys, "check", FIG6)
    assert code == 0
    assert out.strip() == "cross-check: PASS (16 inputs)"


def test_optimize_text_round_trips(capsys):
    code, out, _ = run(capsys, "optimize", FIG2)
    assert code == 0
    assert "controlled gates: 10 -> 9" in out
    body = out.split("\n\n", 1)[1]
    assert Circuit.parse(body).gate_count()["total_controlled"] == 9


def test_equiv_text(capsys):
    code, out, _ = run(capsys, "equiv", FIG2, FIG5)
    assert code == 0
    assert "line t: match" in out

    code, out, _ = run(capsys, "equiv", FIG2, FIG6)
    assert code == 1
    assert "E_LINE_MISMATCH" in out


def test_fuzz_subcommand(capsys):
    code, out, _ = run(capsys, "fuzz", "--seed", "3", "--count", "10")
    assert code == 0
    assert "10 random circuits" in out


@pytest.mark.parametrize("count", ["0", "-5"])
def test_fuzz_count_below_one_is_a_usage_error(capsys, count):
    code, out, err = run(capsys, "fuzz", "--count", count)
    assert code == 2
    assert out == ""
    assert "--count must be at least 1" in err


def test_equiv_compares_line_roles_before_evaluating(capsys):
    # evaluating interaction.cnq alone exits 3; the line mismatch is found first
    code, out, _ = run(capsys, "equiv", FIG2, INTERACTION)
    assert code == 1
    assert "E_LINE_MISMATCH" in out


# -- structured output ------------------------------------------------------------------


REQUIRED_KEYS = {"command", "verdict", "lines", "diagnostics", "gate_counts"}


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", FIG2),
        ("verify", FIG2),
        ("simulate", FIG2, "--input", "1100"),
        ("check", FIG2),
        ("optimize", FIG2),
        ("equiv", FIG2, FIG5),
    ],
)
def test_structured_documents_have_required_keys(capsys, argv):
    code, doc = run_json(capsys, *argv)
    assert code == 0
    assert REQUIRED_KEYS <= set(doc)
    assert doc["command"] == argv[0]


def test_structured_verify(capsys):
    _, doc = run_json(capsys, "verify", FIG2)
    assert doc["verdict"] == "PASS"
    assert doc["lines"]["t"]["exponent"] == "2*a*b + 2*b*c"
    assert doc["specs"][0]["verdict"] == "PASS"
    assert doc["gate_counts"]["total_controlled"] == 10


def test_structured_verify_fail_diagnostics(capsys):
    code, doc = run_json(capsys, "verify", BROKEN)
    assert code == 1
    assert doc["verdict"] == "FAIL"
    assert doc["specs"][0]["witness"] == {"a": 0, "b": 1, "c": 1, "t": 0}
    assert any(d["severity"] == "error" for d in doc["diagnostics"])


def test_structured_eval_residual_warning(capsys):
    _, doc = run_json(capsys, "eval", LONELY)
    assert doc["lines"]["t"]["status"] == "residual"
    assert doc["lines"]["t"]["value"] is None
    assert doc["diagnostics"][0]["severity"] == "warning"


def test_structured_simulate(capsys):
    _, doc = run_json(capsys, "simulate", FIG2, "--input", "1100")
    (state,) = doc["states"]
    assert state["input"] == "1100"
    # rounded to 12 decimals with the sign of zero dropped, as the text format prints
    assert state["amplitudes"]["1101"] == [1.0, 0.0]


def test_structured_check(capsys):
    _, doc = run_json(capsys, "check", FIG2)
    assert doc["cross_check"]["verdict"] == "PASS"
    assert doc["cross_check"]["inputs_checked"] == 16


def test_structured_optimize(capsys):
    _, doc = run_json(capsys, "optimize", FIG2)
    assert doc["gate_counts"]["before"]["total_controlled"] == 10
    assert doc["gate_counts"]["after"]["total_controlled"] == 9
    assert doc["changes"][0]["kind"] == "promote"
    assert Circuit.parse(doc["optimized"]).gate_count()["total_controlled"] == 9


def test_structured_equiv(capsys):
    _, doc = run_json(capsys, "equiv", FIG2, FIG5)
    assert doc["verdict"] == "PASS"
    assert doc["lines"]["t"]["status"] == "match"
    assert doc["gate_counts"]["left"]["total_controlled"] == 10
    assert doc["gate_counts"]["right"]["total_controlled"] == 7


def test_structured_equiv_line_mismatch(capsys):
    code, doc = run_json(capsys, "equiv", FIG2, FIG6)
    assert code == 1
    assert doc["verdict"] == "FAIL"
    assert doc["diagnostics"][0]["code"] == "E_LINE_MISMATCH"


class _ClosedPipe:
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize(("argv", "expected"), [
    (["optimize", FIG2], 0),
    (["verify", BROKEN], 1),
    (["eval", FIG2, "--format", "structured"], 0),
])
def test_closed_pipe_keeps_the_exit_code_and_prints_no_traceback(
    capsys, monkeypatch, argv, expected
):
    monkeypatch.setattr("sys.stdout", _ClosedPipe())
    assert main(argv) == expected
    assert capsys.readouterr().err == ""
