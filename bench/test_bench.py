"""Self-checks of the benchmark: its references, its contract, its determinism.

Run from the root of a checkout with ``python3 -m pytest bench``.  Every
workload runs at its ``--smoke`` size, which takes seconds.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# timed once per traced run; --smoke skips them
SCALING_ROWS = {m["name"] for m in SPEC["per_layer"] if "ladder-" in m["name"] or "lines-" in m["name"]}
# counts that must repeat exactly across two runs at one seed
EXACT = ("expr.to_arith.terms_out", "symbolic.peak_exponent_terms",
         "oracle.amplitudes_touched", "fuzz.accept_ratio")


def bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 7) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_runs_are_correct_and_repeat_their_counts(workload):
    e2e = [result(bench(workload, 0)) for _ in range(2)]
    layer = [result(bench(workload, 1)) for _ in range(2)]
    for res in e2e + layer:
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(e2e[0]["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(layer[0]["metrics"]) == {m["name"] for m in SPEC["per_layer"]} - SCALING_ROWS
    for res in e2e + layer:
        for name, metric in res["metrics"].items():
            assert metric["unit"] == _unit(name)
    gates = [r["metrics"]["controlled_gates_after"]["value"] for r in e2e]
    assert gates[0] == gates[1] > 0
    first, second = (r["metrics"] for r in layer)
    for name in first:
        if name.endswith(".calls") or name in EXACT:
            assert first[name]["value"] == second[name]["value"], name


def _unit(name: str) -> str:
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        if m["name"] == name:
            return m["unit"]
    raise KeyError(name)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_replay_matches_the_paper_fixtures():
    for name in ("fig1", "fig2", "fig3", "fig4", "fig4_pre", "fig5", "fig6"):
        prog = reference.Program((ROOT / "fixtures" / f"{name}.cnq").read_text())
        L = reference.root_of(prog.gates)
        for pt in prog.all_points():
            angles = reference.replay(prog.lines, prog.gates, pt, L)
            for line, expr in prog.specs.items():
                assert angles[line] == L * reference.eval_anf(expr, pt), (name, pt)


def test_replay_rejects_a_half_turned_control():
    prog = reference.Program((ROOT / "fixtures" / "interaction.cnq").read_text())
    with pytest.raises(reference.NonBooleanControl):
        reference.replay(prog.lines, prog.gates, {"a": 1, "t": 0, "u": 0}, 2)


def test_generated_specs_agree_with_replay():
    shape = gen.CascadeShape(controls=6, targets=3, gates=40, collapsing=2)
    for seed in range(20):
        rng = random.Random(seed)
        for case in (gen.cascade(rng, shape), gen.ladder(rng, 6)):
            prog = reference.Program(case.text())
            assert prog.gates == case.gates and prog.lines == case.lines
            L = reference.root_of(case.gates)
            for pt in prog.all_points():
                angles = reference.replay(case.lines, case.gates, pt, L)
                for t in case.specs:
                    assert angles[t] == L * case.spec_value(t, pt)
                    assert case.spec_value(t, pt) == reference.eval_anf(prog.specs[t], pt)


def test_text_evaluators():
    pt = {"a": 1, "b": 0, "c": 1}
    assert reference.eval_anf("a ^ b&(a^c) ^ 1", pt) == 0
    assert reference.eval_anf("0", pt) == 0
    assert reference.eval_poly("2*a*c - b + 3", pt) == 5
    assert reference.eval_poly("-a - 6*a*c", pt) == -7
