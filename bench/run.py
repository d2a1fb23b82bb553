#!/usr/bin/env python3
"""The cnq benchmark: one command, four workloads, checked answers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of a checkout; it imports ``cnq`` from ``src/`` there
and refuses to run (exit 2, no result) when ``src/cnq`` or ``fixtures/``
is missing.  The load is a closed loop with one caller: each job starts
after the previous one has finished and its output has been checked.  A
job is one circuit, given as ``.cnq`` text, taken through the workload's
whole pipeline; every output is compared with an answer that does not come
from the package (see ``gen.py`` and ``reference.py``).

``--trace 0`` prints the end-to-end metrics, measured without tracing.
``--trace 1`` runs each job of a fixed, seed-determined list untraced and
traced through ``spans.py``, and prints the per-layer metrics, the
tracing overhead and the scaling rows.  The job list, not ``--seconds``,
sets its length, so that its counts repeat exactly.  ``--smoke`` shrinks
every workload to a size that finishes in seconds and skips the scaling
rows.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"          # pin BLAS before anything imports numpy

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from time import monotonic, perf_counter  # noqa: E402

import gen  # noqa: E402
import reference  # noqa: E402
from spans import MARKER, Tracer, merge_summaries  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"

SETUP_REPEATS = 9          # setup_s is the median of this many set-ups
SAMPLE_POINTS = 16         # replayed inputs per generated circuit
MIN_BEYOND_TAIL = 10       # job_tail_ms keeps at least this many jobs above it


class CheckoutError(Exception):
    """The benchmark is not running from the root of a cnq checkout."""


def import_cnq():
    """Import ``cnq`` afresh from the checkout's ``src``; return the package."""
    if not (SRC / "cnq" / "__init__.py").is_file():
        raise CheckoutError(f"no package at {SRC / 'cnq'}")
    for name in [m for m in sys.modules if m == "cnq" or m.startswith("cnq.")]:
        del sys.modules[name]
    cnq = importlib.import_module("cnq")
    if Path(cnq.__file__).resolve().parent != SRC / "cnq":
        raise CheckoutError(f"cnq imported from {cnq.__file__}, not from {SRC}")
    return cnq


@dataclass
class Job:
    index: int
    key: object                     # identity of the input
    data: object
    counted: bool = False           # part of controlled_gates_after


# -- workloads ---------------------------------------------------------------------


class Workload:
    """A job generator, the job's pipeline and the known-answer check."""

    name = ""
    tail_pct = 90.0                 # percentile behind job_tail_ms
    counted_jobs = 0                # jobs summed into controlled_gates_after
    trace_jobs = 0                  # jobs the traced run times, untraced and traced
    tracing = False                 # only read by cli_fixtures, whose children trace

    def __init__(self, seed: int, smoke: bool):
        self.seed, self.smoke = seed, smoke
        self.cnq = None

    def rng(self, *parts) -> random.Random:
        return random.Random("/".join(map(str, (self.name, self.seed) + parts)))

    def setup(self) -> None:
        """Import the package, make the counted inputs and run one job."""
        self.cnq = import_cnq()
        self.counted = [self.make(j) for j in range(self.counted_jobs)]
        for job in self.counted:
            job.counted = True
        try:
            self.run(self.job(0))
        except Exception:           # job 0 runs again in the loop, which records it
            pass

    def job(self, j: int) -> Job:
        return self.counted[j] if j < len(self.counted) else self.make(j)

    def make(self, j: int) -> Job:
        raise NotImplementedError

    def run(self, job: Job):
        raise NotImplementedError

    def check(self, job: Job, out) -> str | None:
        """None when ``out`` matches the known answer, else what differs."""
        raise NotImplementedError

    def gates_after(self, job: Job, out) -> int:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class GeneratedWorkload(Workload):
    """Workloads whose jobs are seeded circuits from ``gen.py``."""

    def case(self, j: int, rng: random.Random) -> gen.Case:
        raise NotImplementedError

    def make(self, j: int) -> Job:
        case = self.case(j, self.rng(j))
        return Job(j, j, (case, case.text()))

    def check_case(self, job: Job, circuit, report) -> str | None:
        """Replay the construction at sampled inputs against the package."""
        case, _ = job.data
        if list(circuit.line_names) != case.lines:
            return f"parsed lines {circuit.line_names} differ from {case.lines}"
        points = reference.sample_points(case.lines, SAMPLE_POINTS, self.rng(job.index, "points"))
        return reference.compare_report(report, case.lines, case.gates, points, reference.root_of(case.gates))


class XorCascades(GeneratedWorkload):
    name = "xor_cascades"
    # ladder sizes cycle with even j: the n = 10 share puts job_p50_ms inside
    # one tight cluster and n = 12 sets job_tail_ms
    ladders = (10, 10, 10, 12)
    shapes = (
        gen.CascadeShape(controls=14, targets=3, gates=60, collapsing=2, chains=(5, 10)),
        gen.CascadeShape(controls=15, targets=3, gates=90, collapsing=2, chains=(5, 10)),
        gen.CascadeShape(controls=16, targets=3, gates=120, collapsing=2, chains=(5, 10)),
        gen.CascadeShape(controls=17, targets=3, gates=150, collapsing=2, chains=(5, 10)),
    )
    tail_pct = 90.0
    counted_jobs = 64
    trace_jobs = 24

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        if smoke:
            self.ladders = (4, 5)
            self.shapes = (gen.CascadeShape(controls=6, targets=2, gates=20, collapsing=1),)
            self.counted_jobs = self.trace_jobs = 4

    def case(self, j, rng):
        if j % 2 == 0:
            return gen.ladder(rng, self.ladders[j // 2 % len(self.ladders)])
        return gen.cascade(rng, self.shapes[j // 2 % len(self.shapes)])

    def run(self, job):
        cnq = self.cnq
        circuit = cnq.Circuit.parse(job.data[1])
        before = cnq.check_spec(circuit)
        merged = cnq.merge_pass(circuit)
        after = cnq.check_spec(merged.circuit)
        return circuit, before, merged, after

    def check(self, job, out):
        circuit, before, merged, after = out
        case, _ = job.data
        for verdict in before + after:
            if not verdict.passed:
                return f"spec {verdict.line} FAIL, construction says PASS"
        if {v.line for v in before} != set(case.specs):
            return "check_spec did not report every spec line"
        if job.counted:             # every line's exponent, not only the verdicts
            err = self.check_case(job, circuit, self.cnq.evaluate(circuit))
            if err:
                return err
        return _check_merge(case.lines, case.gates, merged, self.rng(job.index, "merge"))

    def gates_after(self, job, out):
        return out[2].circuit.gate_count()["total_controlled"]


class OracleWide(GeneratedWorkload):
    name = "oracle_wide"
    # (lines, gates), cycled: fixed sizes keep the cost of each job steady
    sizes = ((7, 36), (8, 28), (9, 20))
    tail_pct = 80.0
    counted_jobs = 30
    trace_jobs = 12

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        if smoke:
            self.sizes = ((4, 8), (5, 12))
            self.counted_jobs = self.trace_jobs = 4

    def case(self, j, rng):
        lines, gates = self.sizes[j % len(self.sizes)]
        shape = gen.CascadeShape(controls=lines - 2, targets=2, gates=gates, collapsing=1, chains=(1, 3))
        return gen.cascade(rng, shape)

    def run(self, job):
        cnq = self.cnq
        circuit = cnq.Circuit.parse(job.data[1])
        report = cnq.evaluate(circuit)
        return circuit, report, cnq.cross_check(circuit, report)

    def check(self, job, out):
        circuit, report, result = out
        if not result.passed:
            return f"cross_check FAIL at {result.witness}: {result.detail}"
        if result.inputs_checked != 1 << len(circuit.lines):
            return f"cross_check checked {result.inputs_checked} inputs"
        return self.check_case(job, circuit, report)

    def gates_after(self, job, out):
        return self.cnq.merge_pass(out[0]).circuit.gate_count()["total_controlled"]


class FuzzSmall(Workload):
    name = "fuzz_small"
    tail_pct = 99.0
    counted_jobs = 2000
    trace_jobs = 600

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        if smoke:
            self.counted_jobs = self.trace_jobs = 20

    def make(self, j):
        return Job(j, j, f"{self.name}/{self.seed}/{j}")

    def run(self, job):
        cnq = self.cnq
        circuit = cnq.random_valid_circuit(random.Random(job.data))
        report = cnq.evaluate(circuit)
        result = cnq.cross_check(circuit, report)
        return circuit, report, result, cnq.merge_pass(circuit)

    def check(self, job, out):
        circuit, report, result, merged = out
        if not result.passed:
            return f"cross_check FAIL at {result.witness}: {result.detail}"
        if result.inputs_checked != 1 << len(circuit.lines):
            return f"cross_check checked {result.inputs_checked} inputs"
        lines, gates = list(circuit.line_names), reference.gates_of(circuit)
        points = reference.sample_points(lines, 1 << len(lines), random.Random(0))
        err = reference.compare_report(report, lines, gates, points, reference.root_of(gates))
        return err or _check_merge(lines, gates, merged, random.Random(0))

    def gates_after(self, job, out):
        return out[3].circuit.gate_count()["total_controlled"]


def _check_merge(lines, gates, merged, rng) -> str | None:
    return _check_rewrite(lines, gates, reference.gates_of(merged.circuit),
                          merged.circuit.gate_count()["total_controlled"],
                          reference.sample_points(lines, SAMPLE_POINTS, rng))


@dataclass
class CliCase:
    argv: list[str]
    programs: list[reference.Program]
    expect_rc: int


class CliFixtures(Workload):
    name = "cli_fixtures"
    tail_pct = 85.0
    trace_jobs = 24
    # merge_pass results the paper states: fig2 -> fig3 (9 gates), fig4_pre -> fig4 (8)
    known_after = {"fig2": 9, "fig4_pre": 8}

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.child_summaries: list[dict] = []
        if smoke:
            self.trace_jobs = 4

    def setup(self):
        progs = {p.stem: reference.Program(p.read_text()) for p in sorted(FIXTURES.glob("*.cnq"))}
        if not progs:
            raise CheckoutError(f"no fixtures in {FIXTURES}")
        cases = []
        for fmt in ("text", "structured"):
            for name, prog in progs.items():
                for cmd in ("eval", "verify", "check", "optimize"):
                    cases.append(CliCase(
                        [cmd, f"fixtures/{name}.cnq", "--format", fmt], [prog],
                        _expected_rc(cmd, [prog]),
                    ))
            for left, right in (("fig2", "fig3"), ("fig2", "fig5"), ("fig4_pre", "fig4"),
                                ("fig1", "fig2"), ("fig2", "broken"), ("fig6", "fig2"),
                                ("fig2", "lonely_v"), ("fig5", "fig6")):
                pair = [progs[left], progs[right]]
                cases.append(CliCase(
                    ["equiv", f"fixtures/{left}.cnq", f"fixtures/{right}.cnq", "--format", fmt],
                    pair, _expected_rc("equiv", pair),
                ))
        self.rng().shuffle(cases)
        if self.smoke:
            cases = [c for c in cases if _counted(c)][:2] + cases[:4]
        self.cases = cases
        self.counted = [self.job(i) for i, c in enumerate(cases) if _counted(c)]
        self.run(self.job(0))

    def job(self, j):
        i = j % len(self.cases)
        return Job(j, i, self.cases[i], _counted(self.cases[i]))

    def run(self, job):
        env = dict(os.environ, CNQ_BENCH_TRACE="1" if self.tracing else "0")
        env["CNQ_BENCH_SPAWN"] = repr(monotonic())
        proc = subprocess.run(
            [sys.executable, str(BENCH / "cli_child.py"), *job.data.argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        stderr = proc.stderr
        if self.tracing:
            head, sep, tail = stderr.rpartition(MARKER + " ")
            if sep:
                self.child_summaries.append(json.loads(tail))
                stderr = head
        return proc.returncode, proc.stdout, stderr

    def check(self, job, out):
        rc, stdout, stderr = out
        case = job.data
        if rc != case.expect_rc:
            return f"{' '.join(case.argv)}: exit {rc}, expected {case.expect_rc}: {stderr.strip()[-300:]}"
        if rc in (2, 3):
            return None if stderr.startswith("error:") else f"exit {rc} without an error line"
        cmd, fmt = case.argv[0], case.argv[-1]
        return _check_cli_output(cmd, fmt, case.programs, rc, stdout, self.known_after,
                                 Path(case.argv[1]).stem)

    def gates_after(self, job, out):
        return json.loads(out[1])["gate_counts"]["after"]["total_controlled"]

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def _counted(case: CliCase) -> bool:
    """Structured ``optimize`` runs that succeed make controlled_gates_after."""
    return case.argv[0] == "optimize" and case.argv[-1] == "structured" and case.expect_rc == 0


def _expected_rc(cmd: str, progs: list[reference.Program]) -> int:
    """Exit code the CLI must give, worked out by replaying the fixtures."""
    if cmd == "verify" and not progs[0].specs:
        return 2
    if cmd == "equiv" and progs[0].roles != progs[1].roles:
        return 1
    L = max(reference.root_of(p.gates) for p in progs)
    points = progs[0].all_points()
    try:
        finals = [[reference.replay(progs[0].lines, p.gates, pt, L) for pt in points] for p in progs]
    except reference.NonBooleanControl:
        return 3
    if cmd == "verify":
        held = all(angles[line] == L * reference.eval_anf(expr, pt)
                   for pt, angles in zip(points, finals[0]) for line, expr in progs[0].specs.items())
        return 0 if held else 1
    if cmd == "equiv":
        return 0 if finals[0] == finals[1] else 1
    return 0


def _check_cli_output(cmd, fmt, progs, rc, stdout, known_after, stem) -> str | None:
    prog = progs[0]
    if fmt == "structured":
        doc = json.loads(stdout)
        if doc["command"] != cmd:
            return f"structured output names command {doc['command']!r}"
        if cmd in ("verify", "check", "equiv") and doc["verdict"] != ("PASS" if rc == 0 else "FAIL"):
            return f"verdict {doc['verdict']} with exit {rc}"
        if cmd == "eval":
            return _check_eval_doc(prog, doc["lines"])
        if cmd == "check" and doc["cross_check"]["inputs_checked"] != 1 << len(prog.lines):
            return f"cross_check covered {doc['cross_check']['inputs_checked']} inputs"
        if cmd == "optimize":
            after = doc["gate_counts"]["after"]["total_controlled"]
            return _check_rewrite(prog.lines, prog.gates, reference.Program(doc["optimized"]).gates,
                                  after, prog.all_points(), known_after.get(stem))
        return None
    last = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    if cmd in ("verify", "equiv") and not last.startswith(f"verdict: {'PASS' if rc == 0 else 'FAIL'}"):
        return f"last line {last!r} with exit {rc}"
    if cmd == "check" and stdout.strip() != f"cross-check: PASS ({1 << len(prog.lines)} inputs)":
        return f"unexpected check output {stdout.strip()!r}"
    if cmd == "eval":
        shown = {ln.split()[0] for ln in stdout.splitlines() if ln and not ln[0].isspace()}
        missing = set(prog.lines) - shown
        return f"eval output lacks lines {sorted(missing)}" if missing else None
    if cmd == "optimize":
        head, _, body = stdout.partition("\n\n")
        after = int(head.splitlines()[0].rsplit("-> ", 1)[1])
        return _check_rewrite(prog.lines, prog.gates, reference.Program(body).gates,
                              after, prog.all_points(), known_after.get(stem))
    return None


def _check_eval_doc(prog, lines_doc) -> str | None:
    L = reference.root_of(prog.gates)
    for pt in prog.all_points():
        angles = reference.replay(prog.lines, prog.gates, pt, L)
        for name in prog.lines:
            entry = lines_doc[name]
            if entry["value"] is not None:
                got = L * reference.eval_anf(entry["value"], pt)
            else:
                got = reference.angle_of_state(
                    entry["k_root"], reference.eval_poly(entry["exponent"], pt),
                    reference.eval_anf(entry["base"], pt), L,
                )
            if got != angles[name]:
                return f"eval line {name}: angle {got}, replay {angles[name]}"
    return None


def _check_rewrite(lines, before, after, reported, points, known=None) -> str | None:
    """A ``merge_pass`` result: its count, no growth, same action under replay."""
    controlled = sum(1 for g in after if g[2])
    if controlled != reported:
        return f"reported {reported} controlled gates, the circuit has {controlled}"
    if known is not None and controlled != known:
        return f"merge_pass left {controlled} controlled gates, the paper's form has {known}"
    if controlled > sum(1 for g in before if g[2]):
        return "merge_pass grew the circuit"
    err = reference.compare_gate_lists(lines, before, after, points)
    return err and f"merge_pass changed the circuit: {err}"


WORKLOADS = {w.name: w for w in (XorCascades, OracleWide, FuzzSmall, CliFixtures)}


# -- measuring ---------------------------------------------------------------------------


class Tally:
    """Attempted and failed jobs, with the first few failures kept for the log."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def record(self, job: Job, err: str | None) -> None:
        self.attempted += 1
        if err:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"job {job.index}: {err}")


def run_checked(wl: Workload, job: Job, tally: Tally, gates: dict, tracer: Tracer | None = None) -> float:
    """Run one job, check it, record it; return its duration in seconds."""
    t0 = perf_counter()
    try:
        out = tracer.job(wl.run, job) if tracer else wl.run(job)
    except Exception:               # a job that raises is a failed job, not a crash
        dt = perf_counter() - t0
        tally.record(job, traceback.format_exc(limit=3))
        return dt
    dt = perf_counter() - t0
    if tracer:
        tracer.active = False
    try:
        err = wl.check(job, out)
        if err is None and job.counted and job.key not in gates:
            gates[job.key] = wl.gates_after(job, out)
    except Exception:
        err = "checking the output raised:\n" + traceback.format_exc(limit=3)
    finally:
        if tracer:
            tracer.active = True
    tally.record(job, err)
    return dt


def set_up(wl: Workload) -> float:
    """Median wall time of repeated set-ups (import, inputs, warm-up job)."""
    times = []
    for _ in range(2 if wl.smoke else SETUP_REPEATS):
        t0 = perf_counter()
        wl.setup()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def tail(durations: list[float], pct: float) -> tuple[float, float]:
    """The ``pct`` percentile (nearest rank), lowered until 10 jobs lie above it.

    With 10 jobs or fewer no percentile has 10 above it; the maximum is used.
    """
    xs = sorted(durations)
    n = len(xs)
    rank = min(max(1, -(-int(pct * n) // 100)), n - MIN_BEYOND_TAIL) if n > MIN_BEYOND_TAIL else n
    return xs[rank - 1], 100.0 * rank / n


def end_to_end(wl: Workload, seconds: float, tally: Tally, log: list[str]) -> dict:
    setup_s = set_up(wl)
    durations: list[float] = []
    gates: dict = {}
    busy, j = 0.0, 0
    while busy < seconds:
        dt = run_checked(wl, wl.job(j), tally, gates)
        durations.append(dt)
        busy += dt
        j += 1
    for job in wl.counted:          # counted inputs the loop did not reach, untimed
        if job.key not in gates:
            run_checked(wl, job, tally, gates)
    tail_ms, pct = tail(durations, wl.tail_pct)
    log.append(f"jobs {len(durations)} in {busy:.2f} s of job time; "
               f"job_tail_ms is p{pct:.1f} over {len(durations)} jobs")
    return {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (len(durations) / busy, "jobs/s"),
        "job_p50_ms": (1000 * statistics.median(durations), "ms"),
        "job_tail_ms": (1000 * tail_ms, "ms"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
        "controlled_gates_after": (sum(gates.values()), "gates"),
    }


def scaling_rows(cnq, tally: Tally) -> dict:
    """One timing each of ROADMAP's baseline points, untraced."""
    rows = {}
    for n in (10, 12, 14):
        circuit = cnq.Circuit.parse(gen.vchain(n).text())
        t0 = perf_counter()
        cnq.evaluate(circuit)
        rows[f"symbolic.evaluate.ladder-n{n}_ms"] = (1000 * (perf_counter() - t0), "ms")
    for lines in (8, 10, 12):
        circuit = cnq.Circuit.parse(gen.vchain(lines - 1, gates=40).text())
        report = cnq.evaluate(circuit)
        t0 = perf_counter()
        result = cnq.cross_check(circuit, report)
        rows[f"oracle.cross_check.lines-{lines}_ms"] = (1000 * (perf_counter() - t0), "ms")
        tally.record(Job(-lines, lines, None), None if result.passed else
                     f"{lines}-line scaling circuit failed cross_check: {result.detail}")
    return rows


def traced(wl: Workload, tally: Tally, log: list[str]) -> dict:
    wl.setup()
    rows = {} if wl.smoke else scaling_rows(wl.cnq or import_cnq(), tally)
    jobs = [wl.job(j) for j in range(wl.trace_jobs)]
    gates: dict = {}
    tracer = Tracer()
    if not isinstance(wl, CliFixtures):     # CLI children install their own wrappers
        tracer.install()
    plain = with_spans = 0.0
    try:
        # each job runs untraced and traced back to back, in alternating
        # order, so the overhead ratio does not follow the host's drift
        for i, job in enumerate(jobs):
            for traced_now in ((False, True) if i % 2 == 0 else (True, False)):
                tracer.active = wl.tracing = traced_now
                if traced_now:
                    with_spans += run_checked(wl, job, tally, gates, tracer)
                else:
                    plain += run_checked(wl, job, tally, gates)
    finally:
        tracer.uninstall()
    summary = merge_summaries([tracer.summary()] + getattr(wl, "child_summaries", []))
    n = len(jobs)
    log.append(f"traced {n} jobs: {plain:.2f} s untraced, {with_spans:.2f} s traced "
               f"(untraced runs pass through inactive wrappers)")
    metrics = layer_metrics(summary, n, getattr(wl, "child_summaries", []))
    metrics.update(rows)
    metrics["trace.jobs_per_s_untraced"] = (n / plain, "jobs/s")
    metrics["trace.jobs_per_s_traced"] = (n / with_spans, "jobs/s")
    metrics["trace.overhead_ratio"] = (with_spans / plain, "ratio")
    return metrics


def layer_metrics(s: dict, jobs: int, children: list[dict]) -> dict:
    calls, counters = s["calls"], s["counters"]

    def c(name):
        return (calls.get(name, 0), "count")

    def self_ms(name):
        return (1000 * s["self_s"].get(name, 0.0) / jobs, "ms")

    def ratio(num, den):
        return (num / den if den else 0.0, "ratio")

    def child_ms(key):
        return (1000 * sum(ch[key] for ch in children) / len(children) if children else 0.0, "ms")

    return {
        "circuit.parse.calls": c("circuit.parse"),
        "circuit.parse.self_ms": self_ms("circuit.parse"),
        "expr.to_arith.calls": c("expr.to_arith"),
        "expr.to_arith.self_ms": self_ms("expr.to_arith"),
        "expr.to_arith.terms_out": (counters.get("expr.to_arith.terms_out", 0), "terms"),
        "expr.terms_kept_ratio": ratio(counters.get("expr.terms_kept", 0),
                                       counters.get("expr.terms_folded", 0)),
        "symbolic.evaluate.calls": c("symbolic.evaluate"),
        "symbolic.evaluate.self_ms": self_ms("symbolic.evaluate"),
        "symbolic.evaluate.per_job": (calls.get("symbolic.evaluate", 0) / jobs, "calls/job"),
        "symbolic.absorb.calls": c("symbolic.absorb"),
        "symbolic.absorb.self_ms": self_ms("symbolic.absorb"),
        "symbolic.collapse.calls": c("symbolic.collapse"),
        "symbolic.collapse.hit_ratio": ratio(counters.get("symbolic.collapse.hits", 0),
                                             calls.get("symbolic.collapse", 0)),
        "symbolic.peak_exponent_terms": (counters.get("symbolic.peak_exponent_terms", 0), "terms"),
        "symbolic.check_spec.self_ms": self_ms("symbolic.check_spec"),
        "symbolic.equivalent.self_ms": self_ms("symbolic.equivalent"),
        "optimize.merge_pass.calls": c("optimize.merge_pass"),
        "optimize.merge_pass.self_ms": self_ms("optimize.merge_pass"),
        "optimize.proof_ms": (1000 * s["proof_s"] / jobs, "ms"),
        "optimize.changes": (counters.get("optimize.changes", 0), "count"),
        "oracle.cross_check.calls": c("oracle.cross_check"),
        "oracle.cross_check.self_ms": self_ms("oracle.cross_check"),
        "oracle.simulate.calls": c("oracle.simulate"),
        "oracle.simulate.self_ms": self_ms("oracle.simulate"),
        "oracle.apply_gate.calls": c("oracle.apply_gate"),
        "oracle.apply_gate.self_ms": self_ms("oracle.apply_gate"),
        "oracle.amplitudes_touched": (counters.get("oracle.amplitudes_touched", 0), "count"),
        "oracle.inputs_checked": (counters.get("oracle.inputs_checked", 0), "count"),
        "fuzz.random_valid_circuit.calls": c("fuzz.random_valid_circuit"),
        "fuzz.random_valid_circuit.self_ms": self_ms("fuzz.random_valid_circuit"),
        "fuzz.accept_ratio": ratio(calls.get("fuzz.random_valid_circuit", 0),
                                   counters.get("fuzz.draws", 0)),
        "cli.startup_ms": child_ms("startup_s"),
        "cli.import_ms": child_ms("import_s"),
        "cli.main.self_ms": self_ms("cli.main"),
    }


def environment() -> str:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return (f"python {platform.python_version()}, numpy {numpy_version}, "
            f"nproc {os.cpu_count()}, BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes for self-tests")
    args = ap.parse_args(argv)

    if not FIXTURES.is_dir():
        print(f"error: no fixtures directory at {FIXTURES}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload](args.seed, args.smoke)
    tally, log = Tally(), [f"workload {wl.name}, seed {args.seed}, trace {args.trace}", environment()]
    try:
        if args.trace:
            metrics = traced(wl, tally, log)
        else:
            metrics = end_to_end(wl, args.seconds, tally, log)
    except (CheckoutError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for err in tally.errors:
        log.append("FAILED " + err)
    log.append(f"error_rate {tally.failed / max(1, tally.attempted):.4f} "
               f"({tally.failed} of {tally.attempted} jobs)")
    for name, (value, unit) in metrics.items():
        log.append(f"{name:40s} {value:14.4f} {unit}")
    print("\n".join(log))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
