"""Per-layer tracing from outside the package.

``Tracer.install`` wraps the package's public functions with timing
wrappers.  A function bound elsewhere with ``from ... import`` is replaced
in every ``cnq`` module that holds it, so calls made inside the package
are traced too.  Each call becomes a span (name, parent, start, end) kept
in memory in flat arrays; a layer's self time is its span's duration minus
the time its child spans cover.  Counting done by a wrapper after its
call returns is timed as well and removed from the parent's self time.

Wrapped functions that a later version of the package no longer has are
skipped: their metrics then read 0.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

# (module, attribute, span name); attribute "Class.method" patches a class.
SPANS = (
    ("cnq.circuit", "Circuit.parse", "circuit.parse"),
    ("cnq.expr", "Anf.to_arith", "expr.to_arith"),
    ("cnq.symbolic", "TargetState.absorb", "symbolic.absorb"),
    ("cnq.symbolic", "TargetState.collapse", "symbolic.collapse"),
    ("cnq.symbolic", "evaluate", "symbolic.evaluate"),
    ("cnq.symbolic", "check_spec", "symbolic.check_spec"),
    ("cnq.symbolic", "equivalent", "symbolic.equivalent"),
    ("cnq.optimize", "merge_pass", "optimize.merge_pass"),
    ("cnq.oracle", "cross_check", "oracle.cross_check"),
    ("cnq.oracle", "simulate", "oracle.simulate"),
    ("cnq.oracle", "apply_gate", "oracle.apply_gate"),
    ("cnq.fuzz", "random_valid_circuit", "fuzz.random_valid_circuit"),
    ("cnq.cli", "main", "cli.main"),
)
JOB = "job"
MARKER = "@@cnq-bench-trace@@"      # prefixes a child's summary line on stderr


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [JOB]
        self.ids: dict[str, int] = {JOB: 0}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.pad = array("d")            # counting time spent after the span ended
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.patched: list[tuple[object, str, object]] = []
        self.active = True
        self._last_arith: tuple[int, object] | None = None

    # -- spans -------------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.name_of)
        self.name_of.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.pad.append(0.0)
        self.stack.append(idx)
        return idx

    def job(self, fn, *args):
        """Call ``fn`` inside a root span; every span of the job descends from it."""
        idx = self._open(0)
        self.start[idx] = perf_counter()
        try:
            return fn(*args)
        finally:
            self.end[idx] = perf_counter()
            self.stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        if value > self.counters.get(name, 0):
            self.counters[name] = value

    def _wrapper(self, name: str, fn, after):
        tracer = self
        name_id = len(self.names)
        self.names.append(name)
        self.ids[name] = name_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(name_id)
            tracer.start[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = t1 = perf_counter()
                tracer.stack.pop()
            if after is not None:
                after(idx, args, kwargs, result)
                tracer.pad[idx] = perf_counter() - t1
            return result

        return traced

    # -- installing ----------------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in ``SPANS`` that the loaded package has."""
        hooks = {
            "expr.to_arith": self._after_to_arith,
            "symbolic.absorb": self._after_absorb,
            "symbolic.collapse": self._after_collapse,
            "optimize.merge_pass": self._after_merge,
            "oracle.cross_check": self._after_cross_check,
            "oracle.apply_gate": self._after_apply_gate,
        }
        for mod_name, attr, name in SPANS:
            mod = sys.modules.get(mod_name)
            if mod is None:
                continue
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            if owner is None or fn_name not in vars(owner):
                continue
            raw = vars(owner)[fn_name]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrapper(name, raw.__func__, hooks.get(name)))
                self._patch(owner, fn_name, wrapped)
                continue
            wrapped = self._wrapper(name, raw, hooks.get(name))
            if owner_name:
                self._patch(owner, fn_name, wrapped)
            else:
                for other in _package_modules():
                    for key, value in list(vars(other).items()):
                        if value is raw:
                            self._patch(other, key, wrapped)
        fuzz = sys.modules.get("cnq.fuzz")
        if fuzz is not None and hasattr(fuzz, "random_circuit"):
            raw = fuzz.random_circuit

            def draw(*args, **kwargs):
                if self.active:
                    self.count("fuzz.draws")
                return raw(*args, **kwargs)

            self._patch(fuzz, "random_circuit", draw)

    def _patch(self, owner, key, value) -> None:
        self.patched.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self.patched):
            setattr(owner, key, value)
        self.patched.clear()

    # -- counting hooks (run after the span has ended) -------------------------------

    def _after_to_arith(self, idx, args, kwargs, result) -> None:
        self.count("expr.to_arith.terms_out", len(result.terms))
        self._last_arith = (self.parent[idx], result)

    def _after_absorb(self, idx, args, kwargs, result) -> None:
        self.peak("symbolic.peak_exponent_terms", len(result.exponent.terms))
        last, self._last_arith = self._last_arith, None
        if last is None or last[0] != idx:
            return
        arith = last[1]
        state, k, p = args[0], args[1], args[2]
        k2 = max(state.k_root, k)
        scale, m = p * (k2 // k), 2 * k2
        self.count("expr.terms_folded", len(arith.terms))
        self.count("expr.terms_kept", sum(1 for c in arith.terms.values() if scale * c % m))

    def _after_collapse(self, idx, args, kwargs, result) -> None:
        if result is not None:
            self.count("symbolic.collapse.hits")

    def _after_merge(self, idx, args, kwargs, result) -> None:
        self.count("optimize.changes", len(result.changes))

    def _after_cross_check(self, idx, args, kwargs, result) -> None:
        self.count("oracle.inputs_checked", result.inputs_checked)

    def _after_apply_gate(self, idx, args, kwargs, result) -> None:
        self.count("oracle.amplitudes_touched", 1 << len(args[0].lines))

    # -- results -----------------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name call counts, self and total seconds, plus the counters.

        ``proof_s`` is the total time of ``equivalent`` spans that run under
        a ``merge_pass`` span.  Summaries of several processes add up.
        """
        n = len(self.name_of)
        child = [0.0] * n
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                child[par] += self.end[i] - self.start[i] + self.pad[i]
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        merge_id, equiv_id = self.ids.get("optimize.merge_pass"), self.ids.get("symbolic.equivalent")
        proof = 0.0
        for i in range(n):
            name = self.names[self.name_of[i]]
            dur = self.end[i] - self.start[i]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - child[i]
            total_s[name] = total_s.get(name, 0.0) + dur
            if self.name_of[i] == equiv_id and merge_id is not None:
                par = self.parent[i]
                while par >= 0 and self.name_of[par] != merge_id:
                    par = self.parent[par]
                if par >= 0:
                    proof += dur
        return {
            "calls": calls,
            "self_s": self_s,
            "total_s": total_s,
            "proof_s": proof,
            "counters": dict(self.counters),
        }


def merge_summaries(parts: list[dict]) -> dict:
    out: dict = {"calls": {}, "self_s": {}, "total_s": {}, "proof_s": 0.0, "counters": {}}
    for part in parts:
        for key in ("calls", "self_s", "total_s"):
            for name, value in part[key].items():
                out[key][name] = out[key].get(name, 0) + value
        out["proof_s"] += part["proof_s"]
        for name, value in part["counters"].items():
            if name == "symbolic.peak_exponent_terms":
                out["counters"][name] = max(out["counters"].get(name, 0), value)
            else:
                out["counters"][name] = out["counters"].get(name, 0) + value
    return out


def _package_modules():
    return [m for name, m in list(sys.modules.items()) if name == "cnq" or name.startswith("cnq.")]
