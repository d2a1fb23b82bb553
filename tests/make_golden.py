"""Write ``tests/golden/cli.json``: argv -> exit code, stdout and stderr of ``cnq``.

Run from the root of a checkout, against the code whose output should be
pinned::

    PYTHONPATH=src python tests/make_golden.py

``tests/test_cli_golden.py`` replays every entry through ``cnq.cli.main``.
``simulate`` is left out because its float amplitudes and the sign of zero
can vary across numpy builds, and ``--help`` because argparse wraps it to
the terminal width; ``tests/test_cli.py`` covers both.
"""

import contextlib
import io
import json
import os
from pathlib import Path

from cnq.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli.json"
FORMATS = ((), ("--format", "structured"))
# the equiv pairs of the benchmark's cli_fixtures workload
EQUIV_PAIRS = (("fig2", "fig3"), ("fig2", "fig5"), ("fig4_pre", "fig4"), ("fig1", "fig2"),
               ("fig2", "broken"), ("fig6", "fig2"), ("fig2", "lonely_v"), ("fig5", "fig6"))
ERRORS = (
    ("eval", "missing.cnq"),                                  # E_IO
    ("eval", "tests/golden/bad.cnq"),                         # E_SYNTAX
    ("equiv", "fixtures/fig2.cnq", "tests/golden/bad.cnq"),   # E_SYNTAX in the right file
    ("fuzz", "--count", "0"),
    ("check", "fixtures/fig2.cnq", "--guard-sim", "2"),       # exit 4
    ("fuzz", "--count", "3", "--guard-sim", "1"),             # exit 4
)


def cases() -> list[tuple[str, ...]]:
    fixtures = sorted(p.stem for p in (ROOT / "fixtures").glob("*.cnq"))
    out = []
    for fmt in FORMATS:
        out += [(cmd, f"fixtures/{name}.cnq", *fmt)
                for name in fixtures for cmd in ("eval", "verify", "check", "optimize")]
        out += [("equiv", f"fixtures/{a}.cnq", f"fixtures/{b}.cnq", *fmt) for a, b in EQUIV_PAIRS]
        out.append(("fuzz", "--seed", "0", "--count", "20", *fmt))
    return out + list(ERRORS)


def run(argv: tuple[str, ...]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


if __name__ == "__main__":
    os.chdir(ROOT)
    golden = {" ".join(argv): run(argv) for argv in cases()}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} entries to {GOLDEN.relative_to(ROOT)}")
