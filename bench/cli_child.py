"""Child process of the ``cli_fixtures`` workload: ``cnq.cli.main(argv)``.

Run as ``python3 bench/cli_child.py <cnq arguments>`` from the root of a
checkout.  With ``CNQ_BENCH_TRACE=1`` it installs the benchmark's span
wrappers before calling ``main`` and appends one line to stderr,
``<MARKER> {json}``, holding its span summary, its start-up time (from
``CNQ_BENCH_SPAWN``, the parent's monotonic clock just before the spawn)
and its import time.
"""

import time

STARTED = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    t0 = time.monotonic()
    import cnq.cli
    imported = time.monotonic()
    if Path(cnq.cli.__file__).resolve().parent.parent != SRC:
        print(f"cnq imported from {cnq.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 99
    if os.environ.get("CNQ_BENCH_TRACE") != "1":
        return cnq.cli.main(argv)

    from spans import MARKER, Tracer

    tracer = Tracer()
    tracer.install()
    try:
        rc = tracer.job(cnq.cli.main, argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    record = tracer.summary()
    record["startup_s"] = STARTED - float(os.environ["CNQ_BENCH_SPAWN"])
    record["import_s"] = imported - t0
    print(MARKER, json.dumps(record), file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
