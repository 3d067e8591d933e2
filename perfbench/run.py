"""Campaign benchmark: what a user pays per spec, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload des_sweep --seed 0 --seconds 25 --trace 0

Each workload (see ``README.md`` beside this file) is a closed loop from
one process: the campaign engine dispatches the next spec only when a
slot frees.  ``BENCHMARK.json`` lists three of them; ``ladder_resume_j2``
(``jobs=2``) is run by hand.  A run repeats *passes* -- one campaign over
the workload's generated specs -- until about ``--seconds`` of timed work
is done, after one untimed (but checked) warm-up pass.  Store creation,
fixture copies and checks between passes are untimed.  Timings are
medians over the passes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs
untraced for half the time, then wraps every layer's public functions
(``tracing.py``) and runs traced for the other half; it reports
per-layer self times per pass and the tracing overhead.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The exit code is 1 on any output-check violation and 2
when the ``repro`` sources are missing.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = ("des_sweep", "ladder_cold", "ladder_resume_j2", "profile_store")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", metavar="DIR", help=argparse.SUPPRESS)
    ap.add_argument(
        "--write-reference", action="store_true",
        help="regenerate reference_des.json (every seed's DES specs) and exit",
    )
    args = ap.parse_args(argv)
    if args.workload is None and not args.write_reference:
        ap.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import measure

    return measure.main(args)


if __name__ == "__main__":
    # Turn SIGTERM into SystemExit, so that a stopped run still kills
    # and reaps its set-up probes and removes its working files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
