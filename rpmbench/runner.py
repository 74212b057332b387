"""One benchmark run of one workload, in a fresh process.

Started by ``run.py``, which waits for it and for every process it
leaves behind. The program is imported from this checkout's ``src/``
and is not edited. Phases: inputs, fit, predict, set-up, serve (closed
loop then open loop). With ``--trace 1`` the same phases run a second
time with the layer wrappers of ``layers.py`` installed, followed on
``direct-ucr`` by the sharded serving phase, and the run reports the
per-layer metrics instead of the end-to-end ones.

This entry point stays small for two reasons. It times ``import repro``
(the first part of set-up) before ``bench.py`` imports numpy. And the
sharded tier's workers, started with the ``spawn`` method, re-import it
as ``__mp_main__``: it imports nothing heavy at module level and runs
nothing outside the ``__main__`` guard.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="'tiny' shrinks every workload for the self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import repro  # noqa: F401  (timed: the first part of set-up)

    import_s = time.perf_counter() - t0
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from bench import run

    return run(args, import_s)


if __name__ == "__main__":
    sys.exit(main())
