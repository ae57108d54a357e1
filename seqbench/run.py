"""Run one workload of the sequence-database benchmark and print its metrics.

    python3 seqbench/run.py --workload ecg_read_mix --seed 1 --seconds 12 --trace 0

One process, one client thread, the serial executor, a closed loop: the
next op is sent when the previous one has returned.  The op list comes
from the seed.  Set-up (build and warm the starting database) is timed
at least ``SETUP_REPEATS`` times and its median reported.  The timed
phase runs ops until their summed latency reaches ``--seconds`` and at
least ``MIN_REQUESTS`` requests completed, then on to the end of the
cycle (an ingest epoch, a read round, a stream tick).  A request is the
workload's unit of user work: one ingest batch, one round of all seven
query families, or one monitoring tick (an append and the standing
queries).  The answers are checked after the timed phase, and the bytes
the database holds are measured under ``tracemalloc`` on a copy built
from its first ``MEMORY_SEQUENCES`` sequences, because tracing every
allocation slows ingest about eightfold.

Every timing is reference-normalised: a fixed slice of benchmark-owned
CPU work (``measure.ReferenceSlice``) runs between requests, and each
request's wall time is scaled by ``REF_NOMINAL_MS`` over the mean of the
two slices around it.  The numbers read as milliseconds on a nominal
machine; the raw wall-clock figures and the slice timings are printed on
the ``#`` lines beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
same op list twice on fresh databases, untraced and then with a span
around every layer entry point (see ``tracing.py``), and prints the
per-layer metrics; the spans are written to ``seqbench/out/``.  The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from seqbench.bench import main as run_benchmark

    return run_benchmark(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
