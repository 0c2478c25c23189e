"""Benchmark of the sweep simulator: one workload, closed loop, checked.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ball --seed 1 --seconds 22 --trace 0

``--trace 0`` measures the end-to-end metrics on untraced runs;
``--trace 1`` makes a separate traced run whose spans give the
per-layer metrics (and are written to ``.perfbench/``).  Human-readable
lines (sample spreads, host fingerprint, failures on stderr) come
first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only
when every operation passed its output check.  See README.md here for
the workloads and what each metric should move.
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: What the benchmark imports from the checkout besides its own files.
NEEDS = ("src/repro/__init__.py", "benchmarks/_common.py")


def import_paths() -> list[str]:
    """Put the package, the shared bench helpers and this directory on
    ``sys.path``; returns the required files that are missing."""
    missing = [n for n in NEEDS if not (ROOT / n).is_file()]
    if not missing:
        for d in (HERE, ROOT / "benchmarks", ROOT / "src"):
            if str(d) not in sys.path:
                sys.path.insert(0, str(d))
    return missing


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Pin BLAS/OpenMP pools before numpy loads: kernels must not start
    # more threads than the cores the closed loop is measured on.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    missing = import_paths()
    if missing:
        print(f"perfbench: missing {', '.join(missing)}; run it from the root "
              "of a repository checkout", file=sys.stderr)
        return 2

    import measure
    from spans import Tracer
    from workloads import SCENARIOS, Workload

    if args.workload not in SCENARIOS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(SCENARIOS)}")
    wl = Workload(args.workload, args.seed)
    tally = measure.Tally()
    if args.trace:
        tracer = Tracer()
        metrics = measure.per_layer(wl, args.seconds, tally, tracer)
        units = measure.LAYER_UNITS
        out = ROOT / ".perfbench"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.save(path)
        print(f"spans: {path.relative_to(ROOT)} ({len(tracer)} spans)")
    else:
        metrics = measure.end_to_end(wl, args.seconds, tally)
        units = measure.E2E_UNITS
    print("host " + json.dumps(measure.host_fingerprint(tally.reference)))
    print(f"operations: {tally.attempted} attempted, {tally.failed} failed, "
          f"failed_frac {tally.failed / tally.attempted:.4f}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
