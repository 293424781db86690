"""Run one benchmark workload and print its result as the last line.

    python3 bench/run.py --workload train-attended --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` the per-layer metrics, and the spans are written to
``bench/out/trace-<workload>.json``. Run from any directory; the package is
imported from ``src/`` next to this directory.
"""

import os

# One BLAS thread, set before numpy is first imported: the benchmark is one
# closed-loop caller, and on a 2-vCPU machine a second BLAS thread measures
# the scheduler rather than the program.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "superevents" / "__init__.py").is_file():
        print(f"run.py: the package source {SRC / 'superevents'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    (BENCH / ".work").mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / ".work"))
    trace_path = None
    if args.trace:
        (BENCH / "out").mkdir(exist_ok=True)
        trace_path = BENCH / "out" / f"trace-{args.workload}.json"
    try:
        result, run = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), work_dir,
            trace_path=trace_path)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for failure in run.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    for variant in run.clock.variants:
        print(f"# calibration kernel {variant}: median {run.clock.kernel_ms(variant):.4f} ms"
              f" over {len(run.clock.positions)} samples, reference "
              f"{run.clock.REFERENCE_MS[variant]} ms")
    if run.measured is not None:
        print(f"# unscaled: {json.dumps(run.measured)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
