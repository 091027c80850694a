"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lv-newton --seed 1 --seconds 40 --trace 0

Run from the repository root. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
The lines before it give the host, each metric with its unit and sample
count, and ``fail_ratio``. Spans and samples go to ``perfbench/out/``.
"""

import os

# numpy links a threaded OpenBLAS; pin it before anything imports numpy so
# the pool's processes, not BLAS threads, are the only parallelism.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("linear-deep", "lv-newton", "lv-nlschur")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed rounds run (at least one round)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny sizes are for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "timeschur" / "__init__.py").is_file():
        print(f"perfbench: no timeschur sources at {SRC}", file=sys.stderr)
        return 2
    # On SIGTERM, unwind through the `finally` blocks that close the pools.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import measure, tracing, workloads

    workload = workloads.make(args.workload, args.size)
    workers = measure.usable_cores()
    host = measure.host_info()
    if args.trace:
        run, metrics, spans = measure.measure_traced(workload, args.seed, args.seconds, workers)
        units = tracing.LAYER_UNITS
    else:
        run, metrics = measure.measure(workload, args.seed, args.seconds, workers)
        spans = None
        units = measure.END_TO_END_UNITS

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "workers": workers, "host": host,
              "attempted": run.attempted, "failed": run.failed, "errors": run.errors[:20],
              "samples": run.samples, "metrics": metrics, "spans": spans}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1))

    print("host", json.dumps(host, sort_keys=True))
    for error in run.errors[:5]:
        print("failed", error, file=sys.stderr)
    result = {}
    shown = dict(units, **{name: "s" for name in measure.SECONDS if name in metrics})
    for metric, unit in shown.items():
        value = metrics.get(metric)
        if value is not None and value != value:  # NaN: no passing sample
            value = None
        if metric in units:
            result[metric] = {"value": value, "unit": unit}
        count = len(run.samples.get(metric, ()))
        print(f"{metric:30s} {value!s:>24} {unit:8s}" + (f" n={count}" if count else ""))
    print(f"{'fail_ratio':30s} {run.failed / run.attempted:>24} (failed/attempted = "
          f"{run.failed}/{run.attempted})")
    correct = run.failed == 0 and all(m["value"] is not None for m in result.values())
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
