"""Run one fecapsim benchmark workload and print its metrics as JSON.

Usage, from the repository root:

    python3 perfbench/run.py --workload array|mc|characterize --seed N \
        --seconds S --trace 0|1

The workload's round of timed calls repeats until S seconds have passed.
With ``--trace 0`` the last line of output is the end-to-end result:
``wall_s`` (median host time of a round), ``setup_s`` (from the start of
this script, through importing fecapsim and building the inputs, to the
first timed call) and ``peak_rss_mb``. With ``--trace 1`` the first half
of the time runs untraced rounds and the second half traced ones, and the
metrics are the per-layer figures of a traced round plus the tracing
overhead; the spans go to ``perfbench/out/``. Either way a round's outputs
are checked, and the exit code is 1 if a check fails.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("array", "mc", "characterize"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def _import_program():
    """Import fecapsim from this checkout's sources, never from elsewhere."""
    if not (SRC / "fecapsim" / "__init__.py").is_file():
        sys.exit(f"error: no fecapsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fecapsim

    if Path(fecapsim.__file__).resolve().parent != (SRC / "fecapsim").resolve():
        sys.exit(f"error: fecapsim imported from {fecapsim.__file__}")


def _rounds(work, seconds, walls, digests, failed):
    """Run whole rounds until *seconds* have passed; returns the first output."""
    first = None
    t_stop = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        out = work.run()
        walls.append(time.perf_counter() - t0)
        digests.append(work.digest(out))
        failed.append(work.failed(out))
        if first is None:
            first = out
        if time.perf_counter() >= t_stop:
            return first


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    import workloads

    OUT.mkdir(exist_ok=True)
    work = workloads.WORKLOADS[args.workload](args.seed, OUT)
    setup_s = time.perf_counter() - _START

    walls, digests, failed = [], [], []
    if args.trace:
        import tracing

        first = _rounds(work, args.seconds / 2, walls, digests, failed)
        n_plain = len(walls)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            _rounds(work, args.seconds / 2, walls, digests, failed)
        finally:
            tracer.uninstall()
    else:
        first = _rounds(work, args.seconds, walls, digests, failed)
        n_plain = len(walls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    correct = True
    try:
        workloads.require(all(d == digests[0] for d in digests),
                          "rounds gave different outputs")
        for line in work.check(first):
            print(f"check: {line}")
    except workloads.CheckError as err:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
        correct = False

    plain_wall = statistics.median(walls[:n_plain])
    if args.trace:
        traced = len(walls) - n_plain
        metrics = tracer.metrics(traced)
        metrics["trace.overhead_s"] = (
            statistics.median(walls[n_plain:]) - plain_wall, "s")
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.csv"
        tracer.write(trace_file)
        print(f"{len(tracer.spans)} spans of {traced} traced rounds -> {trace_file}")
    else:
        metrics = {"wall_s": (plain_wall, "s"), "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    print(f"{args.workload} seed {args.seed}: {n_plain} untraced rounds, "
          "wall_s per round " + " ".join(f"{w:.4f}" for w in walls[:n_plain]))
    result = {
        "correct": correct,
        "attempted": work.ops * len(walls),
        "failed": sum(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
