"""One workload process: set up, run the timed body once, check the outputs.

Started fresh for every sample by run.py, so the lru_caches inside fracvar
start empty, as they do for a user who runs the CLI.  Prints one JSON object
as its last stdout line.

    python3 perfbench/child.py WORKLOAD SEED WORKDIR SPAWN_TIME [--trace]
        [--smoke] [--corrupt] [--setup-only]

SPAWN_TIME is the parent's time.monotonic() just before it started this
process; set-up time runs from there to the moment the inputs are written.
"""

import os

# BLAS and OpenMP thread pools are sized when numpy loads: pin them first.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_ENV:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import fracvar.cli  # noqa: E402

import workloads  # noqa: E402


def _environment() -> dict:
    import mpmath
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {name: os.environ[name] for name in THREAD_ENV},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("workdir", type=Path)
    parser.add_argument("spawn", type=float)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true", help="small grids, for the self-test")
    parser.add_argument("--corrupt", action="store_true", help="perturb every output before the checks")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    items = workloads.make(args.workload, args.seed, args.workdir, smoke=args.smoke)
    setup_s = time.monotonic() - args.spawn
    print(json.dumps({"planned": len(items)}), flush=True)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    runs = []
    start = time.perf_counter()
    for item in items:
        out = io.StringIO()
        scope = tracer.span("bench", item.name) if tracer else contextlib.nullcontext()
        with scope, contextlib.redirect_stdout(out):
            try:
                rc = fracvar.cli.main(item.argv)
            except Exception as exc:  # an uncaught error is a failed item, not a lost one
                print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
                rc = -1
        runs.append(workloads.ItemRun(rc=rc, stdout=out.getvalue(), out=item.out))
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb}
    if tracer:
        tracer.uninstall()
        result["layers"], result["breakdown"] = tracing.layer_metrics(tracer.spans)
        tracer.write(args.workdir / f"spans-{os.getpid()}.jsonl")

    if args.corrupt:
        for item, run in zip(items, runs):
            item.corrupt(run)
    result["items"] = []
    for item, run in zip(items, runs):
        entry = {"name": item.name, "ok": True, "figures": {}}
        try:
            entry["figures"] = item.check(run)
        except Exception as exc:  # every failed check is reported, never dropped
            entry["ok"] = False
            entry["error"] = f"{type(exc).__name__}: {exc}"
        result["items"].append(entry)
    result["environment"] = _environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
