"""fracvar benchmark: the command that runs one workload (or all, or the self-test).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Runs the workload's body in fresh single-threaded processes (child.py), one
after another, for about S seconds, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, each the median over the
processes of the run.  With --trace 1 untraced and traced processes
alternate, and the metrics are the per-layer ones from the traced processes
plus trace.overhead_s, the traced minus the untraced median wall time.  The
lines before the last give the machine, the versions, and every sample; the
same record, and the spans of traced processes, go under perfbench/out/.

--workload all runs the four workloads in turn and prints one result line
each, tagged with its workload.  --smoke runs every workload on small grids,
checks that each metric in BENCHMARK.json is printed with its unit, and
checks that a corrupted output of every workload fails its checks.  See
DESIGN.md for the choices.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

WORKLOADS = ("isoperimetric", "unconstrained", "reference-ml", "certify-ladder")
# which accuracy figures each workload's outputs define (see workloads.py)
APPLICABLE = {
    "isoperimetric": ("ref_err_max", "lambda_rel_err", "el_mid_max"),
    "unconstrained": ("el_mid_max",),
    "reference-ml": (),
    "certify-ladder": (),
}
ACCURACY = ("ref_err_max", "lambda_rel_err", "el_mid_max")
NOT_APPLICABLE = 1.0
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
    "ref_err_max": "1",
    "lambda_rel_err": "ratio",
    "el_mid_max": "1",
}
MIN_SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s


def _machine() -> dict:
    """What the figures depend on besides the code: cores, CPU and caches."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    caches = {}
    for level in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", level], capture_output=True, text=True, timeout=10)
            caches[level] = int(out.stdout.strip() or 0)
        except (OSError, ValueError, subprocess.SubprocessError):
            caches[level] = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": model,
        "l2_bytes": caches["LEVEL2_CACHE_SIZE"],
        "l3_bytes": caches["LEVEL3_CACHE_SIZE"],
    }


def _child(workload: str, seed: int, workdir: Path, timeout: float, *flags: str) -> dict:
    """Run child.py once; a crash, a timeout or garbled output is a failed sample."""
    spawn = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), str(workdir), repr(spawn), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s", "duration_s": time.monotonic() - spawn}
    duration = time.monotonic() - spawn
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    planned = lines[0].get("planned", 1) if lines else 1
    if proc.returncode != 0 or not lines or "setup_s" not in lines[-1]:
        return {"error": f"exit code {proc.returncode}, no result line", "planned": planned, "duration_s": duration}
    return dict(lines[-1], duration_s=duration)


def _counts(samples: list[dict]) -> tuple[int, int]:
    attempted = failed = 0
    for sample in samples:
        items = sample.get("items")
        if items is None:  # the process died: every item it planned failed
            attempted += sample["planned"]
            failed += sample["planned"]
        else:
            attempted += len(items)
            failed += sum(1 for item in items if not item["ok"])
    return attempted, failed


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> tuple[dict, dict]:
    """Sample the workload for `seconds`; return (result line, full record)."""
    workdir = HERE / "out" / f"{'smoke-' if smoke else ''}{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    extra = ["--smoke"] if smoke else []
    start = time.monotonic()

    def remaining() -> float:
        return max(30.0, RUN_LIMIT_S - (time.monotonic() - start))

    plain: list[dict] = []
    traced: list[dict] = []
    # rounds start until `seconds` have passed, so a run takes at least two
    # samples of any body shorter than half of it
    while True:
        plain.append(_child(workload, seed, workdir, remaining(), *extra))
        if trace:
            traced.append(_child(workload, seed, workdir, remaining(), "--trace", *extra))
        if time.monotonic() - start >= seconds:
            break
    setups = [s["setup_s"] for s in plain + traced if "setup_s" in s]
    while not trace and len(setups) < MIN_SETUP_SAMPLES:
        sample = _child(workload, seed, workdir, remaining(), "--setup-only", *extra)
        if "setup_s" not in sample:
            break
        setups.append(sample["setup_s"])

    attempted, failed = _counts(plain + traced)
    ok_plain = [s for s in plain if "wall_s" in s]
    metrics: dict[str, float | None] = {}
    if trace:
        ok_traced = [s for s in traced if "layers" in s]
        for name in tracing.PER_LAYER:
            metrics[name] = _median([s["layers"][name] for s in ok_traced])
        walls = _median([s["wall_s"] for s in ok_traced]), _median([s["wall_s"] for s in ok_plain])
        metrics["trace.overhead_s"] = walls[0] - walls[1] if None not in walls else None
        units = dict(tracing.PER_LAYER, **{"trace.overhead_s": "s"})
    else:
        passed = attempted - failed
        metrics["wall_s"] = _median([s["wall_s"] for s in ok_plain])
        metrics["setup_s"] = _median(setups)
        metrics["peak_rss_mb"] = _median([s["peak_rss_mb"] for s in ok_plain])
        metrics["pass_frac"] = passed / attempted
        for name in ACCURACY:
            if name not in APPLICABLE[workload]:
                metrics[name] = NOT_APPLICABLE
                continue
            per_sample = []
            for s in ok_plain:
                figures = [item["figures"][name] for item in s["items"] if name in item["figures"]]
                if figures:
                    per_sample.append(max(figures))
            metrics[name] = _median(per_sample)
        units = END_TO_END_UNITS

    correct = failed == 0 and all(value is not None for value in metrics.values())
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value if value is not None else -1.0, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": _machine(),
        "environment": next((s["environment"] for s in plain + traced if "environment" in s), None),
        "setup_samples": setups,
        "untraced": plain,
        "traced": traced,
        "result": line,
    }
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return line, record


def _print_record(record: dict) -> None:
    print(json.dumps({"machine": record["machine"], "environment": record["environment"]}))
    for kind in ("untraced", "traced"):
        for sample in record[kind]:
            brief = {key: sample.get(key) for key in ("setup_s", "wall_s", "peak_rss_mb", "duration_s", "error")}
            brief["items"] = [
                {key: item.get(key) for key in ("name", "ok", "error", "figures")} for item in sample.get("items", [])
            ]
            if "breakdown" in sample:
                brief["breakdown"] = sample["breakdown"]
            print(json.dumps({kind: brief}))


def smoke() -> int:
    """Self-test: every metric printed with its unit; corrupted outputs trip the checks."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            line, _ = run(workload, seed=1, seconds=0, trace=trace, smoke=True)
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{workload} trace={int(trace)}: metrics {got} differ from BENCHMARK.json {want[trace]}")
            if not line["correct"]:
                problems.append(f"{workload} trace={int(trace)}: not correct: {line}")
        workdir = HERE / "out" / f"smoke-{workload}-corrupt"
        sample = _child(workload, 1, workdir, RUN_LIMIT_S, "--smoke", "--corrupt")
        caught = [item["name"] for item in sample.get("items", []) if not item["ok"]]
        missed = [item["name"] for item in sample.get("items", []) if item["ok"]]
        if missed or not caught:
            problems.append(f"{workload}: corrupted outputs passed the checks: {missed or sample}")
        print(f"{workload}: metrics and units match; corrupted outputs caught on {caught}")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("smoke test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the self-test instead")
    args = parser.parse_args()

    if not (ROOT / "src" / "fracvar" / "cli.py").is_file():
        print(f"error: no fracvar sources under {ROOT / 'src'}; run from a fracvar checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        for workload in WORKLOADS:
            line, _ = run(workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(dict(workload=workload, **line)))
        return 0
    line, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_record(record)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
