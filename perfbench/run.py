"""cfgprint benchmark: ingest, query and allpairs workloads.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

A single workload runs in this process and prints, as its last line,
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics of a separate traced run with
--trace 1. `--workload all` runs each workload in its own process (so
peak_rss_mb is per workload) and prints every end-to-end metric under
its workload's name. The exit code is 0 only if every output check
passed. All times come from `clock.RefClock`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("ingest", "query", "allpairs")
SETUP_REPEATS = 3
TRACED_PASSES = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "p50_ms": "ms",
    "throughput_per_s": "1/s",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": git_commit(),
    }


def timed_run(wl, clock, seconds: float) -> dict:
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = clock.now()
        wl.setup()
        setup_s.append(clock.now() - t0)
    wl.measure(clock.now, seconds)
    if wl.failed:  # outputs are incomplete; the errors are reported instead
        return {"checks": {}, "metrics": {}, "details": {"setup_s": setup_s}}
    checks = wl.check()
    found = wl.metrics()
    metrics = {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "p50_ms": found.pop("p50_ms"),
        "throughput_per_s": found.pop("throughput_per_s"),
    }
    details = {"setup_s": setup_s, "samples": len(wl.samples_ms), "samples_ms": wl.samples_ms, **found}
    return {"checks": checks, "metrics": metrics, "details": details}


def traced_run(wl, clock, spans_path: Path) -> dict:
    """One untraced pass, then traced passes that wrap every layer.

    A pass is `measure` with `seconds=0`: the minimum run, whose
    operations depend only on the seed. Every pass must pass the
    workload's output checks with the same digest. Per-layer times and
    the tracing overhead (the tracer's own time, see `tracing`) are the
    mean of the traced passes; counts must repeat exactly from pass to
    pass, and match the recorded counts for this seed when there are any.
    """
    from tracing import Tracer
    from workloads import recorded

    wl.setup()
    tracer = Tracer(clock.now)
    checks, digests, passes, pass_ms = {}, [], [], []
    for traced in [False] + [True] * TRACED_PASSES:
        with tracer.installed() if traced else nullcontext():
            mark = tracer.mark()
            t0 = clock.now()
            wl.measure(clock.now, 0, tracer.request if traced else lambda name: nullcontext())
            pass_ms.append((clock.now() - t0) * 1000.0)
            if traced:
                passes.append(tracer.summary(mark))
        if wl.failed:
            return {"checks": {}, "metrics": {}, "details": {}}
        found = wl.check()
        digests.append(found.pop("_digest"))
        for name, verdict in found.items():  # keep each check's first failure
            if checks.get(name, True) in (True, "ok"):
                checks[name] = verdict
    tracer.dump(spans_path)

    counts = {k: v for k, v in passes[0].items() if per_layer_unit(k) != "ms"}
    want = recorded(wl.size, wl.name, wl.seed).get("counts")
    checks.update({
        "counts_repeat": all({k: p[k] for k in counts} == counts for p in passes[1:]),
        "traced_output_unchanged": all(d == digests[0] for d in digests),
        "counts_match_recorded": "unrecorded" if want is None else want == counts,
        "_counts": counts,
    })
    metrics = {
        k: (statistics.fmean(p[k] for p in passes) if per_layer_unit(k) == "ms" else v)
        for k, v in passes[0].items()
    }
    details = {
        "untraced_pass_ms": pass_ms[0],
        "traced_pass_ms": pass_ms[1:],
        "spans_file": str(spans_path),
        "samples": TRACED_PASSES,
    }
    return {"checks": checks, "metrics": metrics, "details": details}


def run_one(args) -> int:
    from clock import RefClock
    from workloads import WORKLOADS, record

    out_path = Path(args.out).resolve() if args.out else None
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.size}-{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Inputs live under paths relative to the work directory, so that the
    # source paths stored in each .cdx, and with them its digest, depend
    # neither on where the checkout lives nor on the run's name.
    os.chdir(work)
    wl = WORKLOADS[args.workload](args.size, args.seed, Path("."))
    wall_start = time.monotonic()
    with RefClock() as clock:
        if args.trace:
            out = traced_run(wl, clock, Path("spans.jsonl"))
        else:
            out = timed_run(wl, clock, args.seconds)
        speed = clock.speed()
    shutil.rmtree("corpus", ignore_errors=True)

    checks = out["checks"]
    verdicts = {k: v for k, v in checks.items() if not k.startswith("_")}
    correct = (
        bool(verdicts)
        and wl.failed == 0
        and all(v is True or v in ("ok", "unrecorded") for v in verdicts.values())
    )
    units = END_TO_END_UNITS if not args.trace else {k: per_layer_unit(k) for k in out["metrics"]}
    metrics = {k: {"value": out["metrics"][k], "unit": u} for k, u in units.items() if k in out["metrics"]}
    result = {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "errors": wl.errors[:5],
        "metrics": metrics,
        "checks": verdicts,
        "details": {**out["details"], "speed": speed, "wall_s": time.monotonic() - wall_start},
        "environment": environment(),
    }
    if args.record:
        if "_digest" in checks:
            record(args.size, args.workload, args.seed, output=checks["_digest"])
        if "_counts" in checks:
            record(args.size, args.workload, args.seed, counts=checks["_counts"])
    out_path = out_path or Path("result.json")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    for name, m in metrics.items():
        print(f"{args.workload}.{name} {m['value']:.6g} {m['unit']}")
    for name, verdict in verdicts.items():
        print(f"check {args.workload}.{name}: {verdict}")
    for error in wl.errors[:5]:
        print(f"error {error}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if correct else 1


# workload-specific metrics under the names a reader of results uses:
# (name, workload, field of its result record, scale, unit)
WORKLOAD_METRICS = (
    ("ingest.programs_per_s", "ingest", ("metrics", "throughput_per_s"), 1.0, "1/s"),
    ("query.p50_ms", "query", ("metrics", "p50_ms"), 1.0, "ms"),
    ("query.tail_ms", "query", ("details", "tail_ms"), 1.0, "ms"),
    ("allpairs.cluster_s", "allpairs", ("metrics", "p50_ms"), 0.001, "s"),
    ("allpairs.sweep_s", "allpairs", ("details", "sweep_s"), 1.0, "s"),
)


def run_all(args) -> int:
    """Each workload in its own process, then a summary under per-workload names."""
    results = {}
    out_dir = ROOT / ".perfbench_work" / f"all-{args.size}-{args.seed}-t{args.trace}"
    for name in WORKLOAD_NAMES:
        out = out_dir / f"{name}.json"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size, "--out", str(out)]
        if args.record:
            cmd.append("--record")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        results[name] = json.loads(out.read_text()) if out.exists() else None

    summary = {}
    if not args.trace:
        for name, r in results.items():
            if r is None or not r["metrics"]:
                continue
            for metric in ("setup_s", "peak_rss_mb"):
                summary[f"{name}.{metric}"] = r["metrics"][metric]
            summary[f"{name}.error_rate"] = {"value": r["failed"] / r["attempted"], "unit": "ratio"}
            for label, workload, field, scale, unit in WORKLOAD_METRICS:
                if workload == name:
                    value = r[field[0]][field[1]]
                    value = value["value"] if isinstance(value, dict) else value
                    summary[label] = {"value": value * scale, "unit": unit}
        print("-- end-to-end --")
        for name, m in summary.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
        if results["query"] and results["query"]["metrics"]:
            d = results["query"]["details"]
            print(f"(query.tail_ms is p{d['tail_percentile']} of {d['samples']} probes)")
    correct = all(r is not None and r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values() if r),
        "failed": sum(r["failed"] for r in results.values() if r),
        "metrics": summary,
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", help="write the full result record here")
    parser.add_argument("--record", action="store_true",
                        help="store this seed's output digest and counts in digests.json")
    args = parser.parse_args(argv)

    if not (SRC / "cfgprint" / "__init__.py").is_file():
        print(f"cfgprint sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
