"""Run workloads over a range of seeds and summarize each metric.

    python3 perfbench/collect.py --seeds 1-10 --trace 0 --out perfbench/baseline/end_to_end.json

Each (workload, seed) runs as its own `run.py` process. The output
holds every run's full result record and, per workload and metric, the
median, the quartiles from `statistics.quantiles(values, n=4)` and the
spread (Q3 - Q1) / median. Exits non-zero if any run was not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("ingest", "query", "allpairs")


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = median
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOAD_NAMES, default=WORKLOAD_NAMES)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", required=True)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    runs: dict[str, list[dict]] = {}
    all_correct = True
    with tempfile.TemporaryDirectory(dir=HERE.parent / ".perfbench_work") as tmp:
        for workload in args.workloads:
            for seed in args.seeds:
                out = Path(tmp) / f"{workload}-{seed}.json"
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace,
                       "--size", args.size, "--out", str(out)]
                if args.record:
                    cmd.append("--record")
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
                if not out.exists():
                    print(f"{workload} seed {seed}: no result (exit {proc.returncode})")
                    all_correct = False
                    continue
                result = json.loads(out.read_text())
                all_correct = all_correct and result["correct"]
                runs.setdefault(workload, []).append(result)
                print(f"{workload} seed {seed}: correct={result['correct']}", flush=True)

    summary = {w: summarize(rs) for w, rs in runs.items()}
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{workload}.{name} median {s['median']:.6g} {s['unit']} spread {spread}")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(
        json.dumps({"summary": summary, "runs": runs}, indent=1, sort_keys=True) + "\n"
    )
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
