"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads gen-stream,...]
                                [--trace 1] [--out perfbench/results/x.json]

For every workload and metric it prints the median of the per-seed
values, the quartiles from statistics.quantiles(n=4), and the
interquartile distance as a share of the median, next to the metric's
bound from BENCHMARK.json. Runs are made one at a time.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    report = {"seconds": args.seconds, "trace": args.trace, "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            meta = json.loads(lines[0].removeprefix("meta "))
            ok &= result["correct"]
            runs.append({"seed": seed, "meta": meta, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
            mid = median(values)
            spread = (q3 - q1) / mid if mid else 0.0
            summary[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": mid,
                             "q1": q1, "q3": q3, "spread": spread, "bound": bounds.get(name),
                             "values": values}
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = f" bound {bound:.2f}" + (" (over a third)" if spread > bound / 3 else "")
            print(f"  {name:30s} median {mid:12.6g} q1 {q1:12.6g} q3 {q3:12.6g} "
                  f"spread {spread:6.3f}{flag}", flush=True)
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
