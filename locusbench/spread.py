"""Run the benchmark over several seeds and report each metric's spread.

For every workload the benchmark is run once per seed, one run at a time.
Each metric's spread is the distance between the first and third quartile
of its values (``statistics.quantiles(values, n=4)``) as a share of their
median. Usage, from the root of a checkout:

    python3 locusbench/spread.py --seeds 1-10 --out locusbench/BENCH_baseline.json

Each run measures for BENCHMARK.json's ``run_seconds``. Without
``--workloads`` every workload in BENCHMARK.json is run. ``--out`` writes
every run's result and meta line plus the per-metric medians and spreads.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True
    )
    lines = proc.stdout.strip().splitlines()
    meta = next(
        (json.loads(line[5:]) for line in lines if line.startswith("meta ")),
        {},
    )
    meta["run_wall_s"] = time.perf_counter() - t0
    return json.loads(lines[-1]), meta


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", help="comma list; default: all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    workloads = (
        args.workloads.split(",")
        if args.workloads
        else [w["name"] for w in spec["workloads"]]
    )
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            result, meta = run_once(workload, seed, seconds, args.trace)
            runs.append({"result": result, "meta": meta})
            print(
                "%s seed %d (%.0f s): %s"
                % (
                    workload,
                    seed,
                    meta["run_wall_s"],
                    ", ".join(
                        "%s=%.4g" % (k, v["value"])
                        for k, v in result["metrics"].items()
                        if k in bounds
                    ),
                ),
                flush=True,
            )
        names = runs[0]["result"]["metrics"]
        stats = {
            name: summarize([r["result"]["metrics"][name]["value"] for r in runs])
            for name in names
        }
        report["workloads"][workload] = {"runs": runs, "metrics": stats}
        for name, s in stats.items():
            if name not in bounds:
                continue
            flag = ""
            if s["spread"] is not None and s["spread"] > bounds[name] / 3:
                flag = "  above a third of the bound %.3g" % bounds[name]
            print(
                "  %-14s median %.5g  spread %s%s"
                % (
                    name,
                    s["median"],
                    "%.4f" % s["spread"] if s["spread"] is not None else "n/a",
                    flag,
                )
            )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
