"""Run-to-run spread of the end-to-end metrics, over several seeds.

    python3 perfbench/steady.py --workload ldbc --seeds 1-10 [--seconds 30]

Runs ``run.py`` once per seed, one run at a time, and prints for every
end-to-end metric the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread: the distance between the quartiles as a share of the
median, which ``BENCHMARK.json``'s bounds are set against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    first, last = (int(x) for x in args.seeds.split("-"))
    values: dict[str, list[float]] = {}
    shares = set()
    for seed in range(first, last + 1):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(proc.stdout[-2000:], proc.stderr[-2000:])
            return 1
        shares.add((result["failed"], result["attempted"]))
        row = []
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            row.append(f"{name}={metric['value']:.4g}")
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              + " ".join(row), flush=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"{args.workload}: {len(values['setup_s'])} runs of {seconds:g} s")
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median
        print(f"  {name:16s} median {median:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
              f"spread {spread:6.3f}  bound {bounds.get(name)}")
    print(f"  failed/attempted pairs: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
