"""Reference figures: RelGo against the graph-agnostic ``duckdb`` system.

    python3 perfbench/reference.py [--repeats 3]

For every ``ldbc`` and ``job`` query, compiles and runs the text with the
``relgo`` and the ``duckdb`` configuration (same engine, graph-agnostic
optimizer, hash joins) and prints the median wall time of each and their
ratio -- the paper's headline comparison.  Answers are checked against
``answers.json`` for both systems.  Not part of a benchmark run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import loads  # noqa: E402
import oracle  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    with open(oracle.ANSWERS_PATH) as fh:
        answers = json.load(fh)
    for workload, params in (("ldbc", loads.LDBC_PARAMS), ("job", loads.JOB_PARAMS)):
        relgo = loads.build_system(workload, params)
        duckdb = loads.systems.make_system(
            "duckdb", relgo.framework.catalog, relgo.framework.graph_name
        )
        ratios = []
        print(f"{workload}: median ms of {args.repeats} runs (compile + execute)")
        print(f"  {'query':8s} {'relgo':>10s} {'duckdb':>10s} {'duckdb/relgo':>13s}")
        for name, sql in sorted(loads.suite_queries(workload).items()):
            times = {}
            for label, system in (("relgo", relgo), ("duckdb", duckdb)):
                samples = []
                for _ in range(args.repeats):
                    started = time.perf_counter()
                    result = system.framework.execute(system.optimize(system.bind(sql)))
                    samples.append(time.perf_counter() - started)
                    oracle.check(result.rows, answers[workload][name], f"{label} {name}")
                times[label] = statistics.median(samples)
            ratios.append(times["duckdb"] / times["relgo"])
            print(f"  {name:8s} {loads.ms(times['relgo']):10.2f} "
                  f"{loads.ms(times['duckdb']):10.2f} {ratios[-1]:13.2f}")
        print(f"  geometric mean duckdb/relgo over {len(ratios)} queries: "
              f"{loads.geomean(ratios):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
