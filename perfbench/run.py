"""Benchmark entry point: one workload, one process, one result line.

    python3 perfbench/run.py --workload {ldbc,job,serving} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout (the program is imported from
``src/``).  Every answer is checked: ``ldbc`` and ``job`` results against
the SQLite answers in ``answers.json``, ``serving`` graph results against
the same and its counts against the append property.  The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones, from a run that alternates traced and untraced rounds
(spans are written to ``perfbench/out/``).  A metric whose layer the
workload does not cross reads 0.  The exit code is 0 only for a run whose
answers are all correct.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

END_TO_END = {
    "setup_s": "s",
    "throughput_qps": "1/s",
    "geomean_ms": "ms",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "setup.generate_s": "s",
    "setup.index_s": "s",
    "setup.analyze_s": "s",
    "setup.glogue_s": "s",
    "sqlpgq.parse_bind_ms": "ms",
    "rules.ms": "ms",
    "rules.pushed_constraints": "count",
    "rules.trimmed_columns": "count",
    "graph_opt.ms": "ms",
    "rel_opt.ms": "ms",
    "rel_opt.trees_visited": "count",
    "lowering.ms": "ms",
    "glogue.qerror": "ratio",
    "exec.ms": "ms",
    "exec.rows_produced": "count",
    "exec.peak_buffered_rows": "count",
    "exec.result_rows": "count",
    "wire.round_trip_ms": "ms",
    "serving.server_ms": "ms",
    "wire.overhead_ms": "ms",
    "pool.queue_wait_ms": "ms",
    "plan_cache.hit_rate": "ratio",
    "storage.append_ms": "ms",
    "storage.rows_appended": "count",
    "storage.column_bytes": "bytes",
    "trace.overhead_pct": "%",
    "trace.uncovered_pct": "%",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["ldbc", "job", "serving"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # The program runs with its defaults: no plan cache on the text path,
    # no wire swap-in, serial execution, spill disarmed.
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import loads
    import oracle
    from spans import Tracer

    with open(oracle.ANSWERS_PATH) as fh:
        answers = json.load(fh)
    if args.workload == "serving":
        # One CPU: CPython runs one thread at a time, and on two CPUs the
        # hand-offs among the serving threads made throughput swing by half
        # with the host's other load (see README, "Steadiness").
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tracer = Tracer().install()
    if args.workload == "serving":
        outcome = loads.run_serving(
            loads.LDBC_PARAMS, answers["serving"], args.seconds, args.seed,
            tracer, bool(args.trace),
        )
    else:
        params = loads.LDBC_PARAMS if args.workload == "ldbc" else loads.JOB_PARAMS
        outcome = loads.run_suite(
            args.workload, params, answers[args.workload], args.seconds, args.seed,
            tracer, bool(args.trace),
        )
    tracer.uninstall()

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if outcome.plans:
        with open(os.path.join(OUT_DIR, f"plans-{tag}.json"), "w") as fh:
            json.dump({"hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
                       "queries": outcome.plans}, fh, indent=1, sort_keys=True)
    if args.trace:
        tracer.write(os.path.join(OUT_DIR, f"trace-{tag}.json"))

    for line in outcome.report:
        print(line)
    for line in outcome.wrong[:20]:
        print("WRONG", line)
    names = PER_LAYER if args.trace else END_TO_END
    measured = outcome.layers if args.trace else outcome.end_to_end
    metrics = {}
    for name, unit in names.items():
        value = measured.get(name, (0, unit))[0]
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:28s} {value:14.6f} {unit}")
    correct = not outcome.wrong
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
