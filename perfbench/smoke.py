"""The benchmark's own smoke tests, at a tiny scale (about half a minute).

    python3 perfbench/smoke.py

Builds tiny LDBC and IMDB data sets, computes their answers with the SQLite
oracle on the spot, and runs every workload for a moment, untraced and
traced, requiring correct answers and every metric.  Then it corrupts
answers (a result bag, a top-k candidate, the count base) and requires each
run to be rejected, and checks the top-k comparison on ties directly.
"""

from __future__ import annotations

import copy
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import loads  # noqa: E402
import oracle  # noqa: E402
from run import END_TO_END, PER_LAYER  # noqa: E402
from spans import Tracer  # noqa: E402

LDBC = loads.ldbc_workload.LdbcParams.scaled(0.2)
JOB = loads.job_workload.JobParams.scaled(0.1)
SECONDS = 0.3


def run(workload, answers, trace, tracer):
    if workload == "serving":
        return loads.run_serving(LDBC, answers, SECONDS, 3, tracer, trace)
    params = LDBC if workload == "ldbc" else JOB
    return loads.run_suite(workload, params, answers, SECONDS, 3, tracer, trace)


def check_topk_ties() -> None:
    expected = {"kind": "topk", "limit": 2, "count": 2, "n_out": 1,
                "candidates": [["a", 3], ["b", 2], ["c", 2]]}
    oracle.check([("a",), ("c",)], expected, "tie broken the other way")
    for rows in ([("b",), ("a",)], [("a",), ("a",)], [("b",), ("c",)]):
        try:
            oracle.check(rows, expected, "bad top-k")
        except oracle.WrongAnswer:
            continue
        raise AssertionError(f"top-k check accepted {rows}")


def main() -> int:
    check_topk_ties()
    answers = oracle.build_answers(
        loads.ldbc_workload.generate_ldbc(LDBC)[0],
        loads.job_workload.generate_imdb(JOB)[0],
    )
    tracer = Tracer().install()
    try:
        for workload in ("ldbc", "job", "serving"):
            for trace in (False, True):
                outcome = run(workload, answers[workload], trace, tracer)
                assert not outcome.wrong, outcome.wrong[:3]
                assert outcome.failed == 0 and outcome.attempted > 0, outcome.report
                measured = outcome.layers if trace else outcome.end_to_end
                names = PER_LAYER if trace else END_TO_END
                if workload == "serving":
                    names = {n: u for n, u in names.items()
                             if not n.startswith(("rules.", "glogue."))}
                else:
                    names = {n: u for n, u in names.items()
                             if not n.startswith(("wire.", "serving.", "pool.",
                                                  "plan_cache.", "storage.append",
                                                  "storage.rows"))}
                missing = sorted(set(names) - set(measured))
                assert not missing, f"{workload} trace={trace} lacks {missing}"
                print(f"ok {workload} trace={int(trace)}: "
                      f"{outcome.attempted} operations checked")

        corruptions = {
            "ldbc": lambda a: a["QC1"].update(sha256="0" * 64),
            "job": lambda a: a["JOB17"]["rows"][0].__setitem__(0, "Movie 99999"),
            "serving": lambda a: a.__setitem__("count_base", a["count_base"] + 1),
        }
        topk = next(n for n, e in answers["ldbc"].items() if e["kind"] == "topk")
        corruptions[f"ldbc top-k {topk}"] = (
            lambda a: a[topk]["candidates"][0].__setitem__(0, "nobody")
        )
        for label, corrupt in corruptions.items():
            workload = label.split()[0]
            bad = copy.deepcopy(answers[workload])
            corrupt(bad)
            outcome = run(workload, bad, False, tracer)
            assert outcome.wrong, f"corrupted {label} answer was accepted"
            print(f"ok corrupted {label} answer rejected: {outcome.wrong[0][:80]}")
    finally:
        tracer.uninstall()
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
