"""The benchmark's three workloads, driven through the program's public API.

* ``ldbc`` -- the paper's 25 SPJM queries (IC x18, QR x4, QC x3) on the
  LDBC30 stand-in, one client, closed loop, every execution compiled from
  text by the ``relgo`` system (no plan cache).
* ``job`` -- the 33 JOB queries on the IMDB stand-in, same path.
* ``serving`` -- a ``Database(workers=2)`` behind a loopback wire
  ``Server``; connection A runs prepared statements, connection B sends
  literal text through the plan cache, appends chunks of rows to the
  table its count statement reads, and so writes beside A's reads.

The data sets are the fixed stand-ins the answers in ``answers.json`` were
computed on; ``--seed`` draws the order of the queries in every pass and the
serving parameter rotation.
"""

from __future__ import annotations

import hashlib
import math
import random
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field

import repro.graph.index as graph_index
import repro.systems as systems
import repro.workloads.job as job_workload
import repro.workloads.ldbc as ldbc_workload
from repro.serving import Client, Database

import oracle
from hostspeed import HostSpeed

LDBC_PARAMS = ldbc_workload.LdbcParams.scaled(1.2)
JOB_PARAMS = job_workload.JobParams.scaled(1.0)

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Serving: rows per appended chunk, and one append per this many B ops.
CHUNK_ROWS = 4
APPEND_EVERY = 30
#: Serving: one count statement per this many graph statements.
COUNT_EVERY = 8
#: Serving: the end-to-end metrics come from the fastest of these windows.
WINDOW_S = 1.0
#: Serving, traced run: tracing flips on and off every this many seconds.
TRACE_WINDOW_S = 0.5
#: Host probes after every set-up, and in every pause between serving windows.
SETUP_PROBES = 12
WINDOW_PROBES = 20

SERVING_SQL = {
    "friends": """
        SELECT fn, ln FROM GRAPH_TABLE (snb
          MATCH (p0:person)-[:knows]->(p1:person)
          WHERE p0.first_name = {name}
          COLUMNS (p1.first_name AS fn, p1.last_name AS ln)) g""",
    "friends_in": """
        SELECT fn, place FROM GRAPH_TABLE (snb
          MATCH (p0:person)-[:knows]->(p1:person),
                (p1)-[:is_located_in]->(c:place)
          WHERE p0.first_name = {name} AND c.name = 'Germany'
          COLUMNS (p1.first_name AS fn, c.name AS place)) g""",
    "friend_posts": """
        SELECT fn, content FROM GRAPH_TABLE (snb
          MATCH (p0:person)-[:knows]->(p1:person),
                (m:post)-[:has_creator]->(p1)
          WHERE p0.first_name = {name}
          COLUMNS (p1.first_name AS fn, m.content AS content,
                   m.creation_date AS cdate)) g
        ORDER BY cdate DESC LIMIT 20""",
    "friend_tags": """
        SELECT fn, tname FROM GRAPH_TABLE (snb
          MATCH (p0:person)-[:knows]->(p1:person),
                (p1)-[:has_interest]->(t:tag)
          WHERE p0.first_name = {name} AND t.name STARTS WITH 'code'
          COLUMNS (p1.first_name AS fn, t.name AS tname)) g""",
    "count": (
        f"SELECT COUNT(*) AS n FROM {oracle.COUNT_TABLE} c "
        "WHERE c.creation_date >= {since}"
    ),
}


# --------------------------------------------------------------------- #
# results
# --------------------------------------------------------------------- #


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    end_to_end: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)
    report: list[str] = field(default_factory=list)
    plans: dict = field(default_factory=dict)
    host: HostSpeed = field(default_factory=HostSpeed)

    def note_failure(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        if len(self.report) < 50:
            self.report.append(f"FAILED {what}: {type(exc).__name__}: {exc}")

    def at_reference_speed(self) -> None:
        """Scale every time and rate to the reference host speed."""
        raw = " ".join(f"{name}={value:.6g}" for name, (value, _)
                       in self.end_to_end.items())
        self.report.append(
            f"host probes (10th percentile): {self.host.describe()}; "
            f"scale {self.host.factor():.4f}; wall-clock: {raw}"
        )
        self.host.scale(self.end_to_end)
        self.host.scale(self.layers)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def p99(values: list[float]) -> float:
    return statistics.quantiles(values, n=100)[98]


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def fastest_quarter(rounds, key):
    """The quarter of ``rounds`` (at least three) with the lowest ``key``.

    Other tenants of the host slow it down for seconds at a time, by up to
    a third; the fastest rounds of a run read the program's own cost.
    """
    ranked = sorted(rounds, key=key)
    return ranked[: max(3, math.ceil(len(ranked) / 4))]


def ms(seconds: float) -> float:
    return seconds * 1e3


def column_bytes(catalog) -> int:
    return sum(
        sum(catalog.table(name).memory_bytes().values())
        for name in catalog.table_names()
    )


# --------------------------------------------------------------------- #
# set-up
# --------------------------------------------------------------------- #

SETUP_LAYERS = ("setup.generate", "setup.index", "setup.analyze", "setup.glogue")


def timed_setups(build, close, tracer, outcome: Outcome):
    """Build ``SETUP_REPEATS`` times; keep the last; time each build.

    Returns the kept instance.  ``setup_s`` is the median build time, and
    each set-up layer's metric the median of its self time per build.
    """
    times: list[float] = []
    per_layer: dict[str, list[float]] = {name: [] for name in SETUP_LAYERS}
    instance = None
    for _ in range(SETUP_REPEATS):
        if instance is not None:
            close(instance)
        mark = len(tracer.spans)
        started = time.perf_counter()
        instance = build()
        times.append(time.perf_counter() - started)
        outcome.host.sample(SETUP_PROBES)
        own = tracer.self_times()
        totals = dict.fromkeys(SETUP_LAYERS, 0.0)
        for span, self_time in zip(tracer.spans[mark:], own[mark:]):
            if span[0] in totals:
                totals[span[0]] += self_time
        for name, total in totals.items():
            per_layer[name].append(total)
    outcome.end_to_end["setup_s"] = (statistics.median(times), "s")
    for name, values in per_layer.items():
        outcome.layers[f"{name}_s"] = (statistics.median(values), "s")
    outcome.report.append(
        "setup_s per build: " + " ".join(f"{t:.4f}" for t in times)
    )
    return instance


def build_system(workload: str, params):
    """Data, graph index and the ``relgo`` system, ready for a first query."""
    if workload == "ldbc":
        catalog, mapping = ldbc_workload.generate_ldbc(params)
        graph = "snb"
    else:
        catalog, mapping = job_workload.generate_imdb(params)
        graph = "imdb"
    catalog.register_graph_index(graph_index.build_graph_index(mapping))
    return systems.make_system("relgo", catalog, graph)


# --------------------------------------------------------------------- #
# ldbc / job: one client, closed loop, cold compile
# --------------------------------------------------------------------- #

#: Spans that a query's wall time is divided into, and their metrics.
QUERY_LAYERS = {
    "sqlpgq.parse_bind": "sqlpgq.parse_bind_ms",
    "rules": "rules.ms",
    "graph_opt": "graph_opt.ms",
    "rel_opt": "rel_opt.ms",
    "lowering": "lowering.ms",
    "exec": "exec.ms",
}


def suite_queries(workload: str) -> dict[str, str]:
    if workload == "ldbc":
        return {
            **ldbc_workload.ic_queries(),
            **ldbc_workload.qr_queries(),
            **ldbc_workload.qc_queries(),
        }
    return job_workload.job_queries()


def plan_fingerprint(optimized) -> str:
    return hashlib.sha1(optimized.explain().encode()).hexdigest()[:12]


def run_suite(workload, params, answers, seconds, seed, tracer, trace) -> Outcome:
    """``ldbc`` or ``job``: whole passes over the suite until ``seconds``
    of wall time have passed; the traced run alternates traced and
    untraced passes."""
    outcome = Outcome()
    tracer.enabled = trace
    system = timed_setups(
        lambda: build_system(workload, params), lambda s: None, tracer, outcome
    )
    tracer.enabled = False
    queries = suite_queries(workload)
    names = sorted(queries)
    rng = random.Random(seed)
    latencies: dict[str, list[float]] = {name: [] for name in names}
    fingerprints: dict[str, set[str]] = {name: set() for name in names}
    estimates: dict[str, float] = {}
    pass_times = {True: [], False: []}
    counts = {"exec.rows_produced": 0, "exec.result_rows": 0,
              "rules.pushed_constraints": 0, "rules.trimmed_columns": 0}
    peak_buffered = 0
    query_spans: list[int] = []

    def run_one(name: str, timed: bool, traced: bool) -> float:
        nonlocal peak_buffered
        root = None
        if traced:
            tracer.set_query(f"{name}/{passes}")
            root = tracer.open("query")
        outcome.host.sample()
        started = time.perf_counter()
        try:
            optimized = system.optimize(system.bind(queries[name]))
            result = system.framework.execute(optimized)
        finally:
            elapsed = time.perf_counter() - started
            if root is not None:
                tracer.close(root)
                query_spans.append(root)
        try:
            oracle.check(result.rows, answers[name], f"{workload} {name}")
        except oracle.WrongAnswer as exc:
            outcome.wrong.append(str(exc))
        fingerprints[name].add(plan_fingerprint(optimized))
        if optimized.graph_plan is not None:
            estimates[name] = optimized.graph_plan.cardinality
        if timed:
            latencies[name].append(elapsed)
            if traced:
                counts["exec.rows_produced"] += result.rows_produced
                counts["exec.result_rows"] += len(result.rows)
                report = optimized.rule_report
                if report is not None:
                    counts["rules.pushed_constraints"] += report.pushed_constraints
                    counts["rules.trimmed_columns"] += len(report.trimmed_columns)
                peak_buffered = max(peak_buffered, result.peak_buffered_rows)
        return elapsed

    passes = 0
    for name in names:  # warm-up pass: untimed, checked
        run_one(name, timed=False, traced=False)

    started = time.perf_counter()
    while True:
        traced = trace and passes % 2 == 1
        tracer.enabled = traced
        order = names[:]
        rng.shuffle(order)
        pass_latencies = []
        for name in order:
            outcome.attempted += 1
            try:
                pass_latencies.append(run_one(name, timed=True, traced=traced))
            except Exception as exc:  # noqa: BLE001 - counted and reported
                outcome.note_failure(f"{workload} {name}", exc)
        tracer.enabled = False
        pass_times[traced].append(sum(pass_latencies))
        passes += 1
        if time.perf_counter() - started >= seconds and (not trace or passes >= 4):
            break

    # Each query's best time over the run: the statistic the host's slow
    # spells disturb least (README, "Steadiness").
    best = [min(v) for v in latencies.values()]
    outcome.end_to_end.update(
        throughput_qps=(len(best) / sum(best), "1/s"),
        geomean_ms=(ms(geomean(best)), "ms"),
        p50_ms=(ms(statistics.median(best)), "ms"),
        p99_ms=(ms(p99(best)), "ms"),
        peak_rss_mb=(peak_rss_mb(), "MB"),
    )
    outcome.report.append(
        f"{workload}: {passes} passes, {outcome.attempted} queries; pass seconds "
        + " ".join(f"{t:.3f}" for t in pass_times[False])
    )

    # Plan quality: GLogue estimate vs the oracle's MATCH row count.
    qerrors = {}
    for name, estimate in estimates.items():
        actual = max(answers[name]["match_rows"], 1)
        estimate = max(estimate, 1.0)
        qerrors[name] = max(estimate / actual, actual / estimate)
    outcome.plans = {
        name: {"fingerprints": sorted(fingerprints[name]),
               "glogue_estimate": estimates.get(name),
               "match_rows": answers[name]["match_rows"]}
        for name in names
    }
    changed = [n for n in names if len(fingerprints[n]) > 1]
    outcome.report.append(
        f"plans: {len(names)} queries, {len(changed)} with more than one plan"
        + (f" ({', '.join(changed)})" if changed else "")
    )
    outcome.report.append(
        f"glogue q-error over {len(qerrors)} graph queries: "
        + " ".join(f"{n}={q:.2f}" for n, q in sorted(qerrors.items()))
    )

    if trace:
        traced_queries = len(query_spans)
        traced_passes = len(pass_times[True])
        own = tracer.self_times()
        layer_totals = dict.fromkeys(QUERY_LAYERS, 0.0)
        per_query: dict[str, dict[str, float]] = {}
        columns = (*QUERY_LAYERS, "query")
        for span, self_time in zip(tracer.spans, own):
            if span[4] is None:
                continue
            query = span[4].split("/")[0]
            row = per_query.setdefault(query, dict.fromkeys(columns, 0.0))
            if span[0] in row:
                row[span[0]] += self_time
            if span[0] in layer_totals:
                layer_totals[span[0]] += self_time
        uncovered = sum(own[i] for i in query_spans)
        wall = sum(tracer.spans[i][2] - tracer.spans[i][1] for i in query_spans)
        for span_name, metric in QUERY_LAYERS.items():
            outcome.layers[metric] = (ms(layer_totals[span_name] / traced_queries), "ms")
        for name, total in counts.items():
            outcome.layers[name] = (total / traced_passes, "count")
        outcome.layers["rel_opt.trees_visited"] = (
            tracer.counts.get("rel_opt.trees", 0) / traced_passes, "count"
        )
        outcome.layers["exec.peak_buffered_rows"] = (peak_buffered, "count")
        outcome.layers["storage.column_bytes"] = (
            column_bytes(system.framework.catalog), "bytes"
        )
        outcome.layers["glogue.qerror"] = (geomean(qerrors.values()), "ratio")
        outcome.layers["trace.overhead_pct"] = (
            100.0 * (statistics.median(pass_times[True])
                     / statistics.median(pass_times[False]) - 1.0), "%",
        )
        outcome.layers["trace.uncovered_pct"] = (100.0 * uncovered / wall, "%")
        outcome.report.append(
            "per-query mean self time in ms over traced passes "
            "(query = wall time no layer span covers):"
        )
        outcome.report.append(
            "  query   " + " ".join(f"{n:>10s}" for n in columns)
        )
        for name in names:
            row = per_query.get(name)
            if row is None:
                continue
            outcome.report.append(
                f"  {name:7s} "
                + " ".join(f"{ms(row[n]) / traced_passes:10.3f}" for n in columns)
            )
    outcome.at_reference_speed()
    return outcome


# --------------------------------------------------------------------- #
# serving: two wire connections, prepared vs plan-cached text, appends
# --------------------------------------------------------------------- #


@dataclass
class Serving:
    db: Database
    a: Client
    b: Client
    statements: dict


def build_serving(params) -> Serving:
    catalog, mapping = ldbc_workload.generate_ldbc(params)
    catalog.register_graph_index(graph_index.build_graph_index(mapping))
    db = Database(catalog, workers=2)
    db.warmup()
    server = db.serve()
    a, b = Client(server.address), Client(server.address)
    statements = {
        kind: a.prepare(sql.format(name="?"))
        for kind, sql in SERVING_SQL.items() if kind != "count"
    }
    return Serving(db, a, b, statements)


def close_serving(serving: Serving) -> None:
    serving.a.close()
    serving.b.close()
    serving.db.close()


class Appends:
    """Connection B's writes: chunks of rows the count statement matches."""

    def __init__(self, table, first_id: int):
        self.table = table
        self.next_id = first_id
        self.done = 0

    def append_chunk(self) -> None:
        self.table.extend([
            (self.next_id + i, f"bench comment {self.next_id + i}", "2024-12-31")
            for i in range(CHUNK_ROWS)
        ])
        self.done += CHUNK_ROWS
        self.next_id += CHUNK_ROWS


class Gate:
    """Parks the client threads between operations, so that the main thread
    can probe the host's speed while no query runs."""

    def __init__(self, clients: int) -> None:
        self.clients = clients
        self.is_open = True
        self.parked = 0
        self.cond = threading.Condition()

    def checkpoint(self) -> None:
        """A client thread, between two operations: wait while closed."""
        with self.cond:
            if self.is_open:
                return
            self.parked += 1
            self.cond.notify_all()
            while not self.is_open:
                self.cond.wait()
            self.parked -= 1

    def open(self) -> None:
        with self.cond:
            self.is_open = True
            self.cond.notify_all()

    def close(self, wait: bool = True) -> None:
        """Close; with ``wait``, return once every client thread is parked."""
        with self.cond:
            self.is_open = False
            if wait and not self.cond.wait_for(
                lambda: self.parked == self.clients, timeout=120
            ):
                raise RuntimeError("a serving client did not park within 120 s")


class Connection:
    """One client thread's closed loop over whole rounds of operations."""

    def __init__(self, label, serving, answers, appends, rng, tracer, window, gate):
        self.label = label
        self.prepared = label == "A"
        self.serving = serving
        self.client = serving.a if self.prepared else serving.b
        self.answers = answers
        self.appends = appends
        self.rng = rng
        self.tracer = tracer
        #: [index of the current window or None, whether it is traced]
        self.window = window
        self.gate = gate
        #: (statement kind, window, seconds, traced) per timed round trip.
        self.samples: list[tuple[str, float, float, bool]] = []
        self.rows_produced = 0
        self.result_rows = 0
        self.peak_buffered = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.wrong: list[str] = []
        self.rounds = 0
        self.round_ops = [(kind, name) for kind in SERVING_SQL if kind != "count"
                          for name in oracle.SERVING_NAMES]
        if not self.prepared:
            # Only the writer reads the count: a scan of the appended table
            # that overlaps an append fails now and then (see README.md).
            self.round_ops += [("count", oracle.COUNT_SINCE)] * (
                len(self.round_ops) // COUNT_EVERY
            )

    def execute(self, kind: str, arg: str):
        if self.prepared:
            return self.serving.statements[kind].execute([arg])
        return self.client.execute(
            SERVING_SQL[kind].format(name=f"'{arg}'", since=f"'{arg}'")
        )

    def one_op(self, kind: str, arg: str, timed: bool) -> None:
        window, traced = self.window
        root = self.tracer.open("wire.round_trip") if traced else None
        started = time.perf_counter()
        try:
            result = self.execute(kind, arg)
        finally:
            elapsed = time.perf_counter() - started
            if root is not None:
                self.tracer.close(root)
        if timed:
            self.samples.append((kind, window, elapsed, traced))
            if traced:
                self.rows_produced += result.rows_produced
                self.result_rows += len(result.rows)
                self.peak_buffered = max(self.peak_buffered, result.peak_buffered_rows)
        if kind == "count":
            self.check_count(result.rows)
            return
        try:
            oracle.check(result.rows, self.answers["queries"][f"{kind}/{arg}"],
                         f"serving {self.label} {kind}({arg})")
        except oracle.WrongAnswer as exc:
            self.wrong.append(str(exc))

    def check_count(self, rows) -> None:
        """The writer's own reads: base plus exactly the chunks it appended,
        so whole chunks only and never decreasing."""
        expected = self.answers["count_base"] + self.appends.done
        if rows != [(expected,)]:
            self.wrong.append(
                f"serving {self.label}: count {rows} != base + appended = {expected}"
            )

    def run_round(self, timed: bool) -> None:
        order = self.round_ops[:]
        self.rng.shuffle(order)
        for position, (kind, arg) in enumerate(order):
            self.gate.checkpoint()
            if not self.prepared and position % APPEND_EVERY == APPEND_EVERY - 1:
                self.attempted += timed
                try:
                    self.appends.append_chunk()
                except Exception as exc:  # noqa: BLE001 - counted and reported
                    self.fail("append chunk", exc)
            self.attempted += timed
            try:
                self.one_op(kind, arg, timed)
            except Exception as exc:  # noqa: BLE001 - counted and reported
                self.fail(f"{kind}({arg})", exc)

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(
                f"FAILED serving {self.label} {what}: {type(exc).__name__}: {exc}"
            )

    def loop(self, stop: threading.Event) -> None:
        while not stop.is_set():
            self.run_round(timed=True)
            self.rounds += 1


def run_serving(params, answers, seconds, seed, tracer, trace) -> Outcome:
    outcome = Outcome()
    tracer.enabled = trace
    serving = timed_setups(lambda: build_serving(params), close_serving, tracer, outcome)
    tracer.enabled = False
    try:
        _serve(serving, answers, seconds, seed, tracer, trace, outcome)
    finally:
        tracer.enabled = False
        close_serving(serving)
    outcome.at_reference_speed()
    return outcome


def _serve(serving, answers, seconds, seed, tracer, trace, outcome) -> None:
    table = serving.db.catalog.table(oracle.COUNT_TABLE)
    appends = Appends(table, first_id=len(table) + 1_000_000)
    window = [None, False]
    gate = Gate(clients=2)
    rng = random.Random(seed)
    conns = [
        Connection(label, serving, answers, appends, random.Random(rng.random()),
                   tracer, window, gate)
        for label in ("A", "B")
    ]
    for conn in conns:  # warm-up round: fills the plan cache, checked
        conn.run_round(timed=False)
    cache = serving.db.plan_cache.stats
    hits, misses = cache.hits, cache.misses
    stop = threading.Event()
    threads = [threading.Thread(target=c.loop, args=(stop,), name=f"bench-{c.label}")
               for c in conns]
    # The clients run in windows; between two windows they are parked and
    # the host is probed.  A traced run alternates traced and untraced ones.
    window_s = min(TRACE_WINDOW_S if trace else WINDOW_S, seconds)
    durations: list[float] = []
    gate.close(wait=False)
    for thread in threads:
        thread.start()
    try:
        began = time.perf_counter()
        # A traced run needs traced and untraced windows, however short.
        min_windows = 4 if trace else 1
        while len(durations) < min_windows or time.perf_counter() - began < seconds:
            window[:] = [len(durations), trace and len(durations) % 2 == 1]
            tracer.enabled = window[1]
            opened = time.perf_counter()
            gate.open()
            time.sleep(window_s)
            gate.close()
            durations.append(time.perf_counter() - opened)
            tracer.enabled = False
            outcome.host.sample(WINDOW_PROBES)
    finally:
        window[:] = [None, False]
        tracer.enabled = False
        stop.set()
        gate.open()
        for thread in threads:
            thread.join(timeout=120)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a serving client did not finish its round in 120 s")
    hits, lookups = cache.hits - hits, cache.hits + cache.misses - hits - misses

    final = serving.a.execute(SERVING_SQL["count"].format(since=f"'{oracle.COUNT_SINCE}'"))
    expected = answers["count_base"] + appends.done
    if final.rows != [(expected,)]:
        outcome.wrong.append(
            f"serving: final count {final.rows} != base + appended = {expected}"
        )

    for conn in conns:
        outcome.attempted += conn.attempted
        outcome.failed += conn.failed
        outcome.wrong.extend(conn.wrong[:20])
        outcome.report.extend(conn.failures)
    samples = [(c.label, *s) for c in conns for s in c.samples]
    windows: dict[int, list] = {index: [] for index in range(len(durations))}
    for sample in samples:
        if sample[2] is not None:
            windows[sample[2]].append(sample)
    rates = {index: len(w) / durations[index] for index, w in windows.items()}
    best = fastest_quarter(windows, key=lambda index: -rates[index])
    times = [s[3] for index in best for s in windows[index]]
    by_kind: dict[tuple[str, str], list[float]] = {}
    for index in best:
        for label, kind, _, t, _ in windows[index]:
            by_kind.setdefault((label, kind), []).append(t)
    outcome.end_to_end.update(
        throughput_qps=(statistics.median(rates[index] for index in best), "1/s"),
        geomean_ms=(ms(geomean(statistics.median(v) for v in by_kind.values())), "ms"),
        p50_ms=(ms(statistics.median(times)), "ms"),
        p99_ms=(ms(p99(times)), "ms"),
        peak_rss_mb=(peak_rss_mb(), "MB"),
    )
    beyond = sum(1 for t in times if t > p99(times))
    outcome.report.append(
        f"serving: {len(samples)} round trips over {sum(c.rounds for c in conns)} rounds, "
        f"{appends.done} rows appended; round trips per second in each "
        f"{window_s:g} s window: " + " ".join(f"{rates[i]:.0f}" for i in sorted(windows))
    )
    outcome.report.append(
        f"fastest {len(best)} windows: {len(times)} round trips, "
        f"p99 has {beyond} beyond it"
    )
    outcome.report.append(
        "median round trip ms per connection/statement: "
        + " ".join(f"{l}/{k}={ms(statistics.median(v)):.3f}"
                   for (l, k), v in sorted(by_kind.items()))
    )
    if not trace:
        return

    traced_rt = [s[3] for s in samples if s[4]]
    plain_rt = [s[3] for s in samples if not s[4]]
    own = tracer.self_times()
    server = [s[2] - s[1] for s in tracer.spans if s[0] == "serving.server" and s[2]]
    exec_self = [o for s, o in zip(tracer.spans, own) if s[0] == "exec" and s[2]]
    append_spans = [s[2] - s[1] for s in tracer.spans
                    if s[0] == "storage.append" and s[2]]
    front = {name: sum(o for s, o in zip(tracer.spans, own) if s[0] == name)
             for name in QUERY_LAYERS}
    ops_per_round = sum(len(c.round_ops) for c in conns)
    traced_rounds = len(traced_rt) / ops_per_round
    mean = statistics.fmean
    outcome.layers.update({
        "wire.round_trip_ms": (ms(mean(traced_rt)), "ms"),
        "serving.server_ms": (ms(mean(server)), "ms"),
        "wire.overhead_ms": (ms(mean(traced_rt) - mean(server)), "ms"),
        "pool.queue_wait_ms": (ms(mean(tracer.queue_waits)), "ms"),
        "plan_cache.hit_rate": (hits / lookups if lookups else 0.0, "ratio"),
        "storage.append_ms": (ms(mean(append_spans)), "ms"),
        "storage.rows_appended": (appends.done, "count"),
        "exec.ms": (ms(sum(exec_self) / len(traced_rt)), "ms"),
        "exec.rows_produced": (sum(c.rows_produced for c in conns) / traced_rounds, "count"),
        "exec.result_rows": (sum(c.result_rows for c in conns) / traced_rounds, "count"),
        "trace.overhead_pct": (100.0 * (mean(traced_rt) / mean(plain_rt) - 1.0), "%"),
        "trace.uncovered_pct": (100.0 * (1.0 - mean(server) / mean(traced_rt)), "%"),
        "rel_opt.trees_visited": (tracer.counts.get("rel_opt.trees", 0) / traced_rounds, "count"),
        "exec.peak_buffered_rows": (max(c.peak_buffered for c in conns), "count"),
        "storage.column_bytes": (column_bytes(serving.db.catalog), "bytes"),
    })
    for span_name, metric in QUERY_LAYERS.items():
        if span_name != "exec":
            outcome.layers[metric] = (ms(front[span_name] / len(traced_rt)), "ms")
    outcome.report.append(
        f"plan cache on connection B: {hits} hits of {lookups} lookups"
    )
