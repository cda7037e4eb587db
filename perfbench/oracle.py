"""Independent answers for the benchmark queries, computed by SQLite.

Every benchmark query has a plain-SQL join rendering here, written by hand
against the generated tables: each pattern vertex is a join with its vertex
table and each pattern edge a join with its edge table.  Under the engine's
default homomorphism semantics such plain joins give exactly the MATCH
result, so the result bags must agree.  The oracle shares no code with the
engine: it reads the generated tables and nothing else.

``python3 perfbench/oracle.py`` regenerates ``answers.json`` from SQLite
(about a minute; QC2's 333k-row square takes most of it).  The benchmark
reads the stored answers, so the oracle costs a run neither set-up time nor
memory.

Answer forms:

* ``bag`` -- the result as a multiset: row count plus a SHA-256 over the
  sorted canonical rows (the rows themselves when there are few);
* ``topk`` -- an ``ORDER BY ... LIMIT k`` query.  The stored candidates are
  every row up to and including the tie group of the k-th row, each with
  its sort key, so any valid top-k (ties broken either way) is accepted and
  nothing else is.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import sys
from collections import Counter
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ANSWERS_PATH = os.path.join(HERE, "answers.json")

#: Bags up to this size are stored row by row; larger ones as a digest.
INLINE_ROWS = 40


# --------------------------------------------------------------------- #
# canonical rows
# --------------------------------------------------------------------- #


def canon(row) -> str:
    """One row as text that compares equal across SQLite, the engine and
    the wire (tuples and JSON lists of ints and strings)."""
    return repr(tuple(row))


def bag_digest(rows) -> tuple[int, str]:
    lines = sorted(map(canon, rows))
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()


# --------------------------------------------------------------------- #
# SQL renderings
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Rendering:
    """``SELECT select FROM tables WHERE where tail``.

    ``n_keys`` trailing select columns are sort keys, not output; they and
    ``limit`` describe a top-k query.
    The MATCH row count (for the GLogue q-error) is ``COUNT(*)`` over the
    same tables and conditions.
    """

    select: str
    tables: str
    where: str
    tail: str = ""
    n_keys: int = 0
    limit: int | None = None

    def sql(self) -> str:
        return f"SELECT {self.select} FROM {self.tables} WHERE {self.where} {self.tail}"

    def match_sql(self) -> str:
        return f"SELECT COUNT(*) FROM {self.tables} WHERE {self.where}"


def _knows_path(length: int) -> tuple[list[str], list[str]]:
    """person p0 -knows-> p1 ... -> p<length>: (tables, join conditions)."""
    tables = ["person p0"]
    conds = []
    for i in range(1, length + 1):
        tables += [f"knows k{i}", f"person p{i}"]
        conds += [f"k{i}.p1 = p{i - 1}.id", f"k{i}.p2 = p{i}.id"]
    return tables, conds


def _r(select, tables, conds, tail="", n_keys=0, limit=None):
    return Rendering(select, ", ".join(tables), " AND ".join(conds), tail, n_keys, limit)


def ldbc_renderings() -> dict[str, Rendering]:
    """The 25 LDBC queries of ``repro.workloads.ldbc`` (IC, QR, QC)."""
    q: dict[str, Rendering] = {}
    for n in (1, 2, 3):
        t, c = _knows_path(n)
        q[f"IC1-{n}"] = _r(
            f"p{n}.first_name, p{n}.last_name", t, c + ["p0.first_name = 'Jan'"]
        )
    q["IC2"] = _r(
        "f.first_name, m.content, m.creation_date, m.creation_date",
        ["person p", "knows k", "person f", "has_creator hc", "post m"],
        ["k.p1 = p.id", "k.p2 = f.id", "hc.post_id = m.id", "hc.person_id = f.id",
         "p.first_name = 'Jun'", "m.creation_date <= '2024-06-01'"],
        "ORDER BY m.creation_date DESC", 1, 20,
    )
    for n in (1, 2):
        t, c = _knows_path(n)
        q[f"IC3-{n}"] = _r(
            f"p{n}.first_name, pl.name",
            t + ["is_located_in li", "place pl"],
            c + [f"li.person_id = p{n}.id", "li.place_id = pl.id",
                 "p0.first_name = 'Ali'", "pl.name = 'Germany'"],
        )
    q["IC4"] = _r(
        "t.name, COUNT(*), COUNT(*), t.name",
        ["person p", "knows k", "person f", "has_creator hc", "post m",
         "has_tag ht", "tag t"],
        ["k.p1 = p.id", "k.p2 = f.id", "hc.post_id = m.id", "hc.person_id = f.id",
         "ht.post_id = m.id", "ht.tag_id = t.id", "p.first_name = 'Ken'"],
        "GROUP BY t.name ORDER BY COUNT(*) DESC, t.name ASC", 2, 10,
    )
    for n in (1, 2):
        t, c = _knows_path(n)
        q[f"IC5-{n}"] = _r(
            "fo.title, COUNT(*), COUNT(*), fo.title",
            t + ["forum fo", "has_member hm", "container_of co", "post m",
                 "has_creator hc"],
            c + ["hm.forum_id = fo.id", f"hm.person_id = p{n}.id",
                 "co.forum_id = fo.id", "co.post_id = m.id",
                 "hc.post_id = m.id", f"hc.person_id = p{n}.id",
                 "p0.first_name = 'Abe'"],
            "GROUP BY fo.title ORDER BY COUNT(*) DESC, fo.title ASC", 2, 10,
        )
    for n in (1, 2):
        t, c = _knows_path(n)
        q[f"IC6-{n}"] = _r(
            "t2.name, COUNT(*), COUNT(*), t2.name",
            t + ["post m", "has_creator hc", "has_tag h1", "tag t1", "has_tag h2",
                 "tag t2"],
            c + ["hc.post_id = m.id", f"hc.person_id = p{n}.id",
                 "h1.post_id = m.id", "h1.tag_id = t1.id",
                 "h2.post_id = m.id", "h2.tag_id = t2.id",
                 "p0.first_name = 'Ada'", "t1.name = 'music_0'"],
            "GROUP BY t2.name ORDER BY COUNT(*) DESC, t2.name ASC", 2, 10,
        )
    q["IC7"] = _r(
        "f.first_name, l.creation_date, l.creation_date",
        ["person p", "knows k", "person f", "likes l", "post m", "has_creator hc"],
        ["k.p1 = p.id", "k.p2 = f.id", "l.person_id = f.id", "l.post_id = m.id",
         "hc.post_id = m.id", "hc.person_id = p.id", "p.first_name = 'Eva'"],
        "ORDER BY l.creation_date DESC", 1, 20,
    )
    q["IC8"] = _r(
        "a.first_name, c.content, c.creation_date",
        ["comment c", "reply_of r", "post m", "has_creator hc", "person p",
         "comment_creator cc", "person a"],
        ["r.comment_id = c.id", "r.post_id = m.id", "hc.post_id = m.id",
         "hc.person_id = p.id", "cc.comment_id = c.id", "cc.person_id = a.id",
         "p.first_name = 'Ian'"],
        "ORDER BY c.creation_date DESC", 1, 20,
    )
    for n in (1, 2):
        t, c = _knows_path(n)
        q[f"IC9-{n}"] = _r(
            f"p{n}.first_name, m.content, m.creation_date",
            t + ["post m", "has_creator hc"],
            c + ["hc.post_id = m.id", f"hc.person_id = p{n}.id",
                 "p0.first_name = 'Lee'", "m.creation_date <= '2024-01-01'"],
            "ORDER BY m.creation_date DESC", 1, 20,
        )
    for n in (1, 2):
        t, c = _knows_path(n)
        q[f"IC11-{n}"] = _r(
            f"p{n}.first_name, t.name",
            t + ["has_interest hi", "tag t"],
            c + [f"hi.person_id = p{n}.id", "hi.tag_id = t.id",
                 "p0.first_name = 'Mia'", "substr(t.name, 1, 4) = 'code'"],
        )
    q["IC12"] = _r(
        "f.first_name, COUNT(*), COUNT(*), f.first_name",
        ["person p", "knows k", "person f", "comment c", "comment_creator cc",
         "reply_of r", "post m", "has_tag ht", "tag t"],
        ["k.p1 = p.id", "k.p2 = f.id", "cc.comment_id = c.id", "cc.person_id = f.id",
         "r.comment_id = c.id", "r.post_id = m.id", "ht.post_id = m.id",
         "ht.tag_id = t.id", "p.first_name = 'Noa'",
         "substr(t.name, 1, 7) = 'science'"],
        "GROUP BY f.first_name ORDER BY COUNT(*) DESC, f.first_name ASC", 2, 20,
    )
    t, c = _knows_path(2)
    q["QR1"] = _r("p2.first_name", t, c + ["p0.id = 5"])
    q["QR2"] = _r(
        "m.content",
        ["person a", "knows k", "person b", "has_creator hc", "post m"],
        ["k.p1 = a.id", "k.p2 = b.id", "hc.post_id = m.id", "hc.person_id = b.id",
         "a.first_name = 'Jan'", "m.creation_date >= '2024-01-01'"],
    )
    t, c = _knows_path(3)
    q["QR3"] = _r("p3.first_name", t, c + ["p0.first_name = 'Eva'"])
    q["QR4"] = _r(
        "t.name",
        ["person a", "knows k", "person b", "has_creator hc", "post m", "has_tag ht",
         "tag t"],
        ["k.p1 = a.id", "k.p2 = b.id", "hc.post_id = m.id", "hc.person_id = b.id",
         "ht.post_id = m.id", "ht.tag_id = t.id", "a.first_name = 'Uma'"],
    )
    def knows(vertices: str, edges: list[tuple[str, str]]):
        tables = [f"person {v}" for v in vertices]
        conds = []
        for i, (s, d) in enumerate(edges):
            tables.append(f"knows e{i}")
            conds += [f"e{i}.p1 = {s}.id", f"e{i}.p2 = {d}.id"]
        return tables, conds

    t, c = knows("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    q["QC1"] = _r("a.id, b.id, c.id", t, c)
    t, c = knows("abcd", [("a", "b"), ("b", "c"), ("a", "d"), ("d", "c")])
    q["QC2"] = _r("a.id, c.id", t, c)
    t, c = knows(
        "abcd", [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
    )
    q["QC3"] = _r("a.id", t, c)
    return q


#: JOB building blocks: (tables, join conditions, output MIN column).
_JOB_BLOCKS = {
    "kw": (["movie_keyword mk", "keyword k"],
           ["mk.movie_id = t.id", "mk.keyword_id = k.id"], None),
    "company": (["movie_companies mc", "movie_companies_title mct",
                 "movie_companies_company mcc", "company_name cn"],
                ["mct.mc_id = mc.id", "mct.movie_id = t.id", "mcc.mc_id = mc.id",
                 "mcc.company_id = cn.id"], "cn.name"),
    "kind": (["movie_companies_type mcy", "company_type ct"],
             ["mcy.mc_id = mc.id", "mcy.type_id = ct.id"], None),
    "cast": (["cast_info ci", "cast_info_title cit", "cast_info_name cin", "name n"],
             ["cit.ci_id = ci.id", "cit.movie_id = t.id", "cin.ci_id = ci.id",
              "cin.person_id = n.id"], "n.name"),
    "info": (["movie_info mi", "movie_info_title mit", "movie_info_type miy",
              "info_type it"],
             ["mit.mi_id = mi.id", "mit.movie_id = t.id", "miy.mi_id = mi.id",
              "miy.type_id = it.id"], None),
    "rating": (["movie_info_idx mx", "movie_info_idx_title mxt",
                "movie_info_idx_type mxy", "info_type it2"],
               ["mxt.mi_id = mx.id", "mxt.movie_id = t.id", "mxy.mi_id = mx.id",
                "mxy.type_id = it2.id", "it2.info = 'rating'"], "mx.info"),
}

#: The 33 JOB queries as filters over the blocks above:
#: (keywords, country, company kind, name prefix, gender, (info type, values),
#:  rating above, year above, year below).
_JOB = {
    "JOB1": (["sequel"], "[us]", "production companies", None, None, None, None, None, None),
    "JOB2": (["character-name-in-title"], "[de]", None, None, None, None, None, None, None),
    "JOB3": (["sequel", "revenge"], None, None, None, None, None, None, 2005, None),
    "JOB4": (["sequel"], None, None, None, None, None, "5.0", None, None),
    "JOB5": (None, "[fr]", None, None, None, ("languages", ["French", "German"]), None, None, None),
    "JOB6": (["murder"], None, None, "B", None, None, None, 2010, None),
    "JOB7": (None, "[us]", None, "A", None, None, None, 1990, 2020),
    "JOB8": (None, "[jp]", None, "C", "f", None, None, None, None),
    "JOB9": (None, "[us]", "distributors", "D", "f", None, None, None, None),
    "JOB10": (None, "[gb]", "production companies", "E", None, None, None, None, None),
    "JOB11": (["sequel"], "[gb]", "production companies", None, None, None, None, 2000, None),
    "JOB12": (None, "[us]", None, None, None, ("genres", ["Drama", "Horror"]), "6.0", None, None),
    "JOB13": (None, "[de]", None, None, None, ("rating", None), "4.0", None, None),
    "JOB14": (["murder", "revenge"], None, None, None, None, ("countries", None), "5.5", None, None),
    "JOB15": (None, "[us]", None, None, None, ("release dates", None), None, 2000, None),
    "JOB16": (["character-name-in-title"], "[us]", None, "F", None, None, None, None, None),
    "JOB17": (["character-name-in-title"], "[us]", None, "B", None, None, None, None, None),
    "JOB18": (None, None, None, "G", "m", ("budget", None), None, None, None),
    "JOB19": (None, "[us]", None, "H", "f", ("release dates", None), None, None, None),
    "JOB20": (["sequel"], None, None, "I", None, None, None, 1995, None),
    "JOB21": (["sequel"], "[de]", None, None, None, ("languages", ["German"]), None, None, None),
    "JOB22": (["revenge"], "[us]", None, None, None, ("genres", ["Horror"]), None, 2005, None),
    "JOB23": (["murder"], "[us]", "production companies", None, None, ("release dates", None), None, None, None),
    "JOB24": (["revenge"], "[us]", None, "J", None, ("genres", None), None, None, None),
    "JOB25": (["murder"], None, None, "K", "m", ("genres", ["Horror", "Thriller"]), None, None, None),
    "JOB26": (["character-name-in-title"], None, None, "L", None, None, "6.5", None, None),
    "JOB27": (["sequel"], "[gb]", "production companies", "M", None, None, None, None, None),
    "JOB28": (["murder"], "[de]", None, None, None, ("countries", None), "5.0", None, None),
    "JOB29": (["love"], "[us]", None, "N", "f", ("release dates", None), None, None, None),
    "JOB30": (["murder", "revenge"], None, None, "O", None, ("genres", ["Horror"]), None, 2000, None),
    "JOB31": (["murder"], "[de]", None, "P", "m", None, None, None, None),
    "JOB32": (["love"], "[jp]", None, None, None, None, None, None, None),
    "JOB33": (None, "[us]", "distributors", None, None, None, "7.0", 2010, None),
}


def _quoted(values) -> str:
    return ", ".join(f"'{v}'" for v in values)


def job_renderings() -> dict[str, Rendering]:
    """The 33 JOB queries of ``repro.workloads.job``: one MIN() row each."""
    out = {}
    for name, (kws, country, kind, prefix, gender, info, rating, y_gt, y_lt) in _JOB.items():
        blocks, conds = [], []
        if kws is not None:
            blocks.append("kw")
            conds.append(f"k.keyword IN ({_quoted(kws)})")
        if country is not None or kind is not None:
            blocks.append("company")
            if country is not None:
                conds.append(f"cn.country_code = '{country}'")
            if kind is not None:
                blocks.append("kind")
                conds.append(f"ct.kind = '{kind}'")
        if prefix is not None or gender is not None:
            blocks.append("cast")
            if prefix is not None:
                conds.append(f"substr(n.name, 1, {len(prefix)}) = '{prefix}'")
            if gender is not None:
                conds.append(f"n.gender = '{gender}'")
        if info is not None:
            blocks.append("info")
            conds.append(f"it.info = '{info[0]}'")
            if info[1]:
                conds.append(f"mi.info IN ({_quoted(info[1])})")
        if rating is not None:
            blocks.append("rating")
            conds.append(f"mx.info > '{rating}'")
        if y_gt is not None:
            conds.append(f"t.production_year > {y_gt}")
        if y_lt is not None:
            conds.append(f"t.production_year < {y_lt}")
        if not blocks:
            blocks.append("kw")
        tables, joins, outputs = ["title t"], [], ["MIN(t.title)"]
        for block in blocks:
            b_tables, b_joins, b_out = _JOB_BLOCKS[block]
            tables += b_tables
            joins += b_joins
            if b_out is not None:
                outputs.append(f"MIN({b_out})")
        out[name] = _r(", ".join(outputs), tables, joins + conds)
    return out


# --------------------------------------------------------------------- #
# the serving workload's statements
# --------------------------------------------------------------------- #

#: First names the serving statements rotate through (all occur in the data).
SERVING_NAMES = [
    "Jan", "Jun", "Ali", "Ken", "Abe", "Ada", "Eva", "Ian", "Lee", "Mia",
    "Noa", "Oto", "Pia", "Raj", "Sam", "Tia", "Uma", "Vik", "Wei", "Yan",
]

#: The appended table, the count statement's predicate, and its rendering.
COUNT_TABLE = "comment"
COUNT_SINCE = "2024-01-01"


def serving_renderings(name: str) -> dict[str, Rendering]:
    """IC-shaped serving statements for one ``first_name`` parameter."""
    renderings = {}
    t, c = _knows_path(1)
    who = f"p0.first_name = '{name}'"
    renderings["friends"] = _r("p1.first_name, p1.last_name", t, c + [who])
    renderings["friends_in"] = _r(
        "p1.first_name, pl.name",
        t + ["is_located_in li", "place pl"],
        c + ["li.person_id = p1.id", "li.place_id = pl.id", who,
             "pl.name = 'Germany'"],
    )
    renderings["friend_posts"] = _r(
        "p1.first_name, m.content, m.creation_date",
        t + ["post m", "has_creator hc"],
        c + ["hc.post_id = m.id", "hc.person_id = p1.id", who],
        "ORDER BY m.creation_date DESC", 1, 20,
    )
    renderings["friend_tags"] = _r(
        "p1.first_name, t.name",
        t + ["has_interest hi", "tag t"],
        c + ["hi.person_id = p1.id", "hi.tag_id = t.id", who,
             "substr(t.name, 1, 4) = 'code'"],
    )
    return renderings


def count_rendering() -> str:
    return f"SELECT COUNT(*) FROM {COUNT_TABLE} WHERE creation_date >= '{COUNT_SINCE}'"


# --------------------------------------------------------------------- #
# loading and answering
# --------------------------------------------------------------------- #


def load_sqlite(catalog) -> sqlite3.Connection:
    """Copy every table of ``catalog`` into an in-memory SQLite database,
    with an index on each key column and statistics for SQLite's planner,
    without which some JOB join orders take minutes."""
    con = sqlite3.connect(":memory:")
    for name in catalog.table_names():
        table = catalog.table(name)
        columns = table.schema.column_names
        con.execute(f'CREATE TABLE "{name}" ({", ".join(columns)})')
        data = [table.column(c) for c in columns]
        con.executemany(
            f'INSERT INTO "{name}" VALUES ({", ".join("?" * len(columns))})',
            zip(*data),
        )
        for column in columns:
            if column == "id" or column.endswith("_id") or column in ("p1", "p2"):
                con.execute(f'CREATE INDEX "{name}_{column}" ON "{name}" ({column})')
    con.execute("ANALYZE")
    con.commit()
    return con


def answer(con: sqlite3.Connection, rendering: Rendering) -> dict:
    rows = con.execute(rendering.sql()).fetchall()
    if rendering.limit is None:
        count, digest = bag_digest(rows)
        out = {"kind": "bag", "count": count, "sha256": digest}
        if count <= INLINE_ROWS:
            out["rows"] = [list(r) for r in sorted(rows, key=canon)]
        return out
    n_out = len(rows[0]) - rendering.n_keys if rows else 0
    k = rendering.limit
    candidates = rows[:k]
    if len(rows) > k:
        boundary = rows[k - 1][n_out:]
        for row in rows[k:]:
            if row[n_out:] != boundary:
                break
            candidates.append(row)
    return {
        "kind": "topk",
        "limit": k,
        "count": min(k, len(rows)),
        "n_out": n_out,
        "candidates": [list(r) for r in candidates],
    }


def match_rows(con: sqlite3.Connection, rendering: Rendering) -> int:
    return con.execute(rendering.match_sql()).fetchone()[0]


def suite_answers(con, renderings: dict[str, Rendering]) -> dict:
    out = {}
    for name, rendering in renderings.items():
        entry = answer(con, rendering)
        entry["match_rows"] = match_rows(con, rendering)
        out[name] = entry
    return out


def serving_answers(con) -> dict:
    queries = {}
    for name in SERVING_NAMES:
        for kind, rendering in serving_renderings(name).items():
            queries[f"{kind}/{name}"] = answer(con, rendering)
    return {
        "queries": queries,
        "count_base": con.execute(count_rendering()).fetchone()[0],
    }


# --------------------------------------------------------------------- #
# checking
# --------------------------------------------------------------------- #


class WrongAnswer(AssertionError):
    """A result disagrees with the oracle."""


def check(rows, expected: dict, what: str) -> None:
    """Raise :class:`WrongAnswer` unless ``rows`` is a valid answer."""
    if expected["kind"] == "bag":
        if len(rows) != expected["count"]:
            raise WrongAnswer(f"{what}: {len(rows)} rows, expected {expected['count']}")
        if "rows" in expected:
            got = sorted(map(canon, rows))
            if got != sorted(map(canon, expected["rows"])):
                raise WrongAnswer(f"{what}: rows differ: {got[:5]} vs {expected['rows'][:5]}")
        elif bag_digest(rows)[1] != expected["sha256"]:
            raise WrongAnswer(f"{what}: result bag differs from the oracle's")
        return
    _check_topk(rows, expected, what)


def _check_topk(rows, expected: dict, what: str) -> None:
    if len(rows) != expected["count"]:
        raise WrongAnswer(f"{what}: {len(rows)} rows, expected {expected['count']}")
    n_out = expected["n_out"]
    candidates = expected["candidates"]
    # Rank each distinct sort key in the oracle's order.
    ranks: dict[str, int] = {}
    for cand in candidates:
        ranks.setdefault(canon(cand[n_out:]), len(ranks))
    last_rank = ranks[canon(candidates[-1][n_out:])] if candidates else 0
    options: dict[str, list[int]] = {}
    must: Counter = Counter()
    may: Counter = Counter()
    for cand in candidates:
        out, rank = canon(cand[:n_out]), ranks[canon(cand[n_out:])]
        options.setdefault(out, []).append(rank)
        (may if rank == last_rank else must)[out] += 1
    got = Counter(canon(r) for r in rows)
    if got - must - may or must - got:
        raise WrongAnswer(f"{what}: not a top-{expected['limit']} of the oracle's rows")
    # Some assignment of sort keys to the rows must be non-decreasing.
    current = 0
    for row in rows:
        later = [r for r in options[canon(row)] if r >= current]
        if not later:
            raise WrongAnswer(f"{what}: rows are not in ORDER BY order")
        current = min(later)


# --------------------------------------------------------------------- #
# regenerate answers.json
# --------------------------------------------------------------------- #


def build_answers(ldbc_catalog, job_catalog) -> dict:
    con = load_sqlite(ldbc_catalog)
    ldbc = suite_answers(con, ldbc_renderings())
    serving = serving_answers(con)
    con.close()
    con = load_sqlite(job_catalog)
    job = suite_answers(con, job_renderings())
    con.close()
    return {"sqlite": sqlite3.sqlite_version, "ldbc": ldbc, "job": job, "serving": serving}


def main() -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import loads

    answers = build_answers(
        loads.ldbc_workload.generate_ldbc(loads.LDBC_PARAMS)[0],
        loads.job_workload.generate_imdb(loads.JOB_PARAMS)[0],
    )
    with open(ANSWERS_PATH, "w") as fh:
        json.dump(answers, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {ANSWERS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
