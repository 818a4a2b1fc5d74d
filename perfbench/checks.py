"""Correctness checks run at the end of every benchmark run.

Each check compares what the program answered with what the benchmark
worked out on its own, from values it captured at the ``Pmcd.fetch``
boundary.  A failed comparison is recorded with the number of operations
it affects; those count as failed, and any failure makes the run exit
non-zero.  The comparison functions are pure so the benchmark's own
tests can feed them perturbed answers.
"""

from __future__ import annotations

import math

from repro.db.influxql import execute
from repro.db.sketch import SketchConfig

from .harness import CHECKED_FIELDS, DATABASE

#: MEAN and SUM must be within this relative distance of ``math.fsum``.
MEAN_SUM_REL = 1e-9
#: Rollup tiers of the default engine: a single-series GROUP BY equal to
#: one of them is answered from one bucket digest.  Any other width, and
#: any fleet-wide statement (digests merged across series and shards), may
#: merge digests and gets the merged bound.
TIERS = (10.0, 60.0)


class Checks:
    """Accumulates check outcomes; ``failed_ops`` feeds the run's count."""

    def __init__(self) -> None:
        self.passed = 0
        self.failed_ops = 0
        self.problems: list[str] = []

    def expect(self, ok: bool, ops: int, message: str) -> bool:
        if ok:
            self.passed += 1
        else:
            self.failed_ops += max(1, ops)
            self.problems.append(message)
        return ok

    @property
    def ok(self) -> bool:
        return not self.problems


# ----------------------------------------------------------------------
# Pure comparisons
# ----------------------------------------------------------------------
def fold(agg: str, values: list[float]) -> float | None:
    """The benchmark's own fold of raw values (None for an empty bucket)."""
    if not values:
        return None
    if agg == "COUNT":
        return float(len(values))
    if agg == "MIN":
        return min(values)
    if agg == "MAX":
        return max(values)
    if agg == "SUM":
        return math.fsum(values)
    if agg == "MEAN":
        return math.fsum(values) / len(values)
    raise ValueError(f"no reference fold for {agg}")


def agg_matches(agg: str, got: float | None, values: list[float]) -> bool:
    """COUNT/MIN/MAX exactly; MEAN/SUM within ``MEAN_SUM_REL`` of fsum."""
    want = fold(agg, values)
    if want is None:
        return got is None or (agg == "COUNT" and got == 0)
    if got is None:
        return False
    if agg in ("MEAN", "SUM"):
        return abs(got - want) <= MEAN_SUM_REL * max(abs(want), abs(got), 1e-300)
    return got == want


def rank_interval(answer: float, values: list[float]) -> tuple[float, float]:
    """Share of values below ``answer`` and share at or below it."""
    n = len(values)
    below = sum(1 for v in values if v < answer)
    at_or_below = sum(1 for v in values if v <= answer)
    return below / n, at_or_below / n


def percentile_within_bound(
    answer: float | None, values: list[float], pct: float, bound: float
) -> bool:
    """The answer's rank among the raw values is within ``bound`` of the
    requested rank ``pct / 100``."""
    if not values:
        return answer is None
    if answer is None:
        return False
    lo, hi = rank_interval(answer, values)
    q = pct / 100.0
    return lo - bound <= q <= hi + bound


def digest_bound(group_by_s: float, single_series: bool) -> float:
    merged = not single_series or group_by_s not in TIERS
    return SketchConfig().digest_bound(merged=merged)


def bucket(values: list[tuple[float, float]], group_by_s: float) -> dict[float, list[float]]:
    out: dict[float, list[float]] = {}
    for t, v in values:
        out.setdefault((t // group_by_s) * group_by_s, []).append(v)
    return out


def series_equal(a: list[tuple[float, float | None]], b: list[tuple[float, float | None]]) -> bool:
    return len(a) == len(b) and all(
        ta == tb and (va == vb or (va != va and vb != vb))
        for (ta, va), (tb, vb) in zip(a, b)
    )


def serving_balanced(submitted: int, outcomes: dict[int, str]) -> tuple[bool, int]:
    """Every counted submission ended done, coalesced, timed out or
    rejected; returns (balanced, requests that did not succeed)."""
    ended = sum(
        1 for o in outcomes.values()
        if o in ("done", "coalesced", "timeout") or o.startswith("rejected:")
    )
    unsuccessful = sum(
        1 for o in outcomes.values() if o not in ("done", "coalesced")
    )
    return submitted == ended == len(outcomes), unsuccessful


# ----------------------------------------------------------------------
# Checks against a finished run
# ----------------------------------------------------------------------
def stored_values(influx, database: str = DATABASE) -> int:
    """Field values a raw scan of every measurement returns."""
    total = 0
    for m in influx.measurements(database):
        rs = execute(influx, database, f'SELECT * FROM "{m}"')
        total += sum(1 for _, row in rs.rows for v in row if v is not None)
    return total


def check_conservation(checks: Checks, fleet, pipeline=None, superdb=None) -> None:
    """Fetched values = stored values = Σ ``SamplingStats.inserted_points``
    (and, with durable ingest, an empty backlog and dead-letter queue)."""
    fetched = fleet.fetched_values
    inserted = fleet.inserted
    short_runs = sum(1 for d in fleet.run_shortfalls if d)
    checks.expect(
        short_runs == 0, short_runs,
        f"conservation: {short_runs} Sampler.run calls landed fewer values "
        "than they fetched",
    )
    stored = stored_values(fleet.influx)
    checks.expect(
        fetched == stored == inserted, short_runs or 1,
        f"conservation: fetched {fetched}, stored {stored}, "
        f"inserted_points {inserted}",
    )
    if superdb is not None:
        federated = stored_values(superdb.influx, "superdb")
        checks.expect(federated == fetched, 1,
                      f"conservation: federated {federated} != fetched {fetched}")
    if pipeline is not None:
        backlog = pipeline.backlog_records()
        dead = len(pipeline.log.dlq)
        checks.expect(
            backlog == 0 and dead == 0, backlog + dead,
            f"durable ingest: backlog {backlog} records, {dead} dead letters",
        )


def check_aggregates(checks: Checks, fleet, rng, windows: int = 6) -> None:
    """Sampled series and windows, single-series and fleet-wide buckets:
    COUNT/MIN/MAX exact, MEAN/SUM within 1e-9, PERCENTILE within its rank
    bound — all against folds of the fetched values."""
    t_end = fleet.time()
    span = max(fleet.round_s, min(t_end, 600.0))
    for i in range(windows):
        meas, fld = CHECKED_FIELDS[i % len(CHECKED_FIELDS)]
        host = None if i % 2 else fleet.hosts[int(rng.integers(len(fleet.hosts)))]
        group_by = (7.0, 10.0, 30.0, 60.0)[int(rng.integers(4))]
        t1 = float(rng.uniform(span, t_end)) if t_end > span else t_end
        t0 = t1 - span
        where = f"time >= {t0!r} AND time <= {t1!r}"
        if host is not None:
            where = f'host="{host}" AND {where}'
        raw = fleet.raw_series((meas, fld), host, t0, t1)
        ref = bucket(raw, group_by)
        scope = host or "fleet"
        for agg in ("COUNT", "MIN", "MAX", "MEAN", "SUM"):
            rs = execute(fleet.influx, DATABASE,
                         f'SELECT {agg}("{fld}") FROM "{meas}" WHERE {where} '
                         f"GROUP BY time({group_by:g}s)")
            got = {t: row[0] for t, row in rs.rows}
            bad = [k for k in set(ref) | set(got)
                   if not agg_matches(agg, got.get(k), ref.get(k, []))]
            checks.expect(not bad, 1,
                          f"{agg}({meas}.{fld}) {scope} [{t0:g},{t1:g}] "
                          f"time({group_by:g}s): {len(bad)} buckets differ")
        pct = (50.0, 90.0, 95.0, 99.0)[i % 4]
        rs = execute(fleet.influx, DATABASE,
                     f'SELECT PERCENTILE("{fld}", {pct:g}) FROM "{meas}" '
                     f"WHERE {where} GROUP BY time({group_by:g}s)")
        bound = digest_bound(group_by, host is not None)
        bad = [t for t, row in rs.rows
               if not percentile_within_bound(row[0], ref.get(t, []), pct, bound)]
        checks.expect(not bad, 1,
                      f"PERCENTILE({meas}.{fld}, {pct:g}) {scope} "
                      f"time({group_by:g}s): {len(bad)} buckets outside rank "
                      f"bound {bound:g}")


def check_continuous_queries(checks: Checks, registrar) -> None:
    """Each materialized series equals a fresh execute over its closed
    buckets."""
    server = registrar.server
    for name in registrar.names():
        cq = registrar.get(name)
        statement = server.target_statement(cq.target, t0=cq.start_t, t1=cq.watermark)
        rs = execute(server.influx, server.database, statement)
        fresh = [(t, row[0]) for t, row in rs.rows
                 if t < cq.watermark and row[0] is not None]
        times, values = registrar.series(name)
        checks.expect(series_equal(list(zip(times, values)), fresh),
                      cq.refreshes,
                      f"continuous query {name}: materialized series differs "
                      "from a fresh execute")


def check_panel_cache(checks: Checks, grafana, requests, tenant=None) -> None:
    """Re-issue sampled panel targets; every answer served from the cache
    must equal a direct execute of the same statement."""
    hits = 0
    for target, t0, t1, tag in requests:
        times, values, hit = grafana.execute_target(target, t0, t1, tag, tenant=tenant)
        if not hit:
            continue
        hits += 1
        statement = grafana.target_statement(target, t0, t1, tag)
        rs = execute(grafana.influx, grafana.database, statement)
        direct = [(t, row[0]) for t, row in rs.rows if row[0] is not None]
        checks.expect(series_equal(list(zip(times, values)), direct), 1,
                      f"panel cache: stale answer for {statement}")
    checks.expect(hits > 0, 1, "panel cache: no sampled target was a cache hit")


def check_serving(checks: Checks, frontend, submitted: int) -> None:
    balanced, unsuccessful = serving_balanced(submitted, frontend.outcomes)
    checks.expect(balanced, abs(submitted - len(frontend.outcomes)) or 1,
                  f"serving: {submitted} submissions, "
                  f"{len(frontend.outcomes)} outcomes")
    checks.expect(unsuccessful == 0, unsuccessful,
                  f"serving: {unsuccessful} requests rejected or timed out")
