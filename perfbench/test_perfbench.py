"""Tests for the benchmark itself (run: ``python -m pytest perfbench -q``).

Every workload runs to its end at a small size, traced and untraced, and
every correctness check rejects a perturbed answer.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.db.influx import Point  # noqa: E402
from repro.db.sketch import nearest_rank  # noqa: E402

from perfbench import checks as ck  # noqa: E402
from perfbench.harness import CHECKED_FIELDS, Recorder, now, percentile  # noqa: E402
from perfbench.tracing import LAYER_METRICS, Tracer, query_shape  # noqa: E402
from perfbench.workloads import SPECS, WORKLOADS, Spec, run  # noqa: E402

SMALL = {
    "fleet_ingest": Spec(nodes=2, shards=2, hz=1.0, round_s=5.0, warmup_rounds=12,
                         min_rounds=14),
    "fleet_dashboards": Spec(nodes=2, shards=2, hz=1.0, round_s=60.0, history_rounds=3,
                             min_rounds=2),
    "live_mixed": Spec(nodes=2, shards=0, hz=2.0, round_s=10.0, tenants=2,
                       warmup_rounds=12, min_rounds=14),
}
END_TO_END = {
    "setup_s", "ingest_values_per_s", "freshness_p50_ms", "freshness_p95_ms",
    "panel_p50_ms", "panel_p95_ms", "query_p50_ms", "query_p95_ms",
    "reads_per_s", "rss_bytes_per_value",
}


def small_workload(name: str, seed: int = 3):
    """A finished small run's workload object, for perturbing its state."""
    import numpy as np

    rec = Recorder()
    workload = WORKLOADS[name](SMALL[name], seed, np.random.default_rng(seed), rec)
    workload.measure(now() + 0.2)
    return workload


def test_specs_cover_every_workload():
    assert set(SPECS) == set(WORKLOADS) == set(SMALL)


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_to_its_end(name, trace):
    result = run(name, 5, 0.3, trace, origin=now(), spec=SMALL[name])
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert set(result["end_to_end"]) == END_TO_END
    assert all(v > 0 for v in result["end_to_end"].values())
    if trace:
        assert list(result["layers"]) == list(LAYER_METRICS)
        assert result["layers"]["pcp.fetch.values"] > 0
    else:
        assert result["layers"] is None


# ----------------------------------------------------------------------
# Each check rejects a perturbed answer
# ----------------------------------------------------------------------
def test_conservation_rejects_a_count_off_by_one():
    w = small_workload("fleet_dashboards")
    checks = ck.Checks()
    ck.check_conservation(checks, w.fleet)
    assert checks.ok
    w.fleet.taps[w.fleet.hosts[0]].values += 1
    checks = ck.Checks()
    ck.check_conservation(checks, w.fleet)
    assert not checks.ok and checks.failed_ops >= 1


def test_conservation_rejects_a_record_left_unapplied():
    w = small_workload("fleet_ingest")
    checks = ck.Checks()
    ck.check_conservation(checks, w.fleet, w.pipeline, w.superdb)
    assert checks.ok
    t = w.fleet.time()
    point = Point("kernel_all_load", {"host": "x"}, {"_value": 1.0}, t)
    w.pipeline.produce(t, t, [point], "x")
    w.pipeline.producer.flush(t)
    checks = ck.Checks()
    ck.check_conservation(checks, w.fleet, w.pipeline, w.superdb)
    assert any("backlog" in p for p in checks.problems)


def test_aggregate_checks_pass_on_a_real_store():
    import numpy as np

    w = small_workload("live_mixed")
    checks = ck.Checks()
    ck.check_aggregates(checks, w.fleet, np.random.default_rng(0), windows=4)
    assert checks.ok and checks.passed == 4 * 6


def test_exact_and_close_aggregates():
    values = [0.1, 0.2, 0.7, 1e6, -3.5]
    for agg in ("COUNT", "MIN", "MAX", "MEAN", "SUM"):
        assert ck.agg_matches(agg, ck.fold(agg, values), values)
    assert not ck.agg_matches("COUNT", len(values) + 1.0, values)
    assert not ck.agg_matches("MAX", 1e6 + 1.0, values)
    mean = ck.fold("MEAN", values)
    assert not ck.agg_matches("MEAN", mean * (1 + 1e-6), values)
    assert ck.agg_matches("MEAN", mean * (1 + 1e-12), values)
    assert not ck.agg_matches("SUM", None, values)
    assert ck.agg_matches("SUM", None, [])


def test_percentile_rank_bound():
    values = [float(v) for v in range(1000)]
    bound = ck.digest_bound(60.0, single_series=True)
    assert ck.digest_bound(60.0, single_series=False) == 2 * bound
    assert ck.percentile_within_bound(nearest_rank(values, 95.0), values, 95.0, bound)
    outside = values[int((0.95 + bound + 0.01) * len(values))]
    assert not ck.percentile_within_bound(outside, values, 95.0, bound)
    assert not ck.percentile_within_bound(None, values, 95.0, bound)


class _StaleCache:
    """A Grafana whose cached answers lost their last point."""

    def __init__(self, grafana):
        self._g = grafana
        self.influx, self.database = grafana.influx, grafana.database
        self.target_statement = grafana.target_statement

    def execute_target(self, *args, **kwargs):
        times, values, hit = self._g.execute_target(*args, **kwargs)
        return times[:-1], values[:-1], hit


def test_panel_cache_check_rejects_a_stale_panel():
    w = small_workload("fleet_dashboards")
    checks = ck.Checks()
    ck.check_panel_cache(checks, w.pm.grafana, w.cache_probes)
    assert checks.ok
    checks = ck.Checks()
    ck.check_panel_cache(checks, _StaleCache(w.pm.grafana), w.cache_probes)
    assert not checks.ok


def test_continuous_query_check_rejects_a_wrong_bucket():
    w = small_workload("live_mixed")
    checks = ck.Checks()
    ck.check_continuous_queries(checks, w.registrar)
    assert checks.ok
    cq = w.registrar.get("fleet-idle-mean")
    key = next(k for k, v in cq.rows.items() if v is not None)
    cq.rows[key] *= 1.5
    checks = ck.Checks()
    ck.check_continuous_queries(checks, w.registrar)
    assert not checks.ok


def test_serving_check_rejects_a_rejected_request():
    w = small_workload("live_mixed")
    checks = ck.Checks()
    ck.check_serving(checks, w.frontend, w.submitted)
    assert checks.ok
    at = w.frontend.executor.now + 1.0
    w.frontend.submit("no-such-tenant", w.fleet_panel, at=at)
    w.frontend.run(at + 1.0)
    w.submitted += 1
    checks = ck.Checks()
    ck.check_serving(checks, w.frontend, w.submitted)
    assert not checks.ok and checks.failed_ops == 1
    assert ck.serving_balanced(3, {0: "done", 1: "coalesced"}) == (False, 0)


# ----------------------------------------------------------------------
# Tracing and reporting
# ----------------------------------------------------------------------
def test_query_shapes():
    assert query_shape('SELECT "a" FROM "m" WHERE tag="x"') == "raw"
    assert query_shape('SELECT SUM("a") FROM "m"') == "agg"
    assert query_shape('SELECT MEAN("a") FROM "m" WHERE host="h" GROUP BY time(10s)') == "groupby_single"
    assert query_shape('SELECT MEAN("a") FROM "m" GROUP BY time(7s)') == "groupby_multi"
    assert query_shape('SELECT PERCENTILE("a", 95) FROM "m" GROUP BY time(60s)') == "percentile"


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [
        ["outer", 0.0, 10.0, -1, ""],
        ["inner", 1.0, 4.0, 0, ""],
        ["inner", 5.0, 6.0, 0, ""],
        ["leaf", 2.0, 3.0, 1, ""],
    ]
    self_s, calls = tracer.self_times()
    assert self_s == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}
    assert calls == {"outer": 1, "inner": 2, "leaf": 1}


def test_tracer_restores_what_it_wraps():
    from repro.db import influxql
    from repro.viz import grafana

    original = influxql.execute
    tracer = Tracer().install()
    assert grafana.execute is not original
    tracer.uninstall()
    assert grafana.execute is original and influxql.execute is original


def test_percentile_is_nearest_rank():
    samples = [float(i) for i in range(1, 201)]
    assert percentile(samples, 50) == 100.0
    assert percentile(samples, 95) == 190.0


def test_checked_fields_are_sampled_metrics():
    from perfbench.harness import METRICS
    from repro.pcp.pmns import metric_to_measurement

    measurements = {metric_to_measurement(m) for m in METRICS}
    assert {m for m, _ in CHECKED_FIELDS} <= measurements


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == LAYER_METRICS


def test_without_the_program_source_it_exits_non_zero(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet_ingest",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
