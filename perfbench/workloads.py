"""The three workloads: what each sets up, times and checks.

Each workload is a class with the same three steps:

- ``__init__`` is set-up: probe → KB → Mongo for every node, the store,
  the ingest pipeline or serving frontend, dashboard and continuous-query
  registration.  Nothing in it is timed as an operation;
- ``measure(deadline)`` runs whole rounds of the same operations until the
  wall-clock deadline passes (``fleet_dashboards`` first ingests a fixed
  history, then reads in rounds);
- ``verify(checks)`` runs the correctness checks on the result.

Sizes live in :class:`Spec` so the benchmark's tests can shrink them.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

from repro.core.superdb import SuperDB
from repro.core.views import PanelSpec, ViewSpec, level_view
from repro.serve import TenantConfig
from repro.viz.continuous import ContinuousQueryRegistrar
from repro.viz.dashboard import Target

import numpy as np

from . import checks as ck
from .harness import Fleet, Recorder, now, rss_bytes
from .tracing import Tracer, format_table, layer_metrics

__all__ = ["Spec", "SPECS", "WORKLOADS"]


@dataclass(frozen=True)
class Spec:
    nodes: int
    shards: int
    hz: float
    round_s: float
    #: fleet_dashboards: rounds of history ingested before the read phase.
    history_rounds: int = 0
    #: live_mixed: tenants of the serving frontend.
    tenants: int = 0
    #: Rounds that only ingest, so every read window is full once reads
    #: start and reads cost the same in every round after.
    warmup_rounds: int = 0
    #: Rounds (read rounds in fleet_dashboards) run whatever the deadline,
    #: so every timed class gets 200 samples on a slow machine too.
    min_rounds: int = 0


SPECS = {
    # 4 nodes × 1 Hz × 6 records per report = 24 records per virtual
    # second, under the db-writer's ~80; each round's four runs advance
    # the shared consumer clocks by ~3.5 s of a 5 s round, so they never
    # run ahead of the node clocks (the multi-target drain fault).
    "fleet_ingest": Spec(nodes=4, shards=4, hz=1.0, round_s=5.0,
                         warmup_rounds=12, min_rounds=82),
    # 8 nodes × 1500 ticks × 36 values = 432,000, less the modeled PCP
    # tick losses: ~425k values, against a 512-entry panel cache.
    "fleet_dashboards": Spec(nodes=8, shards=4, hz=1.0, round_s=60.0,
                             history_rounds=25, min_rounds=25),
    "live_mixed": Spec(nodes=4, shards=0, hz=2.0, round_s=10.0, tenants=4,
                       warmup_rounds=12, min_rounds=57),
}


def _panel(pm, title: str, targets: list[Target]):
    """Register a one-panel dashboard through the daemon; returns the panel
    with ``targets`` (which may carry agg/GROUP BY/tag) installed."""
    view = ViewSpec(
        name=title, kind="level",
        panels=(PanelSpec(title, tuple((t.measurement, t.params) for t in targets)),),
    )
    dash = pm.grafana.get(pm.dashboard_for_view(view))
    dash.panels[0].targets = list(targets)
    return dash.panels[0]


def _fleet_targets(fleet, kind: str, metric: str, n: int, rng, **kw) -> list[Target]:
    """``n`` seeded distinct targets of a cross-node level view."""
    view = level_view([fleet.pm.target(h).kb for h in fleet.hosts], kind, metric=metric)
    pairs = sorted({(m, f) for p in view.panels for m, f in p.targets})
    pick = sorted(rng.choice(len(pairs), size=min(n, len(pairs)), replace=False))
    return [Target(measurement=pairs[i][0], params=pairs[i][1], **kw) for i in pick]


def _node_targets(cpu: str) -> list[Target]:
    """A node-overview panel: load (raw and 10 s means), context switches,
    memory and one CPU."""
    return [
        Target("kernel_all_load", "_value"),
        Target("kernel_all_pswitch", "_value"),
        Target("mem_util_used", "_value"),
        Target("kernel_percpu_cpu_idle", cpu),
        Target("kernel_all_load", "_value", agg="MEAN", group_by_s=10.0),
    ]


class _Workload:
    name = ""

    def __init__(self, spec: Spec, seed: int, rng, rec: Recorder) -> None:
        self.spec = spec
        self.rng = rng
        self.rec = rec
        self.fleet = Fleet(nodes=spec.nodes, shards=spec.shards, seed=seed,
                           hz=spec.hz, round_s=spec.round_s)
        self.pm = self.fleet.pm
        self.pipeline = None
        self.superdb = None
        self.registrar = None
        self.frontend = None
        self.submitted = 0
        #: (target, t0, t1, tag) of refreshes the panel-cache check re-issues.
        self.cache_probes: list = []

    def measure(self, deadline: float) -> None:
        """Whole rounds until the deadline (and at least ``min_rounds``);
        reads start after ``warmup_rounds``."""
        f = self.fleet
        while f.rounds < self.spec.min_rounds or now() < deadline:
            self.round(reads=f.rounds >= self.spec.warmup_rounds)
            self.rec.close_round()

    def verify(self, checks: ck.Checks) -> None:
        ck.check_conservation(checks, self.fleet, self.pipeline, self.superdb)
        ck.check_aggregates(checks, self.fleet, self.rng)

    def layer_state(self) -> dict:
        """Program-side counters the traced run turns into ratios."""
        influx = self.pm.influx
        g = self.pm.grafana
        return {
            "rollup_plan": dict(influx.rollup_plan),
            "sketch_plan": dict(influx.sketch_plan),
            "cache_hits": g.cache_hits,
            "cache_misses": g.cache_misses,
        }


class FleetIngest(_Workload):
    """Durable ingest through the commit log into a 4-shard store."""

    name = "fleet_ingest"

    def __init__(self, spec, seed, rng, rec) -> None:
        super().__init__(spec, seed, rng, rec)
        self.superdb = SuperDB(seed=seed)
        self.pipeline = self.pm.enable_durable_ingest(superdb=self.superdb)
        f = self.fleet
        self.panels = [
            _panel(self.pm, "fleet: cpu idle",
                   _fleet_targets(f, "thread", "kernel.percpu.cpu.idle", 2, rng,
                                  agg="MEAN", group_by_s=10.0)),
            _panel(self.pm, "fleet: cpu user",
                   _fleet_targets(f, "thread", "kernel.percpu.cpu.user", 2, rng,
                                  agg="MEAN", group_by_s=10.0)),
            _panel(self.pm, "fleet: load",
                   _fleet_targets(f, "node", "kernel.all.load", 1, rng,
                                  agg="MAX", group_by_s=10.0)),
        ]
        self.recall_hosts = [f.hosts[int(i)] for i in rng.integers(len(f.hosts), size=3)]
        self.recall_fields = ", ".join(f'"_cpu{i}"' for i in range(8))

    def round(self, reads: bool) -> None:
        f, rec = self.fleet, self.rec
        f.ingest_round(rec, mode="durable", pipeline=self.pipeline)
        f.probe_freshness(rec)
        if not reads:
            return
        t = f.time()
        for panel in self.panels:
            rec.read("panel", self.pm.grafana.execute_panel, panel, t - 60.0, t)
        for h in self.recall_hosts:  # Listing 3 over the last minute
            rec.query(f.influx, f"SELECT {self.recall_fields} FROM "
                      f'"kernel_percpu_cpu_idle" WHERE tag="{f.tag(h)}" '
                      f"AND time >= {t - 60.0!r} AND time <= {t!r}")


class FleetDashboards(_Workload):
    """A fixed fleet history, then Fig-2-shaped dashboards in rounds."""

    name = "fleet_dashboards"
    window_s = 600.0

    def __init__(self, spec, seed, rng, rec) -> None:
        super().__init__(spec, seed, rng, rec)
        f, pm = self.fleet, self.pm
        self.node_panels = {
            h: _panel(pm, f"node: {h}", _node_targets(f"_cpu{int(rng.integers(16))}"))
            for h in f.hosts
        }
        self.level_panels = [
            _panel(pm, f"level: cpu idle time({g:g}s)",
                   _fleet_targets(f, "thread", "kernel.percpu.cpu.idle", 2, rng,
                                  agg="MEAN", group_by_s=g))
            for g in (10.0, 7.0)
        ]
        self.pct_node = {
            h: _panel(pm, f"p95: {h}", [Target("kernel_all_pswitch", "_value",
                                               agg="PERCENTILE", agg_arg=95.0,
                                               group_by_s=60.0, tag=f.tag(h))])
            for h in f.hosts
        }
        self.pct_fleet = _panel(pm, "p95: fleet load", [
            Target("kernel_all_load", "_value", agg="PERCENTILE", agg_arg=95.0,
                   group_by_s=60.0)])
        self.totals = _panel(pm, "fleet totals", [
            Target("kernel_percpu_cpu_user", "_cpu0", agg="MEAN"),
            Target("kernel_all_pswitch", "_value", agg="SUM"),
        ])

    def measure(self, deadline: float) -> None:
        f, rec, rng = self.fleet, self.rec, self.rng
        g = self.pm.grafana
        for _ in range(self.spec.history_rounds):
            f.ingest_round(rec)
            f.probe_freshness(rec)
            rec.close_round()
        t_hist = f.time()
        span = t_hist - self.window_s
        # Fixed-window observation recalls: the same statement every round.
        recalls = [(self.node_panels[h], 0.0, f.round_s, f.tag(h)) for h in f.hosts[:2]]
        k = 0
        while k < self.spec.min_rounds or now() < deadline:
            # A moving "last N minutes": a new statement text every round.
            t1 = t_hist - (k * 37.0 + 0.25 * (k // 40)) % span
            k += 1
            rec.ctx = f"read-round-{k}"
            a = t1 - self.window_s
            hosts = [f.hosts[int(i)] for i in rng.permutation(len(f.hosts))]
            # Every node's overview at two 5-minute windows, so no refresh
            # repeats a statement another one cached.
            for lag in (0.0, 150.0):
                for h in hosts:
                    rec.read("panel", g.execute_panel, self.node_panels[h],
                             t1 - lag - 300.0, t1 - lag, f.tag(h))
            for panel in self.level_panels:
                rec.read("panel", g.execute_panel, panel, a, t1)
            rec.read("panel", g.execute_panel, self.pct_node[hosts[0]], a, t1)
            rec.read("panel", g.execute_panel, self.pct_fleet, a, t1)
            rec.read("panel", g.execute_panel, self.totals, a, t1)
            for panel, t0, tt, tag in recalls:
                rec.read("panel", g.execute_panel, panel, t0, tt, tag)
            # Ad-hoc queries, cheapest shape first: 2 single-series
            # PERCENTILE, 6 raw node windows, 1 whole-fleet SUM through the
            # shard merge, 2 multi-series GROUP BY time.
            window = f"time >= {a!r} AND time <= {t1!r}"
            for h in hosts[:2]:
                rec.query(f.influx, 'SELECT PERCENTILE("_value", 95) FROM '
                          f'"kernel_all_pswitch" WHERE host="{h}" AND '
                          f"{window} GROUP BY time(60s)")
            for h in hosts[2:8]:
                rec.query(f.influx, f'SELECT "_value" FROM "kernel_all_load" WHERE '
                          f'host="{h}" AND time >= {t1 - 300.0!r} AND time <= {t1!r}')
            rec.query(f.influx, f'SELECT SUM("_node0") FROM "mem_numa_alloc_hit" WHERE {window}')
            rec.query(f.influx, 'SELECT MEAN("_cpu1") FROM "kernel_percpu_cpu_idle" '
                                f"WHERE {window} GROUP BY time(10s)")
            rec.query(f.influx, 'SELECT MAX("_value") FROM "mem_util_used" '
                                f"WHERE {window} GROUP BY time(15s)")
            rec.close_round()
        self.cache_probes = [
            (t, t0, tt, tag) for panel, t0, tt, tag in recalls for t in panel.targets
        ]

    def verify(self, checks: ck.Checks) -> None:
        super().verify(checks)
        ck.check_panel_cache(checks, self.pm.grafana, self.cache_probes)


class LiveMixed(_Workload):
    """Buffered writes beside served panel refreshes and continuous queries
    on the paper-default single engine."""

    name = "live_mixed"

    def __init__(self, spec, seed, rng, rec) -> None:
        super().__init__(spec, seed, rng, rec)
        f, pm = self.fleet, self.pm
        self.tenants = [f"tenant{i}" for i in range(spec.tenants)]
        self.frontend = pm.enable_serving([TenantConfig(t) for t in self.tenants])
        self.node_panels = {
            h: _panel(pm, f"node: {h}", _node_targets(f"_cpu{int(rng.integers(16))}"))
            for h in f.hosts
        }
        self.fleet_panel = _panel(
            pm, "fleet: cpu idle",
            _fleet_targets(f, "thread", "kernel.percpu.cpu.idle", 2, rng,
                           agg="MEAN", group_by_s=10.0))
        self.registrar = ContinuousQueryRegistrar(pm.grafana)
        self.registrar.register("fleet-idle-mean", Target(
            "kernel_percpu_cpu_idle", "_cpu0", agg="MEAN", group_by_s=10.0))
        for h in f.hosts:
            self.registrar.register(f"p95-pswitch-{h}", Target(
                "kernel_all_pswitch", "_value", agg="PERCENTILE", agg_arg=95.0,
                group_by_s=60.0, tag=f.tag(h)))
        # Each tenant watches two nodes' panels live.
        self.watch = {t: [f.hosts[(i + j) % len(f.hosts)] for j in range(2)]
                      for i, t in enumerate(self.tenants)}

    def _serve(self, tenant, panel, at, priority, t0, t1, tag=None) -> None:
        """One served request: submit, then run the executor past it."""
        def once():
            self.frontend.submit(tenant, panel, at=at, priority=priority,
                                 t0=t0, t1=t1, tag=tag)
            self.frontend.run(at + 1e-3)
        self.rec.ctx = f"request-{self.submitted}"
        self.rec.read("panel", once)
        self.submitted += 1

    def round(self, reads: bool) -> None:
        f, rec = self.fleet, self.rec
        f.ingest_round(rec, mode="buffered")
        f.probe_freshness(rec)
        t = f.time()
        t_cq = now()
        self.registrar.refresh(t)
        rec.samples["cq"].append(now() - t_cq)
        rec.attempted += 1
        if not reads:
            return
        # Ad-hoc queries: a node's PERCENTILE, three Listing 3 recalls of
        # the last minute, a fleet-wide GROUP BY time.
        last2 = f"time >= {t - 120.0!r} AND time <= {t!r}"
        hosts = [f.hosts[(f.rounds + i) % len(f.hosts)] for i in range(3)]
        rec.query(f.influx, 'SELECT PERCENTILE("_value", 95) FROM "kernel_all_pswitch" '
                            f'WHERE host="{hosts[0]}" AND {last2} GROUP BY time(60s)')
        for h in hosts:
            rec.query(f.influx, 'SELECT "_cpu0", "_cpu1", "_cpu2", "_cpu3" FROM '
                                f'"kernel_percpu_cpu_user" WHERE tag="{f.tag(h)}" '
                                f"AND time >= {t - 60.0!r} AND time <= {t!r}")
        rec.query(f.influx, 'SELECT MEAN("_cpu2") FROM "kernel_percpu_cpu_idle" '
                            f"WHERE {last2} GROUP BY time(30s)")
        at = max(t, self.frontend.executor.now) + 0.01
        # Dashboards auto-refresh twice per round; no write lands between
        # the two, so the second refresh hits the cache.
        for _ in range(2):
            for tenant in self.tenants:
                for h in self.watch[tenant]:
                    self._serve(tenant, self.node_panels[h], at, "live",
                                t - 60.0, t, f.tag(h))
                    at += 0.05
            at += 4.0
        # Tenant pairs open the fleet view at the same instant: the second
        # of each pair coalesces onto the first.
        for i, tenant in enumerate(self.tenants):
            self._serve(tenant, self.fleet_panel, at, "live", t - 120.0, t)
            at += 0.05 * (i % 2)
        for tenant in self.tenants:
            self._serve(tenant, self.fleet_panel, at, "backfill", 0.0, 120.0)
            at += 0.05
        h = self.watch[self.tenants[0]][0]
        self.cache_probes = [(target, t - 60.0, t, f.tag(h))
                             for target in self.node_panels[h].targets]

    def verify(self, checks: ck.Checks) -> None:
        super().verify(checks)
        ck.check_continuous_queries(checks, self.registrar)
        ck.check_panel_cache(checks, self.pm.grafana, self.cache_probes,
                             tenant=self.tenants[0])
        ck.check_serving(checks, self.frontend, self.submitted)


WORKLOADS = {w.name: w for w in (FleetIngest, FleetDashboards, LiveMixed)}


def run(name: str, seed: int, seconds: float, trace: bool, *, origin: float,
        out_dir=None, spec: Spec | None = None) -> dict:
    """Set up, measure and check one workload; returns the run's result.

    ``origin`` is the perf_counter reading of the process's start, so
    ``setup_s`` covers interpreter start, imports and the workload's
    set-up up to its first timed operation.
    """
    rec = Recorder()
    tracer = Tracer(context=lambda: rec.ctx).install() if trace else None
    try:
        workload = WORKLOADS[name](spec or SPECS[name], seed,
                                   np.random.default_rng(seed), rec)
        before = workload.layer_state()
        start = now()
        rss0 = rss_bytes()
        workload.measure(start + seconds)
        wall_s = now() - start
        growth = rss_bytes() - rss0
    finally:
        if tracer is not None:
            tracer.uninstall()
    end_to_end = {
        "setup_s": start - origin,
        **rec.end_to_end(),
        "rss_bytes_per_value": growth / workload.fleet.inserted,
    }
    layers = None
    if tracer is not None:
        layers = layer_metrics(tracer, workload, before, workload.layer_state())
        print(format_table(layers, wall_s), file=sys.stderr)
        print(json.dumps({
            "traced_end_to_end": end_to_end, "wall_s": wall_s,
            "op_wall_s": {k: sum(v) for k, v in rec.samples.items()},
        }), file=sys.stderr)
        if out_dir is not None:
            tracer.write(out_dir / f"trace-{name}-seed{seed}.json")
    checks = ck.Checks()
    workload.verify(checks)
    return {
        "correct": checks.ok,
        "attempted": rec.attempted,
        "failed": checks.failed_ops,
        "problems": checks.problems,
        "end_to_end": end_to_end,
        "layers": layers,
        "samples": {k: len(v) for k, v in rec.samples.items()},
        "recorder": rec,
    }
