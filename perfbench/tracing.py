"""Span tracing from outside the program, for the ``--trace 1`` run.

:meth:`Tracer.install` rebinds the listed public functions of each layer
to wrappers that record a span — name, start, end, parent span, and the
round or request id the benchmark is in — and counts work at the same
boundary.  Interpreter garbage collections are recorded as ``py.gc`` spans
through ``gc.callbacks``, so they are children of whatever span they
interrupted.  Spans stay in memory and are written out at exit.

A layer's self time is the total duration of its spans minus the part
their child spans cover.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from collections import Counter, defaultdict

from repro.core.daemon import PMoVE
from repro.db import influxql
from repro.db.influx import InfluxDB
from repro.db.sharded import ShardedInfluxDB
from repro.pcp.commitlog import LogRecord
from repro.pcp.consumers import IngestPipeline, LogConsumer
from repro.pcp.pmcd import Pmcd
from repro.pcp.sampler import Sampler
from repro.serve import ServingFrontend
from repro.serve.executor import ServiceCostModel
from repro.viz.continuous import ContinuousQueryRegistrar
from repro.viz.grafana import GrafanaServer

QUERY_SHAPES = ("raw", "agg", "groupby_single", "groupby_multi", "percentile")


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("ratio", "per_record")):
        return "ratio"
    if name.endswith("bytes"):
        return "B"
    return "count"


def _better(name: str) -> str:
    """Work done in the fixed run length and useful-outcome ratios are
    better higher; time, waste, backlog and memory better lower."""
    higher = (".calls", ".values", ".records", ".applied_records", "_ratio",
              ".buckets", ".requests", ".coalesced")
    return "higher" if name.endswith(higher) else "lower"


#: Every per-layer metric of a traced run: name → (unit, better).
LAYER_METRICS = {
    name: (_unit(name), _better(name))
    for name in (
        "core.attach.self_s", "core.dashboards.self_s",
        "pcp.fetch.calls", "pcp.fetch.values", "pcp.fetch.self_s",
        "pcp.sampler.self_s", "pcp.shipper.max_queue_depth",
        "pcp.shipper.retried_reports",
        "pcp.produce.records", "pcp.produce.self_s", "pcp.decode.calls",
        "pcp.decode.per_record", "pcp.decode.self_s", "pcp.consume.self_s",
        "pcp.consume.applied_records", "pcp.consume.max_group_lag",
        "db.write.calls", "db.write.values", "db.write.self_s",
        "db.shard.write.self_s",
        *(f"db.query.{s}.{m}" for s in QUERY_SHAPES for m in ("calls", "self_s")),
        "db.rollup.served_ratio", "db.sketch.served_ratio",
        "viz.panel.calls", "viz.panel.self_s", "viz.cache.hit_ratio",
        "viz.cq.refresh.self_s", "viz.cq.buckets",
        "serve.requests", "serve.coalesced", "serve.self_s", "serve.modeled_s",
        "py.gc.full_collections", "py.gc.s", "py.rss_peak_bytes",
    )
}


def query_shape(statement) -> str:
    """Classify a statement: raw, plain aggregate, single- or multi-series
    GROUP BY time, or PERCENTILE."""
    q = influxql.parse_query(statement) if isinstance(statement, str) else statement
    if q.aggregate is None:
        return "raw"
    if q.aggregate == "PERCENTILE":
        return "percentile"
    if q.group_by_s is None:
        return "agg"
    return "groupby_single" if q.tag_filters else "groupby_multi"


class Tracer:
    """In-memory spans: ``[name, start, end, parent index, context id]``."""

    def __init__(self, context=lambda: "") -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.context = context
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.context()])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def wrap(self, owner, attr: str, name, count=None) -> None:
        """Rebind ``owner.attr`` to a span-recording wrapper.  ``name`` is a
        span name or a function of the call's arguments; ``count(args,
        result)`` adds to :attr:`counts` after the call."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name if isinstance(name, str) else name(args))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                count(tracer.counts, args, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def _gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._open("py.gc")
            if info["generation"] == 2:
                self.counts["py.gc.full_collections"] += 1
        elif self.stack and self.spans[self.stack[-1]][0] == "py.gc":
            self._close(self.stack[-1])

    def install(self) -> "Tracer":
        """Wrap every layer's public entry points (call before set-up)."""
        def outer_write(counts, args, result):
            # Count each batch once, at the outermost engine it entered.
            if not any(self.spans[i][0].startswith("db.") for i in self.stack):
                counts["db.write.calls"] += 1
                counts["db.write.values"] += sum(len(p.fields) for p in args[2])

        def fetched(counts, args, report):
            counts["pcp.fetch.calls"] += 1
            counts["pcp.fetch.values"] += report.n_points

        self.wrap(PMoVE, "attach_target", "core.attach")
        for owner, attr in ((PMoVE, "dashboard_for_view"), (GrafanaServer, "register"),
                            (ContinuousQueryRegistrar, "register")):
            self.wrap(owner, attr, "core.dashboards")
        self.wrap(Pmcd, "fetch", "pcp.fetch", fetched)
        self.wrap(Sampler, "run", "pcp.sampler")
        self.wrap(IngestPipeline, "produce", "pcp.produce",
                  lambda c, a, r: c.update({"pcp.produce.records": len(r)}))
        self.wrap(LogRecord, "points", "pcp.decode",
                  lambda c, a, r: c.update({"pcp.decode.calls": 1}))
        self.wrap(LogConsumer, "step", "pcp.consume")
        self.wrap(InfluxDB, "write_many", "db.write", outer_write)
        self.wrap(ShardedInfluxDB, "write_many", "db.shard.write", outer_write)
        # ``execute`` is imported by name across the program: rebind every
        # module-level reference to it.
        original = influxql.execute
        for module in [m for k, m in sys.modules.items()
                       if k.startswith(("repro", "perfbench")) and m is not None]:
            if getattr(module, "execute", None) is original:
                self.wrap(module, "execute",
                          lambda args: f"db.query.{query_shape(args[2])}")
        self.wrap(GrafanaServer, "execute_panel", "viz.panel")
        self.wrap(GrafanaServer, "execute_target", "viz.panel")
        self.wrap(ContinuousQueryRegistrar, "refresh", "viz.cq.refresh",
                  lambda c, a, r: c.update({"viz.cq.buckets": sum(r.values())}))
        self.wrap(ServingFrontend, "submit", "serve",
                  lambda c, a, r: c.update({"serve.requests": 1}))
        self.wrap(ServingFrontend, "run", "serve")

        def modeled(counts, args, service_s):
            counts["serve.modeled_s"] += service_s

        self.wrap(ServiceCostModel, "service_s", "serve.cost_model", modeled)
        gc.callbacks.append(self._gc)
        return self

    def uninstall(self) -> None:
        if self._gc in gc.callbacks:
            gc.callbacks.remove(self._gc)
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------------
    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per span name: total self seconds and number of spans."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child_s[i]
            calls[name] += 1
        return self_s, calls

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "context"],
                       "spans": self.spans}, f, separators=(",", ":"))


def layer_metrics(tracer: Tracer, workload, before: dict, after: dict) -> dict[str, float]:
    """The per-layer metrics of one traced run (see README.md)."""
    self_s, calls = tracer.self_times()
    c = tracer.counts
    fleet = workload.fleet
    stats = fleet.stats

    def delta_ratio(plan: str) -> float:
        b, a = before[plan], after[plan]
        d = {k: a.get(k, 0) - b.get(k, 0) for k in a}
        served = sum(v for k, v in d.items() if k.startswith("served:"))
        decisions = served + sum(
            v for k, v in d.items()
            if "fallback" in k or k == "multi-series-raw"
        )
        return served / decisions if decisions else 0.0

    hits = after["cache_hits"] - before["cache_hits"]
    misses = after["cache_misses"] - before["cache_misses"]
    pipe = workload.pipeline
    counters = pipe.flat_counters() if pipe is not None else {}
    frontend = workload.frontend
    out = {
        "core.attach.self_s": self_s["core.attach"],
        "core.dashboards.self_s": self_s["core.dashboards"],
        "pcp.fetch.calls": c["pcp.fetch.calls"],
        "pcp.fetch.values": c["pcp.fetch.values"],
        "pcp.fetch.self_s": self_s["pcp.fetch"],
        "pcp.sampler.self_s": self_s["pcp.sampler"],
        "pcp.shipper.max_queue_depth": max((s.max_queue_depth for s in stats), default=0),
        "pcp.shipper.retried_reports": sum(s.retried_reports for s in stats),
        "pcp.produce.records": c["pcp.produce.records"],
        "pcp.produce.self_s": self_s["pcp.produce"],
        "pcp.decode.calls": c["pcp.decode.calls"],
        "pcp.decode.per_record": (
            c["pcp.decode.calls"] / c["pcp.produce.records"]
            if c["pcp.produce.records"] else 0.0
        ),
        "pcp.decode.self_s": self_s["pcp.decode"],
        "pcp.consume.self_s": self_s["pcp.consume"],
        "pcp.consume.applied_records": int(sum(
            v for k, v in counters.items() if k.endswith(".applied_records"))),
        "pcp.consume.max_group_lag": pipe.max_group_lag if pipe is not None else 0,
        "db.write.calls": c["db.write.calls"],
        "db.write.values": c["db.write.values"],
        "db.write.self_s": self_s["db.write"],
        "db.shard.write.self_s": self_s["db.shard.write"],
    }
    for shape in QUERY_SHAPES:
        out[f"db.query.{shape}.calls"] = calls.get(f"db.query.{shape}", 0)
        out[f"db.query.{shape}.self_s"] = self_s[f"db.query.{shape}"]
    out.update({
        "db.rollup.served_ratio": delta_ratio("rollup_plan"),
        "db.sketch.served_ratio": delta_ratio("sketch_plan"),
        "viz.panel.calls": calls.get("viz.panel", 0),
        "viz.panel.self_s": self_s["viz.panel"],
        "viz.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "viz.cq.refresh.self_s": self_s["viz.cq.refresh"],
        "viz.cq.buckets": c["viz.cq.buckets"],
        "serve.requests": c["serve.requests"],
        "serve.coalesced": frontend.executor.coalesced if frontend is not None else 0,
        "serve.self_s": self_s["serve"] + self_s["serve.cost_model"],
        "serve.modeled_s": c["serve.modeled_s"],
        "py.gc.full_collections": c["py.gc.full_collections"],
        "py.gc.s": self_s["py.gc"],
        "py.rss_peak_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
    })
    return {name: out[name] for name in LAYER_METRICS}


def format_table(layers: dict[str, float], wall_s: float) -> str:
    """Per-layer table: self time (and its share of the measured wall
    time), counts and ratios.  ``serve.modeled_s`` is virtual time and
    gets no share."""
    lines = [f"{'per-layer metric':<34}{'value':>16}{'share':>9}"]
    for name, value in layers.items():
        wall_clock = LAYER_METRICS[name][0] == "s" and name != "serve.modeled_s"
        share = f"{100.0 * value / wall_s:8.1f}%" if wall_clock else ""
        shown = f"{value:16.4f}" if isinstance(value, float) else f"{value:16d}"
        lines.append(f"{name:<34}{shown}{share:>9}")
    return "\n".join(lines)
