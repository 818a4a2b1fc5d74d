"""Shared machinery: the seeded fleet, operation timing and freshness taps.

Everything here drives the program through its public entry points
(``PMoVE.attach_target``, ``Sampler.run``, ``influxql.execute``, …).  The
only thing the benchmark inserts into the pipeline is :class:`FetchTap`, an
instance-level wrapper around each target's ``Pmcd.fetch`` that counts the
values handed to the sampler and stamps the wall time each tick's fetch
returned — the start of that tick's freshness clock.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

from repro.cluster.cluster import SimulatedCluster
from repro.core.daemon import PMoVE
from repro.db.influxql import execute
from repro.machine.presets import icl
from repro.pcp.pmns import metric_to_measurement

DATABASE = "pmove"
#: Scenario A's SWTelemetry set (§V-B): 16 per-CPU fields × 2 + 4 scalars
#: = 36 values per tick on the ``icl`` preset.
METRICS = (
    "kernel.percpu.cpu.idle",
    "kernel.percpu.cpu.user",
    "kernel.all.load",
    "kernel.all.pswitch",
    "mem.util.used",
    "mem.numa.alloc.hit",
)
#: (measurement, field) pairs whose raw values the benchmark keeps from the
#: fetch boundary, as the reference the aggregate checks fold.
CHECKED_FIELDS = (
    ("kernel_percpu_cpu_idle", "_cpu0"),
    ("kernel_percpu_cpu_user", "_cpu3"),
    ("kernel_all_pswitch", "_value"),
)
#: The series every freshness probe reads (one value per tick per node).
PROBE = ("kernel_all_load", "_value")


def now() -> float:
    return time.perf_counter()


def rss_bytes() -> int:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def process_age_s() -> float:
    """Seconds since this process started (10 ms resolution), so set-up
    time includes interpreter start and imports."""
    try:
        with open("/proc/self/stat") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as f:
            uptime = float(f.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    if not samples:
        raise ValueError("no samples")
    s = sorted(samples)
    idx = min(len(s) - 1, max(0, math.ceil(q / 100.0 * len(s)) - 1))
    return s[idx]


@dataclass
class Recorder:
    """Wall-clock samples per operation class plus the attempted count.

    Classes: ``ingest`` (one ``Sampler.run``), ``panel`` (one panel refresh
    or served request), ``query`` (one ad-hoc statement of the workload's
    query mix), ``freshness`` (one tick, fetch return → the freshness probe
    that first returned it).  Throughputs are taken per round and reported
    as the median round, so a burst of load from outside the process during
    a few rounds does not move them.
    """

    samples: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    attempted: int = 0
    #: Per-round throughputs (values/s of ingest, reads/s).
    ingest_rates: list[float] = field(default_factory=list)
    read_rates: list[float] = field(default_factory=list)
    #: Round or request id the spans of a traced run are tagged with.
    ctx: str = "setup"
    _round: list[float] = field(default_factory=lambda: [0, 0.0, 0, 0.0])

    def ingest(self, run, *args, **kwargs):
        """Time one ``Sampler.run``; returns its :class:`SamplingStats`."""
        t = now()
        stats = run(*args, **kwargs)
        dt = now() - t
        self.samples["ingest"].append(dt)
        self._round[0] += stats.inserted_points
        self._round[1] += dt
        self.attempted += 1
        return stats

    def read(self, cls: str, fn, *args, **kwargs):
        """Time one read operation (``panel`` or ``query``)."""
        t = now()
        out = fn(*args, **kwargs)
        dt = now() - t
        self.samples[cls].append(dt)
        self._round[2] += 1
        self._round[3] += dt
        self.attempted += 1
        return out

    def query(self, influx, statement: str):
        return self.read("query", execute, influx, DATABASE, statement)

    def close_round(self) -> None:
        values, ingest_s, reads, read_s = self._round
        if ingest_s > 0:
            self.ingest_rates.append(values / ingest_s)
        if read_s > 0:
            self.read_rates.append(reads / read_s)
        self._round = [0, 0.0, 0, 0.0]

    def end_to_end(self) -> dict[str, float]:
        self.close_round()
        ms = lambda cls, q: 1e3 * percentile(self.samples[cls], q)  # noqa: E731
        return {
            "ingest_values_per_s": statistics.median(self.ingest_rates),
            "freshness_p50_ms": ms("freshness", 50),
            "freshness_p95_ms": ms("freshness", 95),
            "panel_p50_ms": ms("panel", 50),
            "panel_p95_ms": ms("panel", 95),
            "query_p50_ms": ms("query", 50),
            "query_p95_ms": ms("query", 95),
            "reads_per_s": statistics.median(self.read_rates),
        }


class FetchTap:
    """Counting wrapper installed on one target's ``pmcd.fetch``."""

    def __init__(self, pmcd) -> None:
        self._inner = pmcd.fetch
        pmcd.fetch = self
        self._metric_of = {metric_to_measurement(m): m for m in METRICS}
        self.values = 0
        #: tick time → perf_counter at fetch return, until a probe sees it.
        self.pending: dict[float, float] = {}
        #: (measurement, field) → [(tick time, value)] as fetched.
        self.raw: dict[tuple[str, str], list[tuple[float, float]]] = defaultdict(list)

    def __call__(self, metrics, t0, t1):
        report = self._inner(metrics, t0, t1)
        self.pending[report.time] = now()
        self.values += report.n_points
        for key in CHECKED_FIELDS:
            fields = report.values.get(self._metric_of.get(key[0], ""))
            if fields and key[1] in fields:
                self.raw[key].append((report.time, fields[key[1]]))
        return report


class Fleet:
    """A seeded ``SimulatedCluster`` attached to one ``PMoVE`` daemon."""

    def __init__(self, *, nodes: int, shards: int, seed: int, hz: float,
                 round_s: float) -> None:
        self.hz = hz
        self.round_s = round_s
        self.cluster = SimulatedCluster(icl, nodes, seed=seed)
        self.pm = PMoVE(env={"PMOVE_SHARDS": str(shards)}, seed=seed)
        for machine in self.cluster.nodes.values():
            self.pm.attach_target(machine)
        self.hosts = list(self.cluster.nodes)
        self.taps = {h: FetchTap(self.pm.target(h).pmcd) for h in self.hosts}
        self.stats = []
        #: Fetched minus landed values, per ``Sampler.run`` call.
        self.run_shortfalls: list[int] = []
        self._probed: dict[str, float] = {h: 0.0 for h in self.hosts}
        self.rounds = 0

    @staticmethod
    def tag(host: str) -> str:
        return f"sysstate-{host}"

    @property
    def influx(self):
        return self.pm.influx

    def time(self) -> float:
        return self.cluster.time()

    def ingest_round(self, rec: Recorder, **run_kw) -> None:
        """One round: every node samples the same ``round_s`` window, one
        after another, so the fleet's clocks advance together."""
        rec.ctx = f"round-{self.rounds}"
        for h in self.hosts:
            machine = self.cluster.nodes[h]
            fetched = self.taps[h].values
            t0 = machine.clock.now()
            machine.advance(self.round_s)
            stats = rec.ingest(
                self.pm.target(h).sampler.run, list(METRICS), self.hz, t0,
                t0 + self.round_s, tag=self.tag(h), **run_kw,
            )
            self.stats.append(stats)
            self.run_shortfalls.append(
                self.taps[h].values - fetched - stats.inserted_points
            )
        self.rounds += 1

    def probe_freshness(self, rec: Recorder) -> None:
        """Per node, one query for ticks newer than the last seen; every
        tick it returns closes that tick's freshness clock.  Probes are
        operations but not part of the timed query mix."""
        meas, fld = PROBE
        for h in self.hosts:
            rs = execute(
                self.influx, DATABASE,
                f'SELECT "{fld}" FROM "{meas}" WHERE host="{h}" '
                f"AND time > {self._probed[h]!r}",
            )
            rec.attempted += 1
            seen = now()
            pending = self.taps[h].pending
            for t, _ in rs.rows:
                stamp = pending.pop(t, None)
                if stamp is not None:
                    rec.samples["freshness"].append(seen - stamp)
            if rs.rows:
                self._probed[h] = rs.rows[-1][0]

    @property
    def inserted(self) -> int:
        return sum(s.inserted_points for s in self.stats)

    @property
    def fetched_values(self) -> int:
        return sum(tap.values for tap in self.taps.values())

    def raw_series(self, key, host=None, t0=-math.inf, t1=math.inf):
        """Fetched (time, value) pairs of one checked field, one host or all."""
        hosts = [host] if host is not None else self.hosts
        return [
            (t, v) for h in hosts for t, v in self.taps[h].raw[key] if t0 <= t <= t1
        ]
