"""End-to-end observability smoke check (``repro-reach smoke metrics``).

Starts a real gateway on an ephemeral port with the HTTP scrape
endpoint enabled, drives a little traced traffic through it, then
verifies the whole observability surface from the outside:

* ``GET /metrics`` answers with the Prometheus content type and a
  text exposition that :func:`repro.obs.prometheus.parse_exposition`
  accepts (well-formed families, cumulative buckets);
* the ``metrics`` protocol verb returns the same exposition;
* every metric family the docs promise
  (:data:`REQUIRED_FAMILIES`) is present;
* the ``stats`` verb carries the per-stage percentile blocks and a
  populated slow-query log with trace IDs.

The ``metrics`` scenario of :mod:`repro.testing.smoke`; kept
dependency-free (stdlib ``urllib`` only) so it runs anywhere the
package does.
"""

from __future__ import annotations

import urllib.request
from dataclasses import dataclass, field

__all__ = ["REQUIRED_FAMILIES", "MetricsSmokeReport", "run_metrics_smoke"]

#: Metric families the smoke run must observe in the exposition —
#: the contract documented in docs/OBSERVABILITY.md.
REQUIRED_FAMILIES = (
    "reach_connections_total",
    "reach_requests_total",
    "reach_request_seconds",
    "reach_stage_seconds",
    "reach_index_swaps_total",
    "reach_degraded",
    "reach_batcher_flushes_total",
    "reach_batcher_in_flight_pairs",
    "reach_service_queries_total",
    "reach_service_batch_seconds",
)


@dataclass
class MetricsSmokeReport:
    """Outcome of one :func:`run_metrics_smoke` run."""

    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, ok, detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def summary_lines(self) -> list[str]:
        lines = []
        for name, ok, detail in self.checks:
            mark = "ok" if ok else "FAILED"
            lines.append(f"  {name:34s} {mark}"
                         + (f"  ({detail})" if detail else ""))
        verdict = ("metrics smoke: every check passed ✔" if self.ok
                   else "metrics smoke: FAILED")
        return [*lines, verdict]


def run_metrics_smoke(nodes: int = 200, seed: int = 0) -> MetricsSmokeReport:
    """Run the end-to-end observability smoke check.

    Everything runs in-process (server on a background thread, client
    over real sockets), so a green report means the scrape endpoint,
    the ``metrics``/``stats`` verbs, and request tracing all work
    against live traffic — not just in unit isolation.
    """
    from repro.core.base import build_index
    from repro.core.service import QueryService
    from repro.graph.generators import single_rooted_dag
    from repro.obs.prometheus import CONTENT_TYPE, parse_exposition
    from repro.server.client import ReachClient
    from repro.server.server import ReachServer, ServerConfig, ServerThread

    report = MetricsSmokeReport()
    graph = single_rooted_dag(nodes, 2 * nodes, seed=seed)
    index = build_index(graph, scheme="dual-ii")
    config = ServerConfig(port=0, metrics_port=0)
    server = ReachServer(QueryService(index), scheme="dual-ii",
                         config=config)
    thread = ServerThread(server).start()
    try:
        node_list = sorted(graph.nodes())
        with ReachClient("127.0.0.1", server.port, trace=True) as client:
            client.ping()
            client.query(node_list[0], node_list[-1])
            client.query_batch([(node_list[0], node_list[i])
                                for i in range(1, min(32, len(node_list)))])
            stats = client.stats()
            verb_doc = client.metrics()

        url = (f"http://127.0.0.1:{server.metrics_port}/metrics")
        with urllib.request.urlopen(url, timeout=10.0) as response:
            scraped = response.read().decode("utf-8")
            content_type = response.headers.get("Content-Type", "")
        report.add("scrape content-type", content_type == CONTENT_TYPE,
                   content_type)

        for source, text in (("http scrape", scraped),
                             ("metrics verb", verb_doc["exposition"])):
            try:
                families = parse_exposition(text)
            except ValueError as exc:
                report.add(f"{source} exposition valid", False, str(exc))
                continue
            report.add(f"{source} exposition valid", True,
                       f"{len(families)} families")
            missing = [name for name in REQUIRED_FAMILIES
                       if name not in families]
            report.add(f"{source} required families", not missing,
                       "missing: " + ", ".join(missing) if missing
                       else f"all {len(REQUIRED_FAMILIES)} present")

        report.add("metrics verb content-type",
                   verb_doc.get("content_type") == CONTENT_TYPE,
                   str(verb_doc.get("content_type")))
        stages = stats.get("stages", {})
        report.add("stats verb stage percentiles",
                   bool(stages) and all("p99_ms" in block
                                        for block in stages.values()),
                   ", ".join(sorted(stages)) or "no stages recorded")
        slow = stats.get("slow_queries", [])
        report.add("slow-query log traced",
                   bool(slow) and all(entry.get("trace")
                                      for entry in slow),
                   f"{len(slow)} entries")
    finally:
        thread.stop()
    return report
