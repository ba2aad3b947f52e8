"""Multi-tenant index catalog and per-tenant admission control.

One gateway process can now serve many independent reachability
indexes — one per tenant — through a **catalog** of named entries.
The default entry (name ``"default"``, numeric id ``0``) is the index
the server was started with, so every pre-catalog client keeps working
unchanged: a request without an ``index`` field (JSON) or with a zero
index id (binary) serves from the default entry.  Apart from its
protection against ``drop``/``build``/``load``, entry 0 is an ordinary
entry.

Each :class:`CatalogEntry` owns an independent
:class:`~repro.core.service.QueryService` plus — built by the gateway
on first use — its own micro-batcher lanes, so one tenant's flushes
never mix pairs into another tenant's kernel calls.  Layered on top is
per-tenant **admission**: a :class:`TenantQuota` bounds concurrent
requests (``max_inflight``), pairs admitted but unanswered
(``max_pending``), request rate (token bucket, ``rate``/``burst``),
and the index's label footprint (``max_label_bytes``, enforced at
build/load time via :exc:`~repro.exceptions.IndexBudgetExceeded`).
Admission runs at the gateway *before* the shared event loop hands the
request to a batcher, so an over-quota tenant is shed with an
``overloaded`` reply while every other tenant keeps its full queue.

Catalog verbs (JSON protocol, ``verb="catalog"``)::

    {"verb": "catalog", "op": "create", "name": ..., "scheme": ...,
     "quota": {"max_inflight": ..., "max_pending": ..., "rate": ...,
               "burst": ..., "max_label_bytes": ...}}
    {"verb": "catalog", "op": "build", "name": ..., "graph": path}
    {"verb": "catalog", "op": "load", "name": ..., "index": path}
    {"verb": "catalog", "op": "quota", "name": ..., "quota": {...}}
    {"verb": "catalog", "op": "drop", "name": ...}
    {"verb": "catalog", "op": "list"}

``create`` registers the entry (and its numeric id, used as the u16
``index`` header field of binary request frames); ``build``/``load``
install its index; ``quota`` replaces the entry's admission limits at
runtime (journaled through the durable state layer when one is
configured, so the limits survive a restart); ``drop`` removes it
(in-flight queries finish against the replaced service).  Unknown
names answer with the ``unknown_index`` error code.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from typing import Any, Iterable

from repro.core.service import QueryService
from repro.exceptions import IndexBudgetExceeded
from repro.server.batcher import OverloadedError
from repro.server.protocol import (
    ERR_BAD_REQUEST,
    ERR_UNKNOWN_INDEX,
    ProtocolError,
)

__all__ = [
    "DEFAULT_INDEX",
    "DEFAULT_INDEX_ID",
    "MAX_INDEX_ID",
    "CatalogEntry",
    "CatalogService",
    "TenantQuota",
]

#: Name and id of the entry every index-less request serves from.
DEFAULT_INDEX = "default"
DEFAULT_INDEX_ID = 0

#: Ids ride the u16 header field of binary request frames.
MAX_INDEX_ID = 0xFFFF

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


@dataclass(frozen=True)
class TenantQuota:
    """Admission limits of one catalog entry (``None`` = unlimited).

    Attributes
    ----------
    max_inflight:
        Concurrent admitted requests.
    max_pending:
        Pairs admitted into the tenant's lanes but not yet answered.
    rate:
        Sustained requests/second (token bucket).
    burst:
        Token-bucket depth; defaults to ``max(1, 2 * rate)``.
    max_label_bytes:
        Logical label bytes the tenant's index may occupy; checked when
        an index is built or loaded into the entry, never mid-query.
    """

    max_inflight: int | None = None
    max_pending: int | None = None
    rate: float | None = None
    burst: int | None = None
    max_label_bytes: int | None = None

    def as_dict(self) -> dict[str, Any]:
        return {"max_inflight": self.max_inflight,
                "max_pending": self.max_pending,
                "rate": self.rate, "burst": self.burst,
                "max_label_bytes": self.max_label_bytes}

    @classmethod
    def from_payload(cls, doc: Any) -> "TenantQuota":
        """Validate a request's ``quota`` object into a quota.

        Raises
        ------
        ProtocolError
            ``bad_request`` on non-numeric or negative fields.
        """
        if doc is None:
            return cls()
        if not isinstance(doc, dict):
            raise ProtocolError(ERR_BAD_REQUEST,
                                "quota must be a JSON object")
        known = ("max_inflight", "max_pending", "rate", "burst",
                 "max_label_bytes")
        unknown = sorted(set(doc) - set(known))
        if unknown:
            raise ProtocolError(
                ERR_BAD_REQUEST,
                f"unknown quota fields: {', '.join(unknown)}")
        values: dict[str, Any] = {}
        for field_name in known:
            value = doc.get(field_name)
            if value is None:
                continue
            if isinstance(value, bool) \
                    or not isinstance(value, (int, float)) or value <= 0:
                raise ProtocolError(
                    ERR_BAD_REQUEST,
                    f"quota field {field_name!r} must be a positive "
                    f"number")
            values[field_name] = (float(value) if field_name == "rate"
                                  else int(value))
        return cls(**values)


class CatalogEntry:
    """One named index: service, generation, quota, and admission state.

    The admission counters are plain ints mutated only from the
    gateway's event loop (the same confinement discipline as the
    micro-batcher's counters), so the per-request hot path takes no
    locks.
    """

    __slots__ = ("name", "index_id", "scheme", "service", "generation",
                 "quota", "label_bytes", "admitted", "shed", "inflight",
                 "pending_pairs", "batcher", "lane",
                 "_tokens", "_token_stamp")

    def __init__(self, name: str, index_id: int, *,
                 scheme: str = "dual-i",
                 service: QueryService | None = None,
                 quota: TenantQuota | None = None,
                 label_bytes: int = 0) -> None:
        self.name = name
        self.index_id = index_id
        self.scheme = scheme
        self.service = service
        self.generation = 0
        self.quota = quota or TenantQuota()
        self.label_bytes = label_bytes
        # Admission/accounting counters (event-loop-confined ints).
        self.admitted = 0
        self.shed = 0
        self.inflight = 0
        self.pending_pairs = 0
        # Per-entry micro-batcher lanes; the gateway builds them on
        # the entry's first query so idle tenants cost nothing.
        self.batcher = None
        self.lane = None
        quota_rate = self.quota.rate
        self._tokens = (float(self.quota.burst)
                        if self.quota.burst is not None
                        else max(1.0, 2.0 * quota_rate)
                        if quota_rate is not None else 0.0)
        self._token_stamp = time.monotonic()

    # -- admission ------------------------------------------------------
    def admit(self, num_pairs: int) -> None:
        """Admit one request of ``num_pairs`` pairs, or shed it.

        Raises
        ------
        OverloadedError
            When the tenant is over any of its quotas; the gateway
            answers ``overloaded`` without touching the batcher.
        """
        quota = self.quota
        if quota.max_inflight is not None \
                and self.inflight >= quota.max_inflight:
            self.shed += 1
            raise OverloadedError(
                f"tenant {self.name!r} is at its inflight quota of "
                f"{quota.max_inflight} requests")
        if quota.max_pending is not None \
                and self.pending_pairs + num_pairs > quota.max_pending:
            self.shed += 1
            raise OverloadedError(
                f"tenant {self.name!r} would exceed its pending-pairs "
                f"quota of {quota.max_pending}")
        if quota.rate is not None:
            now = time.monotonic()
            burst = (float(quota.burst) if quota.burst is not None
                     else max(1.0, 2.0 * quota.rate))
            self._tokens = min(
                burst,
                self._tokens + (now - self._token_stamp) * quota.rate)
            self._token_stamp = now
            if self._tokens < 1.0:
                self.shed += 1
                raise OverloadedError(
                    f"tenant {self.name!r} is over its rate quota of "
                    f"{quota.rate:g} requests/s")
            self._tokens -= 1.0
        self.admitted += 1
        self.inflight += 1
        self.pending_pairs += num_pairs

    def release(self, num_pairs: int) -> None:
        """Return one admitted request's budget (answered or failed)."""
        self.inflight -= 1
        self.pending_pairs -= num_pairs

    # -- reporting ------------------------------------------------------
    def describe(self) -> dict[str, Any]:
        """The entry's row in ``catalog list`` / stats snapshots."""
        return {
            "name": self.name,
            "index_id": self.index_id,
            "scheme": self.scheme,
            "generation": self.generation,
            "loaded": self.service is not None,
            "label_bytes": self.label_bytes,
            "quota": self.quota.as_dict(),
            "admitted": self.admitted,
            "shed": self.shed,
            "inflight": self.inflight,
            "pending_pairs": self.pending_pairs,
        }


def _index_label_bytes(index: Any) -> int:
    """Logical label footprint of an index (0 when unreported)."""
    try:
        return int(index.stats().total_space_bytes)
    except Exception:
        return 0


class CatalogService:
    """The gateway's registry of named indexes.

    Owns name → entry and id → entry resolution, entry lifecycle
    (create / install / drop), label-size budget enforcement, and the
    per-tenant metric families.  All mutation happens on the gateway's
    event loop; readers (the Prometheus collector runs on scrape
    threads) only traverse immutable snapshots of plain ints, matching
    the batcher's lock-free convention.
    """

    def __init__(self, default_service: QueryService, *,
                 scheme: str = "dual-i",
                 quota: TenantQuota | None = None) -> None:
        default = CatalogEntry(
            DEFAULT_INDEX, DEFAULT_INDEX_ID, scheme=scheme,
            service=default_service, quota=quota,
            label_bytes=(_index_label_bytes(default_service.index)
                         if default_service is not None else 0))
        self._by_name: dict[str, CatalogEntry] = {DEFAULT_INDEX: default}
        self._by_id: dict[int, CatalogEntry] = {DEFAULT_INDEX_ID: default}
        self._next_id = DEFAULT_INDEX_ID + 1

    # -- resolution -----------------------------------------------------
    @property
    def default(self) -> CatalogEntry:
        return self._by_name[DEFAULT_INDEX]

    def entries(self) -> list[CatalogEntry]:
        """Every entry, default first then by numeric id."""
        return [self._by_id[key] for key in sorted(self._by_id)]

    def names(self) -> list[str]:
        return [entry.name for entry in self.entries()]

    def lookup(self, name: Any) -> CatalogEntry:
        """The entry registered under ``name`` (loaded or not).

        ``None`` and ``"default"`` resolve to the default entry.

        Raises
        ------
        ProtocolError
            ``unknown_index`` for unregistered names, ``bad_request``
            for non-string names.
        """
        if name is None:
            return self._by_name[DEFAULT_INDEX]
        if not isinstance(name, str):
            raise ProtocolError(ERR_BAD_REQUEST,
                                "index must be a string name")
        entry = self._by_name.get(name)
        if entry is None:
            known = ", ".join(self.names())
            raise ProtocolError(
                ERR_UNKNOWN_INDEX,
                f"unknown index {name!r}; registered: {known}")
        return entry

    def resolve(self, name: Any) -> CatalogEntry:
        """The *serveable* entry for ``name`` (must have an index).

        Raises
        ------
        ProtocolError
            ``unknown_index`` when the name is unregistered or the
            entry has no index loaded yet.
        """
        entry = self.lookup(name)
        if entry.service is None:
            raise ProtocolError(
                ERR_UNKNOWN_INDEX,
                f"index {entry.name!r} has no data; build or load it "
                f"first")
        return entry

    def lookup_id(self, index_id: int) -> CatalogEntry:
        """The entry registered under a numeric id (loaded or not).

        Raises
        ------
        ProtocolError
            ``unknown_index`` for unregistered ids.
        """
        entry = self._by_id.get(index_id)
        if entry is None:
            raise ProtocolError(
                ERR_UNKNOWN_INDEX,
                f"unknown index id {index_id}; registered: "
                + ", ".join(f"{e.name}={e.index_id}"
                            for e in self.entries()))
        return entry

    def resolve_id(self, index_id: int) -> CatalogEntry:
        """The serveable entry for a binary-frame index id."""
        entry = self.lookup_id(index_id)
        if entry.service is None:
            raise ProtocolError(
                ERR_UNKNOWN_INDEX,
                f"index {entry.name!r} (id {index_id}) has no data; "
                f"build or load it first")
        return entry

    # -- lifecycle ------------------------------------------------------
    def create(self, name: Any, *, scheme: str = "dual-i",
               quota: TenantQuota | None = None,
               index_id: int | None = None) -> CatalogEntry:
        """Register an empty entry under ``name``.

        Raises
        ------
        ProtocolError
            ``bad_request`` on invalid/duplicate names or exhausted
            index-id space.
        """
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise ProtocolError(
                ERR_BAD_REQUEST,
                "index names are 1-64 chars of [A-Za-z0-9._-] starting "
                "with an alphanumeric")
        if name in self._by_name:
            raise ProtocolError(ERR_BAD_REQUEST,
                                f"index {name!r} already exists")
        if index_id is None:
            index_id = self._next_id
        if index_id in self._by_id:
            raise ProtocolError(ERR_BAD_REQUEST,
                                f"index id {index_id} is already taken")
        if not DEFAULT_INDEX_ID <= index_id <= MAX_INDEX_ID:
            raise ProtocolError(
                ERR_BAD_REQUEST,
                f"index id space exhausted (max {MAX_INDEX_ID})")
        entry = CatalogEntry(name, index_id, scheme=scheme, quota=quota)
        self._by_name[name] = entry
        self._by_id[index_id] = entry
        self._next_id = max(self._next_id, index_id + 1)
        return entry

    def check_budget(self, entry: CatalogEntry, index: Any) -> int:
        """Label bytes of ``index``, validated against the quota.

        Raises
        ------
        IndexBudgetExceeded
            When the footprint exceeds the entry's
            ``max_label_bytes``.
        """
        label_bytes = _index_label_bytes(index)
        budget = entry.quota.max_label_bytes
        if budget is not None and label_bytes > budget:
            raise IndexBudgetExceeded(entry.name, label_bytes, budget)
        return label_bytes

    def install(self, entry: CatalogEntry, service: QueryService, *,
                scheme: str | None = None,
                label_bytes: int | None = None
                ) -> QueryService | None:
        """Swap ``service`` into ``entry``; returns the replaced one.

        In-flight flushes keep their own snapshot of the replaced
        service, which is freed once they return.  Budget enforcement
        happens in :meth:`check_budget` *before* the expensive build —
        this method never fails.
        """
        old = entry.service
        entry.service = service
        if scheme is not None:
            entry.scheme = scheme
        entry.label_bytes = (label_bytes if label_bytes is not None
                             else _index_label_bytes(service.index))
        entry.generation += 1
        return old

    def update_quota(self, entry: CatalogEntry,
                     quota: TenantQuota) -> TenantQuota:
        """Replace ``entry``'s quota in place; returns the old quota.

        The token bucket is refilled to the new burst so a *loosened*
        rate limit takes effect immediately instead of serving the
        first seconds from the old bucket; inflight/pending counters
        are untouched (they describe admitted work, not policy).
        """
        old = entry.quota
        entry.quota = quota
        quota_rate = quota.rate
        entry._tokens = (float(quota.burst)
                         if quota.burst is not None
                         else max(1.0, 2.0 * quota_rate)
                         if quota_rate is not None else 0.0)
        entry._token_stamp = time.monotonic()
        return old

    def drop(self, name: Any) -> CatalogEntry:
        """Unregister ``name`` and return its entry.

        The entry's service and lanes stay attached to the returned
        object; the gateway drains the lanes and lets go of the service
        (in-flight queries keep their per-flush service snapshot, so
        they complete correctly).

        Raises
        ------
        ProtocolError
            ``bad_request`` for the default entry, ``unknown_index``
            for unregistered names.
        """
        entry = self.lookup(name)
        if entry.index_id == DEFAULT_INDEX_ID:
            raise ProtocolError(ERR_BAD_REQUEST,
                                "the default index cannot be dropped")
        del self._by_name[entry.name]
        del self._by_id[entry.index_id]
        return entry

    # -- reporting ------------------------------------------------------
    def describe(self) -> list[dict[str, Any]]:
        return [entry.describe() for entry in self.entries()]

    def collect(self) -> Iterable[dict]:
        """Per-tenant metric families for the Prometheus exposition.

        One series per entry, labelled ``{index="<name>"}`` —
        catalog names are operator-chosen and bounded (u16 id space,
        practically dozens), so the label cardinality stays small.
        """
        entries = self.entries()

        def family(name: str, kind: str, help_text: str,
                   value_of) -> dict:
            return {"name": name, "type": kind, "help": help_text,
                    "samples": [({"index": entry.name},
                                 value_of(entry))
                                for entry in entries]}

        return [
            family("reach_tenant_requests_total", "counter",
                   "Requests admitted per catalog index.",
                   lambda e: e.admitted),
            family("reach_tenant_shed_total", "counter",
                   "Requests shed by per-tenant admission control.",
                   lambda e: e.shed),
            family("reach_tenant_inflight", "gauge",
                   "Admitted requests currently in flight per index.",
                   lambda e: e.inflight),
            family("reach_tenant_pending_pairs", "gauge",
                   "Pairs admitted but unanswered per index.",
                   lambda e: e.pending_pairs),
            family("reach_tenant_label_bytes", "gauge",
                   "Logical label footprint per index.",
                   lambda e: e.label_bytes),
            family("reach_tenant_generation", "gauge",
                   "Hot-swap generation per index.",
                   lambda e: e.generation),
        ]
