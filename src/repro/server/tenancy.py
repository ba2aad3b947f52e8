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

Every mutation — those ops, ``reload``, and the registration of boot
rows — runs through :class:`CatalogMutator`, the one implementation
the single server and the worker fleet share: validate, build or
load, freeze, check the label budget, journal, then apply.  The two
targets differ only in how a new generation reaches serving code.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from typing import Any, Iterable

from repro.core.base import build_index
from repro.core.serialize import IMAGE_SCHEMES, as_image, load_dual_index
from repro.core.service import QueryService
from repro.exceptions import IndexBudgetExceeded, ReproError
from repro.graph.io import read_edge_list
from repro.server.batcher import OverloadedError
from repro.server.protocol import (
    ERR_BAD_REQUEST,
    ERR_RELOAD_FAILED,
    ERR_UNKNOWN_INDEX,
    ProtocolError,
)

__all__ = [
    "DEFAULT_INDEX",
    "DEFAULT_INDEX_ID",
    "MAX_INDEX_ID",
    "CatalogEntry",
    "CatalogMutator",
    "CatalogService",
    "EntryRow",
    "Mutation",
    "TenantQuota",
    "index_label_bytes",
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


@dataclass
class EntryRow:
    """One catalog entry as it travels: restored at boot, named by a
    ``serve --tenant`` flag, listed in a fleet worker's spawn manifest,
    or sent to every worker after a mutation.

    A generation reaches serving code either as ``index`` (an index
    image, in this process) or as ``segment`` (the ``/dev/shm`` segment
    a fleet worker attaches); a row with neither is registered but
    empty.  Rows sent to a worker never carry ``index``.
    """

    name: str
    #: ``None`` for a new entry: the catalog allocates the id.
    index_id: int | None = None
    scheme: str = "dual-i"
    generation: int = 0
    #: :meth:`TenantQuota.as_dict` form; ``None`` = unlimited.
    quota: dict | None = None
    label_bytes: int = 0
    segment: str | None = None
    index: Any = None


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
        self.refill()

    # -- admission ------------------------------------------------------
    def refill(self) -> None:
        """Fill the token bucket to the quota's burst depth."""
        quota = self.quota
        self._tokens = (float(quota.burst) if quota.burst is not None
                        else max(1.0, 2.0 * quota.rate)
                        if quota.rate is not None else 0.0)
        self._token_stamp = time.monotonic()

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

    def row(self, segment: str | None = None) -> EntryRow:
        """This entry as a row (``segment`` names its live
        generation's ``/dev/shm`` segment in a fleet)."""
        return EntryRow(self.name, self.index_id, self.scheme,
                        self.generation, self.quota.as_dict(),
                        self.label_bytes, segment)


def index_label_bytes(index: Any) -> int:
    """Logical label footprint of an index, the measure the label
    budget and the durable metadata use (0 when unreported)."""
    try:
        return int(index.stats().total_space_bytes)
    except (ReproError, AttributeError, TypeError, ValueError):
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
            label_bytes=(index_label_bytes(default_service.index)
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
        index_id = self.check_new(name, index_id)
        entry = CatalogEntry(name, index_id, scheme=scheme, quota=quota)
        self._by_name[name] = entry
        self._by_id[index_id] = entry
        self._next_id = max(self._next_id, index_id + 1)
        return entry

    def check_new(self, name: Any, index_id: int | None = None) -> int:
        """Validate a new entry's name and id without registering it;
        returns the id :meth:`create` would give it.

        Raises
        ------
        ProtocolError
            As :meth:`create`.
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
        return index_id

    def register(self, row: EntryRow) -> CatalogEntry:
        """The entry of ``row``, created on first sight (entry 0 always
        exists), with the row's scheme, quota, label bytes and
        generation — how a restored or mirrored entry resumes."""
        quota = TenantQuota.from_payload(row.quota)
        entry = self._by_name.get(row.name)
        if entry is None:
            entry = self.create(row.name, scheme=row.scheme, quota=quota,
                                index_id=row.index_id)
        else:
            self.update_quota(entry, quota)
            entry.scheme = row.scheme
        entry.label_bytes = row.label_bytes
        entry.generation = row.generation
        return entry

    def check_budget(self, entry: CatalogEntry, index: Any) -> int:
        """Label bytes of ``index``, validated against the quota.

        Raises
        ------
        IndexBudgetExceeded
            When the footprint exceeds the entry's
            ``max_label_bytes``.
        """
        label_bytes = index_label_bytes(index)
        budget = entry.quota.max_label_bytes
        if budget is not None and label_bytes > budget:
            raise IndexBudgetExceeded(entry.name, label_bytes, budget)
        return label_bytes

    def install(self, entry: CatalogEntry, service: QueryService | None,
                *, scheme: str | None = None,
                label_bytes: int | None = None,
                generation: int | None = None
                ) -> QueryService | None:
        """Swap ``service`` into ``entry``; returns the replaced one.

        ``generation`` defaults to the next one.  In-flight flushes
        keep their own snapshot of the replaced service, which is freed
        once they return.  Budget enforcement happens in
        :meth:`check_budget` *before* the expensive build; this method
        fails only (``reload_failed``) for an entry dropped while its
        install was built.  The fleet parent, which never serves,
        installs ``None`` and keeps only the metadata.
        """
        if self._by_name.get(entry.name) is not entry:
            raise ProtocolError(
                ERR_RELOAD_FAILED,
                f"index {entry.name!r} was dropped while its install ran")
        old = entry.service
        entry.service = service
        if scheme is not None:
            entry.scheme = scheme
        entry.label_bytes = (label_bytes if label_bytes is not None
                             else index_label_bytes(service.index))
        entry.generation = (generation if generation is not None
                            else entry.generation + 1)
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
        entry.refill()
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


#: ``catalog`` ops that change the catalog (``list`` only reads it).
MUTATING_OPS = ("create", "build", "load", "quota", "drop")


def _scheme(payload: dict, default: str) -> str:
    """The request's ``scheme`` field: one an index image holds."""
    scheme = payload.get("scheme", default)
    if not isinstance(scheme, str):
        raise ProtocolError(ERR_BAD_REQUEST, "scheme must be a string")
    if scheme not in IMAGE_SCHEMES:
        raise ProtocolError(
            ERR_BAD_REQUEST,
            f"scheme {scheme!r} cannot be served; served schemes: "
            f"{', '.join(IMAGE_SCHEMES)}")
    return scheme


@dataclass
class Mutation:
    """One validated catalog mutation, filled in as it runs.

    ``op`` is ``create``, ``quota``, ``drop`` or ``install`` (a
    ``reload`` or a ``catalog build``/``load``).
    """

    op: str
    name: str
    entry: CatalogEntry | None = None
    scheme: str = "dual-i"
    quota: TenantQuota | None = None
    #: ``create`` only: the id :meth:`CatalogService.check_new` gave.
    index_id: int | None = None
    #: ``install`` only: ``"graph"`` or ``"index"`` and its path, then
    #: the index image and what :meth:`CatalogMutator.prepare` found.
    source: str | None = None
    path: str | None = None
    index: Any = None
    label_bytes: int = 0
    #: The journaled generation; ``None`` without durable state, when
    #: the install takes the entry's next one.
    generation: int | None = None
    #: The build's (or load's) times; an image keeps no phase times.
    build_seconds: float = 0.0
    phase_seconds: dict | None = None

    @property
    def on_default(self) -> bool:
        """Whether this targets entry 0, the only entry whose failed
        install degrades health."""
        return self.entry is not None \
            and self.entry.index_id == DEFAULT_INDEX_ID


class CatalogMutator:
    """The one catalog mutation path of the server and the fleet.

    A Dual-I or Dual-II index is built whole and never edited, so every
    change — ``reload``, ``catalog create/build/load/quota/drop`` and
    the registration of boot rows — is the same decision, taken here
    in three steps:

    1. :meth:`parse` validates the request against the catalog
       (``bad_request``, ``unknown_index``) and changes nothing;
    2. :meth:`prepare` builds or loads the index, freezes it to its
       image, checks the label budget and journals the change
       (blocking: the server runs an install's on its reload
       executor); any failure raises ``reload_failed`` and still
       changes nothing in memory;
    3. :meth:`commit` applies the change to the catalog (an install
       whose entry was dropped meanwhile fails ``reload_failed``).

    The caller then moves serving code — the server installs a local
    service or drains a dropped entry's lanes; the fleet publishes a
    ``/dev/shm`` segment and waits for every worker's ack — and answers
    its client last.
    """

    def __init__(self, catalog: CatalogService, state: Any = None) -> None:
        self.catalog = catalog
        #: Optional :class:`~repro.server.durability.DurableState`:
        #: every change is journaled (fsynced) before it is applied.
        self.state = state

    def parse(self, verb: str, payload: dict) -> Mutation:
        """Validate a ``reload`` or mutating ``catalog`` request.

        Raises
        ------
        ProtocolError
            ``bad_request`` for a malformed request or an unknown
            scheme, ``unknown_index`` for an unknown entry name.
        """
        if verb == "reload":
            # ``name`` targets an entry (absent: entry 0); ``index``
            # stays the saved-index *path*, as it always was.
            entry = self.catalog.lookup(payload.get("name"))
            if bool(payload.get("graph")) == bool(payload.get("index")):
                raise ProtocolError(
                    ERR_BAD_REQUEST,
                    "reload requires exactly one of 'graph' or 'index'")
            return self._install(
                entry, "graph" if payload.get("graph") else "index",
                payload)
        op = payload.get("op")
        if op not in MUTATING_OPS:
            raise ProtocolError(
                ERR_BAD_REQUEST,
                f"unknown catalog op {op!r}; supported: create, build, "
                f"load, drop, quota, list")
        if op == "create":
            quota = TenantQuota.from_payload(payload.get("quota"))
            scheme = _scheme(payload, self.catalog.default.scheme)
            name = payload.get("name")
            return Mutation("create", name, scheme=scheme, quota=quota,
                            index_id=self.catalog.check_new(name))
        entry = self.catalog.lookup(payload.get("name"))
        if op == "quota":
            return Mutation(
                "quota", entry.name, entry=entry,
                quota=TenantQuota.from_payload(payload.get("quota")))
        if entry.index_id == DEFAULT_INDEX_ID:
            raise ProtocolError(
                ERR_BAD_REQUEST,
                "the default index cannot be dropped" if op == "drop"
                else "use the reload verb for the default index")
        if op == "drop":
            return Mutation("drop", entry.name, entry=entry)
        return self._install(entry, "graph" if op == "build" else "index",
                             payload)

    @staticmethod
    def _install(entry: CatalogEntry, source: str,
                 payload: dict) -> Mutation:
        path = payload.get(source)
        if not isinstance(path, str) or not path:
            raise ProtocolError(ERR_BAD_REQUEST,
                                f"{source!r} must be a file path")
        return Mutation("install", entry.name, entry=entry, source=source,
                        path=path, scheme=_scheme(payload, entry.scheme))

    def prepare(self, m: Mutation) -> None:
        """Build or load ``m``'s index, freeze it to the image that is
        served, saved and published (:func:`~repro.core.serialize.as_image`
        — the built object is freed here), check its budget, journal it.

        Blocking (index I/O, fsync).  The journal record is the commit
        point: an install's artifact is saved before its fsynced
        record, and nothing in memory changes until :meth:`commit`.

        Raises
        ------
        ProtocolError
            ``reload_failed`` on a build, load, budget or journal
            failure.
        """
        try:
            if m.op == "install":
                if m.index is None:
                    started = time.perf_counter()
                    m.index = (load_dual_index(m.path)
                               if m.source == "index" else
                               build_index(read_edge_list(m.path),
                                           scheme=m.scheme))
                    m.build_seconds = time.perf_counter() - started
                m.phase_seconds = dict(m.index.stats().phase_seconds)
                m.index = as_image(m.index)
                m.scheme = m.index.scheme_name
                m.label_bytes = self.catalog.check_budget(m.entry, m.index)
            if self.state is not None:
                self._journal(m)
        except (ReproError, OSError) as exc:
            raise ProtocolError(ERR_RELOAD_FAILED,
                                f"{type(exc).__name__}: {exc}") from None

    def _journal(self, m: Mutation) -> None:
        state = self.state
        if m.op == "install":
            m.generation = state.commit_install(
                m.index, m.name, index_id=m.entry.index_id,
                scheme=m.scheme, label_bytes=m.label_bytes)
        elif m.op == "create":
            state.record_create(m.name, index_id=m.index_id,
                                scheme=m.scheme, quota=m.quota.as_dict())
        elif m.op == "drop":
            state.record_drop(m.name)
        elif not m.on_default:
            # The default entry is not a journaled catalog row, so its
            # quota stays runtime-only.
            state.record_quota(m.name, m.quota.as_dict())

    def commit(self, m: Mutation,
               service: QueryService | None = None) -> CatalogEntry:
        """Apply a prepared ``m`` to the catalog; returns its entry.

        ``service`` is an install's local backend (``None`` in the
        fleet parent, which never serves).
        """
        catalog = self.catalog
        if m.op == "create":
            m.entry = catalog.create(m.name, scheme=m.scheme,
                                     quota=m.quota, index_id=m.index_id)
        elif m.op == "quota":
            catalog.update_quota(m.entry, m.quota)
        elif m.op == "drop":
            catalog.drop(m.name)
        else:
            catalog.install(m.entry, service, scheme=m.scheme,
                            label_bytes=m.label_bytes,
                            generation=m.generation)
        return m.entry

    @staticmethod
    def reply(m: Mutation) -> dict:
        """The client's result document of a committed ``m``."""
        entry = m.entry
        if m.op == "create":
            return {"created": entry.name, "index_id": entry.index_id,
                    "quota": entry.quota.as_dict()}
        if m.op == "quota":
            return {"updated": entry.name, "index_id": entry.index_id,
                    "quota": m.quota.as_dict()}
        if m.op == "drop":
            return {"dropped": entry.name, "index_id": entry.index_id}
        stats = m.index.stats()
        return {
            "swapped": True,
            "index_name": entry.name,
            "generation": entry.generation,
            "scheme": entry.scheme,
            "source": m.source,
            "nodes": stats.num_nodes,
            "edges": stats.num_edges,
            "build_seconds": m.build_seconds,
            "phase_seconds": dict(m.phase_seconds or {}),
        }

    def adopt(self, row: EntryRow) -> EntryRow:
        """Register one boot row; returns it complete, its ``index``
        frozen to its image.

        A row with an ``index_id`` — entry 0, or an entry restored from
        durable state — resumes as it is.  A row without one (a
        ``serve --tenant`` flag, a fleet's startup tenant) is new: it
        runs the create and install mutations, so it is validated,
        frozen, budget-checked and journaled like a client's request.
        The caller serves ``row.index`` at ``row.generation``.
        """
        if row.index_id is None:
            m = self.parse("catalog", {"op": "create", "name": row.name,
                                       "scheme": row.scheme,
                                       "quota": row.quota})
            self.prepare(m)
            row.index_id = self.commit(m).index_id
            if row.index is not None:
                m = Mutation("install", row.name, entry=m.entry,
                             index=row.index)
                self.prepare(m)
                row.index, row.scheme, row.label_bytes = \
                    m.index, m.scheme, m.label_bytes
                row.generation = (m.generation if m.generation is not None
                                  else m.entry.generation + 1)
        elif row.index is not None:
            row.index = as_image(row.index)
            row.label_bytes = row.label_bytes or index_label_bytes(row.index)
        self.catalog.register(row)
        return row
