"""The corridor's identity-handoff audit trail.

Every spike a station resolves is a *sighting*, and each sighting is
resolved one of five ways:

* ``own`` — the station's own :class:`~repro.core.network.IdentityCache`
  recognized the fingerprint (the tag was decoded or imported here
  earlier);
* ``handoff`` — a neighbor station's cache recognized it *at sighting
  time* (pull-at-sighting), and the entry (id + CFO fingerprint) was
  forwarded into the local cache — the tag crossed a cell boundary
  without costing any decode air time;
* ``push`` — the entry was *pushed* into this station's cache ahead of
  the tag's arrival (predictive handoff: an upstream pole's §7 speed
  estimate predicted this pole next) and the first sighting here
  consumed it — resolved before the tag even arrived, zero decode air
  time and zero pull latency;
* ``decode`` — a full §8 decode burst, for a tag no station knew yet;
* ``redecode`` — a full decode burst for a tag some *other* station had
  already identified: the handoff machinery failed to cover this
  sighting, which is exactly the waste the ledger exists to measure.

The :class:`HandoffLedger` classifies decode records into
``decode``/``redecode`` itself (it knows which ids the deployment has
seen where — a mesh merges its edges' ledgers into one that spans
every corridor), tallies cell entry/exit events, records every
predictive push *sent* (and every push that expired unconsumed — a
mis-push, e.g. the car turned off-route), and reports the headline
number: of the downstream first-sightings (a tag arriving at a pole
that some other pole already identified), what fraction was resolved
by a forwarded or pushed cache entry instead of burning a re-decode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SightingRecord", "PushRecord", "HandoffLedger"]

OWN_HIT = "own"
HANDOFF = "handoff"
PUSH = "push"
DECODE = "decode"
REDECODE = "redecode"
DECODE_FAILED = "decode-failed"
DECODE_DEFERRED = "decode-deferred"


@dataclass(frozen=True)
class SightingRecord:
    """One resolved (or unresolved) spike at one station.

    ``n_queries`` counts the decode queries the station itself put on
    the air; ``n_overheard`` counts captures of *other* stations'
    trigger windows the decode combined on top — free evidence from the
    shared response pool, no air time of this station's own.
    """

    t_s: float
    station: str
    kind: str
    cfo_hz: float
    tag_id: int | None = None
    from_station: str | None = None
    n_queries: int = 0
    n_overheard: int = 0


@dataclass(frozen=True)
class PushRecord:
    """One predictive cache push, as sent (not yet a sighting).

    A push is speculative: an upstream station predicted the tag's next
    pole from its §7 cross-pole speed estimate and planted the cache
    entry there ahead of arrival. Whether the bet paid off shows up
    later — as a ``push``-kind :class:`SightingRecord` when the tag
    arrived and the entry resolved its first sighting, or as a
    :attr:`HandoffLedger.push_misses` entry when it never did (the car
    turned off-route, parked, or the run ended first).

    Attributes:
        t_s: when the push was sent.
        target: the station the entry was planted at.
        from_station: the predicting (sending) station.
        tag_id / cfo_hz: the entry pushed.
        eta_s: the predicted arrival time at the target, if computed.
    """

    t_s: float
    target: str
    from_station: str
    tag_id: int
    cfo_hz: float
    eta_s: float | None = None


@dataclass
class HandoffLedger:
    """Record of how every sighting was resolved.

    One instance audits one deployment — a single
    :class:`~repro.sim.city.corridor.CityCorridor`, or a whole
    :class:`~repro.sim.city.mesh.CityMesh` (the mesh hands the same
    ledger to every corridor so re-decode classification sees sightings
    across corridor boundaries).
    """

    records: list[SightingRecord] = field(default_factory=list)
    pushes: list[PushRecord] = field(default_factory=list)
    push_misses: list[PushRecord] = field(default_factory=list)
    cell_entries: list[tuple[float, str, int]] = field(default_factory=list)
    cell_exits: list[tuple[float, str, int]] = field(default_factory=list)
    _stations_knowing: dict[int, set[str]] = field(default_factory=dict, repr=False)

    # -- recording -------------------------------------------------------------

    def record_own_hit(self, station: str, tag_id: int, t_s: float, cfo_hz: float) -> None:
        self._append(SightingRecord(t_s, station, OWN_HIT, cfo_hz, tag_id))

    def record_handoff(
        self, station: str, from_station: str, tag_id: int, t_s: float, cfo_hz: float
    ) -> None:
        self._append(
            SightingRecord(t_s, station, HANDOFF, cfo_hz, tag_id, from_station)
        )

    def record_push(
        self,
        target: str,
        from_station: str,
        tag_id: int,
        t_s: float,
        cfo_hz: float,
        eta_s: float | None = None,
    ) -> None:
        """A predictive push was *sent* (speculative — not a sighting,
        so the target does not yet "know" the tag for re-decode
        classification; only its consumption does that)."""
        self.pushes.append(
            PushRecord(t_s, target, from_station, tag_id, cfo_hz, eta_s)
        )

    def record_push_hit(
        self, station: str, from_station: str, tag_id: int, t_s: float, cfo_hz: float
    ) -> None:
        """A first sighting resolved by an entry pushed ahead of it."""
        self._append(
            SightingRecord(t_s, station, PUSH, cfo_hz, tag_id, from_station)
        )

    def record_push_miss(
        self,
        target: str,
        from_station: str,
        tag_id: int,
        t_s: float,
        cfo_hz: float,
        eta_s: float | None = None,
    ) -> None:
        """A pushed entry was never consumed — the prediction missed
        (off-route turn, parked car, or run end). The mis-pushed entry
        simply ages out of the target's cache; the tag re-decodes
        wherever it actually went, and both costs are on the ledger."""
        self.push_misses.append(
            PushRecord(t_s, target, from_station, tag_id, cfo_hz, eta_s)
        )

    def record_decode(
        self,
        station: str,
        tag_id: int,
        t_s: float,
        cfo_hz: float,
        n_queries: int = 0,
        n_overheard: int = 0,
    ) -> str:
        """A successful full decode; classified as a re-decode when some
        other station already knew this id. Returns the kind it was
        classified as (``decode`` or ``redecode``) so the caller can
        tag the sighting's provenance without re-deriving it."""
        known_elsewhere = self._stations_knowing.get(tag_id, set()) - {station}
        kind = REDECODE if known_elsewhere else DECODE
        self._append(
            SightingRecord(
                t_s,
                station,
                kind,
                cfo_hz,
                tag_id,
                n_queries=n_queries,
                n_overheard=n_overheard,
            )
        )
        return kind

    def record_decode_failure(
        self,
        station: str,
        t_s: float,
        cfo_hz: float,
        n_queries: int = 0,
        n_overheard: int = 0,
    ) -> None:
        self.records.append(
            SightingRecord(
                t_s,
                station,
                DECODE_FAILED,
                cfo_hz,
                n_queries=n_queries,
                n_overheard=n_overheard,
            )
        )

    def record_decode_deferred(self, station: str, t_s: float, cfo_hz: float) -> None:
        """A spike left unidentified this round (e.g. below the decode
        SNR gate: the tag is still far, a later round will be cheaper)."""
        self.records.append(SightingRecord(t_s, station, DECODE_DEFERRED, cfo_hz))

    def record_cell_entry(self, t_s: float, cell: str, tag_id: int) -> None:
        self.cell_entries.append((t_s, cell, tag_id))

    def record_cell_exit(self, t_s: float, cell: str, tag_id: int) -> None:
        self.cell_exits.append((t_s, cell, tag_id))

    def _append(self, record: SightingRecord) -> None:
        self.records.append(record)
        self._stations_knowing.setdefault(record.tag_id, set()).add(record.station)

    # -- statistics ------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Sightings per resolution kind."""
        out: dict[str, int] = {}
        for record in self.records:
            out[record.kind] = out.get(record.kind, 0) + 1
        return out

    @property
    def handoffs(self) -> int:
        return sum(1 for r in self.records if r.kind == HANDOFF)

    @property
    def push_hits(self) -> int:
        """First sightings resolved by a pre-pushed cache entry."""
        return sum(1 for r in self.records if r.kind == PUSH)

    @property
    def pushes_sent(self) -> int:
        return len(self.pushes)

    @property
    def redecodes(self) -> int:
        return sum(1 for r in self.records if r.kind == REDECODE)

    @property
    def decodes(self) -> int:
        return sum(1 for r in self.records if r.kind == DECODE)

    @property
    def downstream_sightings(self) -> int:
        """First sightings at a pole of a tag another pole already knew.

        Every such sighting was either covered by a forwarded (pull) or
        pushed (predictive) cache entry — arriving before the re-decode
        would have been needed — or cost a re-decode; later sightings at
        the same pole are own-cache hits and say nothing about handoff.
        """
        return self.handoffs + self.push_hits + self.redecodes

    @property
    def handoff_resolution_rate(self) -> float:
        """Fraction of downstream first-sightings resolved without a
        re-decode (by a pulled *or* pushed cache entry)."""
        downstream = self.downstream_sightings
        return (self.handoffs + self.push_hits) / downstream if downstream else 0.0

    def decode_queries_spent(self) -> int:
        """Air-time queries consumed by all decode attempts."""
        return sum(
            r.n_queries
            for r in self.records
            if r.kind in (DECODE, REDECODE, DECODE_FAILED)
        )

    def overheard_captures_used(self) -> int:
        """Overheard captures decode attempts combined as free evidence."""
        return sum(
            r.n_overheard
            for r in self.records
            if r.kind in (DECODE, REDECODE, DECODE_FAILED)
        )

    def summary(self) -> dict:
        """Headline numbers, JSON-friendly."""
        return {
            "sightings": len(self.records),
            "counts": self.counts(),
            "downstream_sightings": self.downstream_sightings,
            "handoff_resolution_rate": self.handoff_resolution_rate,
            "pushes_sent": self.pushes_sent,
            "push_hits": self.push_hits,
            "push_misses": len(self.push_misses),
            "decode_queries_spent": self.decode_queries_spent(),
            "overheard_captures_used": self.overheard_captures_used(),
            "cell_entries": len(self.cell_entries),
            "cell_exits": len(self.cell_exits),
            "tags_identified": len(self._stations_knowing),
        }
