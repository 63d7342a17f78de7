""":class:`TollingService` — the sighting tap that bills crossings.

One service instance is one policy's billing plane: reads stream in
(from a live mesh tap or a synthetic replay), the dedup window collapses
them into toll events, and each event is charged against the sharded
account store under the service's identification policy:

* ``push`` — predictive handoff planted the identity ahead of the car:
  the charge posts at the read itself, zero lookup latency, zero air
  time (the paper's §7-driven best case);
* ``pull`` — the read asks the city directory through the
  latency-modeled backend link; the charge posts when the answer
  arrives ``k`` rounds later. A directory *miss* falls back to a blind
  decode burst (air time) and reports the recovered identity so later
  pulls hit;
* ``redecode`` — no identity plane at all: every crossing pays a full
  decode burst's air time and its duration in latency (the baseline the
  handoff machinery exists to beat);
* ``as-sighted`` — trust each read's own provenance (cache hits are
  free, decode-kind reads cost what they actually cost on the air) —
  the "whatever the radio layer already paid" accounting, and the
  default for live mesh taps.

Run one stream through three services (push / pull / redecode) and the
summaries are three points on one latency/air-time curve.
"""

from __future__ import annotations

from ...constants import QUERY_PERIOD_S
from ...errors import ConfigurationError
from . import events as ev
from .accounts import ShardedAccountStore
from .backend import BackendAnswer, DirectoryBackend
from .dedup import TollDedup
from .events import TollEvent, TollRead

__all__ = ["POLICIES", "TollingService"]

POLICIES = ("as-sighted", "push", "pull", "redecode")

#: Resolution kinds that carried a decode burst of their own.
_DECODE_KINDS = ("decode", "redecode")


class TollingService:
    """Billing plane over the city sighting stream.

    Attach to a mesh with ``mesh.add_sighting_tap(service)`` (works at
    any worker count — the instance *is* the tap callable), or feed
    :class:`~repro.apps.tolling.events.TollRead` records directly via
    :meth:`ingest`. Call :meth:`finish` once the stream ends to flush
    in-flight backend answers and get the summary.

    Attributes:
        policy: one of :data:`POLICIES`.
        toll_cents: flat toll per crossing (integer cents).
        max_lag_s: how far a read's emit time may trail the delivery
            watermark beyond one dedup window (see
            :class:`~repro.apps.tolling.dedup.TollDedup`). Must cover
            the feed's worst-case backhaul sync lag — including the
            final convergence flush — when reads ride batched links;
            the default 0 is the wired contract.
        accounts: the sharded store charges post against.
        dedup: the windowed dedup stage; it holds every live window's
            toll event, so a duplicate read counts on its own window's
            event even when it arrives after a later window opened.
        backend: the latency-modeled directory link (required for — and
            only used by — the ``pull`` policy).
        fallback_decode_queries: air cost of the blind decode a pull
            miss (or a ``redecode``-policy crossing whose read was a
            free cache hit) falls back to.
        keep_events: retain every :class:`TollEvent` in
            :attr:`events` (tests, small runs). Off, only aggregates
            are kept — a million-crossing replay should not hold a
            million records.
        obs: nullable observability hook (see :mod:`repro.obs`):
            mirrors reads, events, charges and latencies into the
            metrics registry. Never affects billing.
    """

    def __init__(
        self,
        *,
        policy: str = "as-sighted",
        toll_cents: int = 150,
        window_s: float = 5.0,
        max_lag_s: float = 0.0,
        accounts: ShardedAccountStore | None = None,
        backend: DirectoryBackend | None = None,
        fallback_decode_queries: int = 12,
        keep_events: bool = True,
        obs=None,
    ) -> None:
        if policy not in POLICIES:
            raise ConfigurationError(
                f"unknown tolling policy {policy!r}; pick from {POLICIES}"
            )
        if policy == "pull" and backend is None:
            raise ConfigurationError(
                "the pull policy resolves through the directory backend — "
                "pass backend=DirectoryBackend(directory)"
            )
        if toll_cents < 0:
            raise ConfigurationError("the toll cannot be negative")
        self.policy = policy
        self.toll_cents = int(toll_cents)
        self.accounts = accounts if accounts is not None else ShardedAccountStore()
        self.dedup = TollDedup(window_s=window_s, max_lag_s=max_lag_s)
        self.backend = backend
        self.fallback_decode_queries = int(fallback_decode_queries)
        self.keep_events = bool(keep_events)
        self.obs = obs
        self.events: list[TollEvent] = []
        self.reads = 0
        self.reads_by_kind: dict[str, int] = {}
        self.charged = 0
        self.unresolved = 0
        self.pull_fallbacks = 0
        self.misattributed = 0
        self.latency_sum_s = 0.0
        self.latency_max_s = 0.0
        self.air_queries_total = 0

    # -- the tap -----------------------------------------------------------------

    def __call__(
        self,
        t_s: float,
        edge: str,
        station: str,
        tag_id: int,
        cfo_hz: float,
        x_m: float,
        localized: bool,
        kind: str = "own",
        n_queries: int = 0,
        delivered_s: float | None = None,
    ) -> None:
        """Sighting-tap signature (see ``CityMesh.add_sighting_tap``).

        ``delivered_s`` arrives only from batched backhaul feeds: when
        the read actually reached billing (None means "now", i.e. at
        ``t_s`` — the wired contract).
        """
        self.ingest(
            TollRead(
                t_s=float(t_s),
                zone=edge,
                station=station,
                tag_id=int(tag_id),
                cfo_hz=float(cfo_hz),
                x_m=float(x_m),
                localized=bool(localized),
                kind=kind,
                n_queries=int(n_queries),
                delivered_s=None if delivered_s is None else float(delivered_s),
            )
        )

    def ingest(self, read: TollRead) -> TollEvent | None:
        """Feed one read; returns the toll event it opened, if any."""
        delivered_s = read.t_s if read.delivered_s is None else read.delivered_s
        self.reads += 1
        self.reads_by_kind[read.kind] = self.reads_by_kind.get(read.kind, 0) + 1
        if self.obs is not None:
            self.obs.count("tolling.read", kind=read.kind, zone=read.zone)
        if self.backend is not None:
            for answer in self.backend.drain(delivered_s):
                self._apply_answer(answer)
        event = self.dedup.admit(
            read.tag_id, read.zone, read.t_s, delivered_s=delivered_s
        )
        if event is None:
            return None
        event.kind = read.kind
        if self.keep_events:
            self.events.append(event)
        if self.obs is not None:
            self.obs.count("tolling.event", policy=self.policy, zone=read.zone)
        self._settle(event, read)
        return event

    # -- policy settlement -------------------------------------------------------

    def _settle(self, event: TollEvent, read: TollRead) -> None:
        # A read that rode a batched backhaul could not be acted on
        # before it was delivered: its sync lag is billing latency,
        # on top of whatever the policy itself costs.
        lag_s = (
            0.0 if read.delivered_s is None else max(read.delivered_s - read.t_s, 0.0)
        )
        if self.policy == "push":
            self._post(event, read.tag_id, air=0, latency_s=lag_s)
        elif self.policy == "redecode":
            # Blind re-decode: identification always burns a burst —
            # the one the read actually ran, or a fresh one where the
            # radio layer had resolved the spike for free.
            air = (
                read.n_queries
                if read.kind in _DECODE_KINDS and read.n_queries > 0
                else self.fallback_decode_queries
            )
            self._post(
                event, read.tag_id, air=air,
                latency_s=lag_s + air * QUERY_PERIOD_S,
            )
        elif self.policy == "as-sighted":
            air = read.n_queries if read.kind in _DECODE_KINDS else 0
            self._post(
                event, read.tag_id, air=air,
                latency_s=lag_s + air * QUERY_PERIOD_S,
            )
        else:  # pull
            # The lookup leaves when the read reaches billing; its
            # answer latency then stacks on the backhaul lag naturally
            # (ready_s - first_read_s spans both).
            self.backend.submit(read.cfo_hz, read.t_s + lag_s, token=(event, read))

    def _apply_answer(self, answer: BackendAnswer) -> None:
        event, read = answer.token
        if answer.account_id is not None:
            if answer.account_id != read.tag_id:
                # The directory matched the fingerprint to a different
                # account — the mis-attribution hazard its aging bounds
                # exist to keep rare. Bill what the directory said (the
                # plane has nothing better), but count it.
                self.misattributed += 1
                if self.obs is not None:
                    self.obs.count("tolling.misattributed", zone=event.zone)
            self._post(
                event,
                answer.account_id,
                air=0,
                latency_s=answer.ready_s - event.first_read_s,
            )
            return
        if self.fallback_decode_queries <= 0:
            event.status = ev.UNRESOLVED
            self.unresolved += 1
            if self.obs is not None:
                self.obs.count("tolling.unresolved", zone=event.zone)
            return
        # Directory miss: blind decode recovers the identity (air
        # time), and the recovery is reported so later pulls hit.
        self.pull_fallbacks += 1
        air = self.fallback_decode_queries
        decode_done_s = answer.ready_s + air * QUERY_PERIOD_S
        self.backend.report(
            read.tag_id,
            read.cfo_hz,
            read.station,
            read.zone,
            read.x_m,
            decode_done_s,
            localized=False,
        )
        self._post(
            event,
            read.tag_id,
            air=air,
            latency_s=decode_done_s - event.first_read_s,
        )

    def _post(
        self, event: TollEvent, account_id: int, air: int, latency_s: float
    ) -> None:
        charged_s = event.first_read_s + latency_s
        self.accounts.charge(account_id, self.toll_cents, charged_s)
        event.account_id = int(account_id)
        event.amount_cents = self.toll_cents
        event.air_queries = int(air)
        event.latency_s = float(latency_s)
        event.charged_s = charged_s
        event.status = ev.CHARGED
        self.charged += 1
        self.latency_sum_s += latency_s
        self.latency_max_s = max(self.latency_max_s, latency_s)
        self.air_queries_total += int(air)
        if self.obs is not None:
            self.obs.count("tolling.charge", policy=self.policy, zone=event.zone)
            self.obs.observe("tolling.latency_s", latency_s, policy=self.policy)

    # -- lifecycle ---------------------------------------------------------------

    def advance(self, now_s: float) -> None:
        """Deliver backend answers ready by ``now_s`` (the stream's own
        reads do this implicitly; call between quanta or at idle)."""
        if self.backend is not None:
            for answer in self.backend.drain(now_s):
                self._apply_answer(answer)

    def finish(self) -> dict:
        """Flush in-flight backend answers; returns :meth:`summary`."""
        if self.backend is not None:
            for answer in self.backend.flush():
                self._apply_answer(answer)
        return self.summary()

    @property
    def pending(self) -> int:
        """Toll events awaiting a backend answer."""
        return 0 if self.backend is None else self.backend.pending

    def check_consistent(self) -> None:
        """Billing-plane invariants, end to end.

        Every admitted toll event is charged or unresolved (none lost in
        flight once the backend is drained), the charge count matches
        the account store's, and the store conserves cents exactly.
        """
        settled = self.charged + self.unresolved
        if settled + self.pending != self.dedup.events:
            raise ConfigurationError(
                f"event accounting drifted: {self.charged} charged + "
                f"{self.unresolved} unresolved + {self.pending} pending "
                f"!= {self.dedup.events} admitted"
            )
        if self.accounts.total_charges != self.charged:
            raise ConfigurationError(
                f"store saw {self.accounts.total_charges} charges, "
                f"service posted {self.charged}"
            )
        self.accounts.check_consistent()

    def summary(self) -> dict:
        """Headline numbers, JSON-friendly."""
        mean_latency_s = self.latency_sum_s / self.charged if self.charged else 0.0
        mean_air = self.air_queries_total / self.charged if self.charged else 0.0
        return {
            "policy": self.policy,
            "reads": self.reads,
            "reads_by_kind": dict(sorted(self.reads_by_kind.items())),
            "toll_events": self.dedup.events,
            "duplicates_suppressed": self.dedup.duplicates,
            "charged": self.charged,
            "pending": self.pending,
            "unresolved": self.unresolved,
            "pull_fallbacks": self.pull_fallbacks,
            "misattributed": self.misattributed,
            "total_charged_cents": self.accounts.total_charged_cents,
            "mean_latency_s": mean_latency_s,
            "max_latency_s": self.latency_max_s,
            "air_queries_total": self.air_queries_total,
            "mean_air_queries_per_event": mean_air,
            "dedup": self.dedup.summary(),
            "accounts": self.accounts.summary(),
        }
