"""Intermittent backhaul: every pole↔directory link is a modeled link.

The mesh so far assumes every reader pole enjoys a free, lossless wire
to the city directory: a resolved sighting is reported the instant it
happens, and a push intent lands on the target pole in the same breath.
The DTN-backbone deployment scenario (PAPERS.md) breaks exactly that
assumption — low-cost cities where poles have *no* wired uplink and
reports, pushes and charge events must ride scheduled syncs or cars
acting as data mules. This module turns "directory RTT is free" into a
configured, measured axis:

* :class:`BackhaulLink` — one pole's link state: the uplink buffer of
  pending sighting deltas, the downlink queue of push intents waiting
  to reach the pole, and the link's sync schedule (next attempt, retry
  backoff).
* :class:`BackhaulConfig` — the delivery policy. ``"wired"``, the
  default, applies every item the moment it is submitted;
  ``"scheduled"`` batches each pole's traffic and flushes it on a
  staggered per-pole sync schedule with retry/backoff under injected
  outages, ``"mule"`` has cars crossing a
  pole pick up its buffered deltas and deliver them at the next synced
  (gateway) pole they pass.
* :class:`FaultPlan` — seeded, injectable degradation: outage windows
  (per link or global), per-flush drop probability, and a per-flush
  delivery delay drawn from a range (heterogeneous delays are what
  reorders batches in flight). All draws come from one explicit
  generator consumed in canonical event order, so an identical plan +
  seed reproduces byte-identical runs.
* :class:`BackhaulPlane` — the coordinator-owned router every sighting
  crosses. The mesh engine's coordinator submits the canonical sighting
  stream through one plane, so summaries stay worker-count invariant;
  the plane is the **only** library code that talks to the directory
  from the pole path (the ``backhaul-policy`` analyzer rule enforces
  it).

Determinism contract: the plane holds no wall clock and no RNG of its
own — time comes from the submitted stream (plus the engine's quantum
boundaries), and the only stochastic element is the
:class:`FaultPlan`'s explicitly seeded generator, drawn once per flush
attempt in canonical order.
Batched deliveries apply at their *delivery* time (``delivered_s``),
which drives directory aging and billing watermarks; the emission time
rides along so dedup windows and speed estimates stay anchored to when
the car actually crossed.

``python -m repro.sim.city --smoke backhaul`` runs all three policies
plus one fault plan on a small grid and checks lossless convergence
after the final flush, repeat-seed determinism, and that ``mesh.run``
equals a forked two-worker run under ``scheduled`` (the fast CI tier
runs it per push).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from ...errors import ConfigurationError
from ...utils import as_rng

__all__ = [
    "POLICIES",
    "OutageWindow",
    "FaultPlan",
    "BackhaulLink",
    "BackhaulConfig",
    "BackhaulPlane",
]

#: Delivery policies a link can run (see :class:`BackhaulConfig`).
POLICIES = ("wired", "scheduled", "mule")

#: Sync-lag histogram bucket upper bounds, seconds (the last bucket is
#: open-ended). Fixed so snapshots compare bit-for-bit across runs.
LAG_BUCKETS_S = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)

#: Exponential retry backoff bounds after an outage or dropped flush:
#: the first retry waits the base, each further one doubles it, capped.
RETRY_BACKOFF_S = 0.25
MAX_BACKOFF_S = 2.0


@dataclass(frozen=True)
class OutageWindow:
    """One injected backhaul outage.

    Attributes:
        start_s / end_s: sim-time window during which flush attempts
            fail (retry with backoff; nothing is lost).
        link: station name the outage applies to, or None for every
            link (a backbone outage).
    """

    start_s: float
    end_s: float
    link: str | None = None

    def covers(self, link: str, t_s: float) -> bool:
        if self.link is not None and self.link != link:
            return False
        return self.start_s <= t_s < self.end_s


class FaultPlan:
    """Seeded, injectable link degradation for backhaul runs.

    Three knobs, each deterministic under the plan's own generator:

    * ``outages`` — :class:`OutageWindow` spans during which a link's
      flush attempts fail outright (the batch stays buffered and the
      link retries with exponential backoff);
    * ``drop_p`` — per-flush-attempt probability the transmission is
      lost (counted, retried — never silently discarded);
    * ``delay_range_s`` — per-flush delivery delay drawn uniformly;
      heterogeneous delays are the reorder mechanism (a later flush
      with a shorter delay overtakes an earlier one in flight).

    The generator is consumed once per flush attempt in canonical event
    order, so identical plan parameters + seed reproduce byte-identical
    metric snapshots and billing summaries (asserted by the smoke and
    the fault-injection test suite).
    """

    def __init__(
        self,
        *,
        outages=(),
        drop_p: float = 0.0,
        delay_range_s: tuple[float, float] = (0.0, 0.0),
        rng=0,
    ) -> None:
        if not 0.0 <= drop_p <= 1.0:
            raise ConfigurationError("drop_p must be a probability")
        lo, hi = float(delay_range_s[0]), float(delay_range_s[1])
        if lo < 0.0 or hi < lo:
            raise ConfigurationError("delay_range_s must be 0 <= lo <= hi")
        for window in outages:
            if window.end_s < window.start_s:
                raise ConfigurationError("an outage must end after it starts")
        self.outages = tuple(outages)
        self.drop_p = float(drop_p)
        self.delay_range_s = (lo, hi)
        self._rng = as_rng(rng)

    @classmethod
    def seeded(
        cls,
        seed: int,
        *,
        duration_s: float,
        links=(),
        n_outages: int = 2,
        outage_s: float = 2.0,
        drop_p: float = 0.1,
        max_delay_s: float = 1.0,
    ) -> "FaultPlan":
        """A random-but-reproducible plan: ``n_outages`` windows of
        ``outage_s`` placed uniformly inside the run (on a random link
        from ``links``, or globally when no links are named), plus the
        given drop/delay knobs. One seed fixes everything, including
        the per-attempt draws of the returned plan."""
        rng = as_rng(seed)
        links = sorted(links)
        windows = []
        for _ in range(int(n_outages)):
            link = (
                None
                if not links
                else links[int(rng.integers(0, len(links)))]
            )
            start_s = float(rng.uniform(0.0, max(duration_s - outage_s, 0.0)))
            windows.append(OutageWindow(start_s, start_s + float(outage_s), link))
        return cls(
            outages=windows,
            drop_p=drop_p,
            delay_range_s=(0.0, float(max_delay_s)),
            rng=int(rng.integers(0, 2**31)),
        )

    def outage_covers(self, link: str, t_s: float) -> bool:
        return any(window.covers(link, t_s) for window in self.outages)

    def sample(self, _link: str) -> tuple[bool, float]:
        """One flush attempt's fate: (dropped, delivery delay). Both
        draws happen every call so the stream stays aligned whatever
        the drop outcome."""
        dropped = float(self._rng.uniform(0.0, 1.0)) < self.drop_p
        delay_s = float(self._rng.uniform(*self.delay_range_s))
        return dropped, delay_s

    def summary(self) -> dict:
        """Plan shape, JSON-friendly (no draw state)."""
        return {
            "n_outages": len(self.outages),
            "outage_total_s": float(
                sum(w.end_s - w.start_s for w in self.outages)
            ),
            "drop_p": self.drop_p,
            "delay_range_s": list(self.delay_range_s),
        }


@dataclass
class BackhaulLink:
    """One pole↔directory link: buffers, schedule and retry state.

    Attributes:
        station: the pole this link belongs to.
        buffer: uplink sighting deltas awaiting transport (under
            ``mule`` this is the pile a passing car picks up).
        downlink: push intents queued at the directory side, delivered
            to the pole on its next successful sync.
        next_attempt_s: next scheduled flush attempt (``scheduled``
            policy; unused under ``mule``).
        backoff_s: current retry backoff (0 when the link is healthy).
    """

    station: str
    buffer: list[tuple] = field(default_factory=list)
    downlink: list[tuple] = field(default_factory=list)
    next_attempt_s: float = float("inf")
    backoff_s: float = 0.0


@dataclass
class BackhaulConfig:
    """Delivery policy for every pole↔directory link of a mesh.

    Attributes:
        policy: one of :data:`POLICIES` — ``"wired"`` (the default:
            immediate application),
            ``"scheduled"`` (per-pole sync schedule with retry/backoff)
            or ``"mule"`` (cars carry deltas to gateway poles).
        sync_period_s: flush cadence under ``scheduled``. The per-pole
            schedules are phase-staggered (pole ``i`` of ``n`` first
            syncs at ``period * (1 + i/n)``) so the directory sees a
            spread load instead of a thundering herd. Deterministic —
            derived from sorted station order, no RNG.
        gateways: stations with a wired uplink under ``mule``; empty
            means the mesh derives them (the last pole of every exit
            edge, where departing cars naturally pass).
        fault_plan: optional :class:`FaultPlan` injecting outages,
            drops and delays.
    """

    policy: str = "wired"
    sync_period_s: float = 2.0
    gateways: tuple[str, ...] = ()
    fault_plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ConfigurationError(
                f"unknown backhaul policy {self.policy!r}; pick from {POLICIES}"
            )
        if self.sync_period_s <= 0:
            raise ConfigurationError("the sync period must be positive")


class BackhaulPlane:
    """The router every pole→directory (and push downlink) hop crosses.

    One plane serves one run. The engine's coordinator drives it:
    :meth:`submit` once per resolved sighting in canonical time order,
    :meth:`advance` at every quantum boundary, :meth:`final_flush` once
    at end of run (the DTN convergence flush — after it, every
    submitted item has been applied and :meth:`check_consistent`
    holds).

    Under ``wired`` the plane is a pass-through: directory report, taps,
    then the push decision, all at sighting time, with the push handed
    straight to ``deliver_push``. Under the batched policies items apply
    at delivery time: the directory via
    :meth:`~repro.sim.city.directory.IdentityDirectory.apply_delta`,
    taps with an extra ``delivered_s`` keyword, and push intents are
    recomputed at delivery against the then-current speed estimate and
    routed back over the same links (``scheduled``: the target pole's
    downlink; ``mule``: immediate at gateways, dropped — and counted —
    for unsynced poles, which have no downlink path).

    Args:
        config: the :class:`BackhaulConfig`.
        directory: the city :class:`IdentityDirectory` (or compatible).
        taps: the mesh's sighting-tap list (shared by reference).
        stations: every pole name of the mesh.
        gateways: synced poles under ``mule`` (ignored otherwise).
        push_intent: optional callback
            ``(edge, station, x_m, tag_id, cfo_hz, t_emit, estimate) ->
            intent | None`` computing a push decision (the mesh's own
            predictor); None disables push routing entirely.
        deliver_push: optional callback ``(intent, now_s)`` planting a
            push that reached its pole (the engine queues it for the
            owning shard's next quantum).
        obs: nullable observability hook — mirrors the ``backhaul.*``
            metric family; never affects delivery.
    """

    def __init__(
        self,
        config: BackhaulConfig,
        *,
        directory,
        taps,
        stations,
        gateways=(),
        push_intent=None,
        deliver_push=None,
        obs=None,
    ) -> None:
        self.config = config
        self.policy = config.policy
        self.directory = directory
        self.taps = taps
        self.stations = sorted(stations)
        self.gateways = frozenset(gateways)
        self.obs = obs
        self._make_push_intent = push_intent
        self._deliver_push = deliver_push
        self.batched = self.policy != "wired"
        if self.policy == "mule" and not self.gateways:
            raise ConfigurationError(
                "the mule policy needs at least one gateway pole"
            )
        unknown = self.gateways - set(self.stations)
        if self.batched and unknown:
            raise ConfigurationError(f"unknown gateway stations: {sorted(unknown)}")
        self._links: dict[str, BackhaulLink] = {}
        n = len(self.stations)
        for i, name in enumerate(self.stations):
            link = BackhaulLink(station=name)
            if self.policy == "scheduled":
                phase_s = config.sync_period_s * i / n
                link.next_attempt_s = config.sync_period_s + phase_s
            self._links[name] = link
        #: car satchels under ``mule``: items riding each tag, keyed by id.
        self._satchels: dict[int, list[tuple]] = {}
        #: batches in flight: (delivery_s, seq, "up"|"down", station, items).
        self._inflight: list[tuple] = []
        self._seq = 0
        self._closing = False
        self._flushed = False
        # -- counters (all sim-time derived, all deterministic) -------
        self.items_submitted = 0
        self.items_delivered = 0
        self.final_flush_items = 0
        self.batches_sent = 0
        self.batches_delivered = 0
        self.batches_dropped = 0
        self.batches_retried = 0
        self.pushes_sent = 0
        self.pushes_delivered = 0
        self.pushes_dropped = 0
        self.mule_pickups = 0
        self.mule_deliveries = 0
        self.lag_count = 0
        self.lag_sum_s = 0.0
        self.lag_max_s = 0.0
        self.lag_buckets = [0] * (len(LAG_BUCKETS_S) + 1)

    # -- the sighting path ---------------------------------------------------

    def submit(
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
    ):
        """Route one resolved sighting onto its pole's link.

        Wired: applies immediately. Batched policies: buffers /
        satchels the delta. Either way pushes leave through the plane's
        callbacks once the delta reaches the directory side.
        """
        if not self.batched:
            self._apply(
                (t_s, edge, station, tag_id, cfo_hz, x_m, localized, kind, n_queries),
                None,
            )
            return
        self.advance(t_s)
        self.items_submitted += 1
        item = (
            float(t_s),
            str(edge),
            str(station),
            int(tag_id),
            float(cfo_hz),
            float(x_m),
            bool(localized),
            str(kind),
            int(n_queries),
        )
        link = self._links[station]
        if self.policy == "scheduled":
            link.buffer.append(item)
            return
        # mule: a car at a gateway hands over its satchel (plus this
        # very read — the gateway pole is synced); anywhere else it
        # picks up the pole's pile and leaves its own read behind for
        # the next car.
        if station in self.gateways:
            batch = self._satchels.pop(tag_id, [])
            batch.append(item)
            if self._transmit(link, batch, float(t_s)):
                self.mule_deliveries += len(batch) - 1
                if self.obs is not None and len(batch) > 1:
                    self.obs.count(
                        "backhaul.mule", kind="delivery", n=len(batch) - 1
                    )
            else:
                self._satchels[tag_id] = batch
        else:
            picked, link.buffer = link.buffer, []
            if picked:
                self._satchels.setdefault(tag_id, []).extend(picked)
                self.mule_pickups += len(picked)
                if self.obs is not None:
                    self.obs.count("backhaul.mule", kind="pickup", n=len(picked))
            link.buffer.append(item)

    def advance(self, now_s: float) -> None:
        """Process every sync attempt and in-flight delivery due by
        ``now_s``, in global (time, sequence) order. Idempotent; the
        engine may call it as often as it likes — delivery times are
        computed from the schedule, never from the call instant."""
        if not self.batched:
            return
        now_s = float(now_s)
        while True:
            cand_t = float("inf")
            cand_link = None
            if self._inflight and self._inflight[0][0] <= now_s:
                cand_t = self._inflight[0][0]
            if self.policy == "scheduled":
                for name in self.stations:
                    link = self._links[name]
                    if link.next_attempt_s <= now_s and link.next_attempt_s < cand_t:
                        cand_t = link.next_attempt_s
                        cand_link = link
            if cand_t == float("inf"):
                return
            if cand_link is None:
                self._pop_delivery()
            elif not cand_link.buffer and not cand_link.downlink:
                # An empty sync is a no-op on the air: roll the schedule
                # one period. Rolled as an ordinary event — one step per
                # loop, in global time order — so a delivery landing
                # downlink traffic between two of a link's attempts is
                # carried by the next attempt, never skipped because the
                # schedule fast-forwarded past it. Delivery times stay a
                # pure function of the submitted stream, however often
                # the engine calls advance().
                cand_link.backoff_s = 0.0
                cand_link.next_attempt_s = cand_t + self.config.sync_period_s
            else:
                self._sync_attempt(cand_link, cand_t)

    def final_flush(self, end_s: float) -> None:
        """The DTN convergence flush: at end of run, deliver everything
        still buffered, satcheled or in flight (outages and drops no
        longer apply — this models the operator reconciling the city
        after the run, the step that makes billing completeness reach
        100%). Push intents are suppressed — the run is over — and
        undeliverable downlink pushes are counted dropped."""
        if not self.batched or self._flushed:
            return
        self._flushed = True
        end_s = float(end_s)
        self.advance(end_s)
        self._closing = True
        before = self.items_delivered
        for name in self.stations:
            link = self._links[name]
            items, link.buffer = link.buffer, []
            if items:
                self._apply_batch(items, end_s)
        for tag_id in sorted(self._satchels):
            items = self._satchels[tag_id]
            if items:
                self._apply_batch(items, end_s)
        self._satchels.clear()
        while self._inflight:
            self._pop_delivery()
        for name in self.stations:
            link = self._links[name]
            if link.downlink:
                self.pushes_dropped += len(link.downlink)
                link.downlink = []
        self.final_flush_items = self.items_delivered - before
        if self.obs is not None and self.final_flush_items:
            self.obs.count(
                "backhaul.item", kind="final_flush", n=self.final_flush_items
            )

    # -- link machinery ------------------------------------------------------

    def _attempt_fate(self, link: BackhaulLink, t_s: float):
        """One transmission attempt's outcome against the fault plan:
        ``None`` for a failure (outage or drop — already counted), else
        the delivery delay."""
        plan = self.config.fault_plan
        if plan is None:
            return 0.0
        if plan.outage_covers(link.station, t_s):
            self.batches_retried += 1
            if self.obs is not None:
                self.obs.count("backhaul.batch", kind="retried", link=link.station)
            return None
        dropped, delay_s = plan.sample(link.station)
        if dropped:
            self.batches_dropped += 1
            if self.obs is not None:
                self.obs.count("backhaul.batch", kind="dropped", link=link.station)
            return None
        return delay_s

    def _send(
        self, link: BackhaulLink, direction: str, batch: list[tuple], due_s: float
    ) -> None:
        """Put one batch in flight (``"up"`` to the directory, ``"down"``
        to the pole), delivered at ``due_s``."""
        if direction == "up":
            self.batches_sent += 1
            if self.obs is not None:
                self.obs.count("backhaul.batch", kind="sent", link=link.station)
        heapq.heappush(
            self._inflight, (due_s, self._seq, direction, link.station, batch)
        )
        self._seq += 1

    def _transmit(self, link: BackhaulLink, batch: list[tuple], t_s: float) -> bool:
        """Put one uplink batch on the air; False means it stays with
        the sender (outage/drop — retry later, nothing lost)."""
        delay_s = self._attempt_fate(link, t_s)
        if delay_s is None:
            return False
        self._send(link, "up", batch, t_s + delay_s)
        return True

    def _sync_attempt(self, link: BackhaulLink, t_s: float) -> None:
        """One scheduled flush: both directions ride the same attempt."""
        delay_s = self._attempt_fate(link, t_s)
        if delay_s is None:
            link.backoff_s = (
                RETRY_BACKOFF_S
                if link.backoff_s <= 0.0
                else min(link.backoff_s * 2.0, MAX_BACKOFF_S)
            )
            link.next_attempt_s = t_s + link.backoff_s
            return
        link.backoff_s = 0.0
        link.next_attempt_s = t_s + self.config.sync_period_s
        batch_up, link.buffer = link.buffer, []
        batch_down, link.downlink = link.downlink, []
        if batch_up:
            self._send(link, "up", batch_up, t_s + delay_s)
        if batch_down:
            self._send(link, "down", batch_down, t_s + delay_s)

    def _pop_delivery(self) -> None:
        delivery_s, _, kind, station, payload = heapq.heappop(self._inflight)
        if kind == "up":
            self.batches_delivered += 1
            if self.obs is not None:
                self.obs.count("backhaul.batch", kind="delivered", link=station)
            self._apply_batch(payload, delivery_s)
            return
        # downlink: push intents reached their pole
        for intent in payload:
            if self._closing or self._deliver_push is None:
                self.pushes_dropped += 1
                continue
            self._deliver_push(intent, delivery_s)
            self.pushes_delivered += 1
            if self.obs is not None:
                self.obs.count("backhaul.push", kind="delivered", link=station)

    # -- application ---------------------------------------------------------

    def _apply_batch(self, items: list[tuple], delivered_s: float) -> None:
        for item in items:
            self._apply(item, delivered_s)

    def _apply(self, item: tuple, delivered_s: float | None) -> None:
        t_s, edge, station, tag_id, cfo_hz, x_m, localized, kind, n_queries = item
        if delivered_s is None:
            # The wired pass-through: everything happens at sighting time.
            estimate = self.directory.report(
                tag_id, cfo_hz, station, edge, x_m, t_s, localized=localized
            )
            for tap in self.taps:
                tap(
                    t_s, edge, station, tag_id, cfo_hz, x_m, localized,
                    kind, n_queries,
                )
            self._push(item, estimate, t_s)
            return
        estimate = self.directory.apply_delta(
            tag_id, cfo_hz, station, edge, x_m, t_s,
            localized=localized, delivered_s=delivered_s,
        )
        for tap in self.taps:
            tap(
                t_s, edge, station, tag_id, cfo_hz, x_m, localized,
                kind, n_queries, delivered_s=delivered_s,
            )
        self.items_delivered += 1
        lag_s = max(delivered_s - t_s, 0.0)
        self.lag_count += 1
        self.lag_sum_s += lag_s
        self.lag_max_s = max(self.lag_max_s, lag_s)
        bucket = 0
        while bucket < len(LAG_BUCKETS_S) and lag_s > LAG_BUCKETS_S[bucket]:
            bucket += 1
        self.lag_buckets[bucket] += 1
        if self.obs is not None:
            self.obs.count("backhaul.item", kind="delivered")
            self.obs.observe("backhaul.sync_lag_s", lag_s, link=station)
        self._push(item, estimate, delivered_s)

    def _push(self, item: tuple, estimate, now_s: float) -> None:
        """The push decision for one applied item, routed toward its
        target pole (the run is over once the final flush starts)."""
        if self._closing or estimate is None or self._make_push_intent is None:
            return
        t_s, edge, station, tag_id, cfo_hz, x_m = item[:6]
        intent = self._make_push_intent(
            edge, station, x_m, tag_id, cfo_hz, t_s, estimate
        )
        if intent is not None:
            self._route_push(intent, now_s)

    def _route_push(self, intent: tuple, now_s: float) -> None:
        target = intent[0]
        self.pushes_sent += 1
        if self.obs is not None:
            self.obs.count("backhaul.push", kind="sent", link=target)
        if self.policy == "scheduled":
            self._links[target].downlink.append(intent)
            return
        # wired delivers at once; under mule only gateway poles have a
        # downlink path.
        reachable = self.policy == "wired" or target in self.gateways
        if reachable and self._deliver_push is not None:
            self._deliver_push(intent, now_s)
            self.pushes_delivered += 1
            if self.obs is not None:
                self.obs.count("backhaul.push", kind="delivered", link=target)
        else:
            self.pushes_dropped += 1
            if self.obs is not None:
                self.obs.count("backhaul.push", kind="dropped", link=target)

    # -- results -------------------------------------------------------------

    def check_consistent(self) -> None:
        """Post-flush invariants: nothing buffered, satcheled or in
        flight, and every submitted item applied exactly once."""
        leftover = [
            name
            for name in self.stations
            if self._links[name].buffer or self._links[name].downlink
        ]
        if leftover:
            raise ConfigurationError(f"links still hold traffic: {leftover}")
        if self._satchels or self._inflight:
            raise ConfigurationError(
                f"{sum(map(len, self._satchels.values()))} satcheled and "
                f"{len(self._inflight)} in-flight batches never delivered"
            )
        if self.batched and self.items_delivered != self.items_submitted:
            raise ConfigurationError(
                f"{self.items_submitted} items submitted but "
                f"{self.items_delivered} delivered — the backhaul lost data"
            )

    def summary(self) -> dict:
        """Headline numbers, JSON-friendly and byte-stable under a
        repeated seed (the determinism acceptance gate hashes this)."""
        mean_lag_s = self.lag_sum_s / self.lag_count if self.lag_count else 0.0
        labels = [f"<={b:g}s" for b in LAG_BUCKETS_S] + ["inf"]
        out = {
            "policy": self.policy,
            "batches": {
                "sent": self.batches_sent,
                "delivered": self.batches_delivered,
                "dropped": self.batches_dropped,
                "retried": self.batches_retried,
            },
            "items": {
                "submitted": self.items_submitted,
                "delivered": self.items_delivered,
                "final_flush": self.final_flush_items,
            },
            "pushes": {
                "sent": self.pushes_sent,
                "delivered": self.pushes_delivered,
                "dropped": self.pushes_dropped,
            },
            "mule": {
                "pickups": self.mule_pickups,
                "deliveries": self.mule_deliveries,
            },
            "sync_lag_s": {
                "count": self.lag_count,
                "mean": mean_lag_s,
                "max": self.lag_max_s,
                "buckets": dict(zip(labels, self.lag_buckets)),
            },
        }
        if self.policy == "scheduled":
            out["sync_period_s"] = self.config.sync_period_s
        if self.config.fault_plan is not None:
            out["faults"] = self.config.fault_plan.summary()
        return out
