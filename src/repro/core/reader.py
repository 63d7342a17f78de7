"""The Caraoke reader facade (§4, §10).

A :class:`CaraokeReader` bundles the reader-side processing chain —
counting (§5), AoA (§6) and decoding (§8) — behind one object tied to a
deployment geometry. It *processes* collisions; producing them is the
channel/simulation layer's job (readers are handed a ``query_fn``), which
keeps the algorithms testable against hand-built captures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..channel.collision import ReceivedCollision
from ..constants import QUERY_PERIOD_S
from .counting import BinClass, CollisionCounter, CountEstimate
from .decoding import CoherentDecoder, DecodeResult, DecodeSession
from .localization import AoAEstimate, AoAEstimator, ReaderGeometry

__all__ = ["ReaderReport", "CaraokeReader"]


@dataclass
class ReaderReport:
    """What a reader uploads per measurement (§12.5: "channels and CFOs").

    Attributes:
        timestamp_s: reader-local time of the query.
        count: the §5 estimate of tags in range.
        aoas: per-tag AoA measurements.
    """

    timestamp_s: float
    count: CountEstimate
    aoas: list[AoAEstimate] = field(default_factory=list)

    @property
    def n_tags(self) -> int:
        return self.count.count

    def payload_bits(self) -> int:
        """Approximate uplink cost: CFO (4 B) + channel (8 B) per spike,
        plus a header — the "few kbits" of §12.5 footnote 15."""
        return 64 + len(self.count.observations) * 96


@dataclass
class CaraokeReader:
    """One pole-mounted reader: geometry + processing chain.

    Attributes:
        geometry: antenna array and the road it watches.
        counter: the counting engine (§5).
        estimator: the AoA engine (§6); built from the geometry if omitted.
        sample_rate_hz: ADC rate of the captures this reader processes.
    """

    geometry: ReaderGeometry
    sample_rate_hz: float
    counter: CollisionCounter = field(default_factory=CollisionCounter)
    estimator: AoAEstimator | None = None
    query_period_s: float = QUERY_PERIOD_S

    def __post_init__(self) -> None:
        if self.estimator is None:
            self.estimator = AoAEstimator(self.geometry.array)

    # -- per-collision processing -----------------------------------------------

    def count(self, collision: ReceivedCollision) -> CountEstimate:
        """§5: how many tags are in this collision."""
        return self.counter.count(collision.antenna(0))

    def aoas(self, collision: ReceivedCollision) -> list[AoAEstimate]:
        """§6: spatial angle of every detected tag."""
        return self.estimator.estimate_all(collision)

    def observe(self, collision: ReceivedCollision, timestamp_s: float | None = None) -> ReaderReport:
        """Count + localize in one pass, sharing the spike detection.

        The count's accepted spikes seed the AoA measurements, mirroring
        the hardware pipeline (one sFFT pass feeds everything, §10): the
        accepted spikes' rows of the counter's final fit factors
        (:attr:`~repro.core.counting.CountEstimate.basis`) are the Eq 5
        probes their AoA readout needs, so no exponential is built twice.
        Every accepted spike is read; a corridor round reads only the
        spikes it resolves.
        """
        estimate = self.count(collision)
        basis, estimate.basis = estimate.basis, None
        aoas = []
        accepted = sorted(
            (o.cfo_hz, k)
            for k, o in enumerate(estimate.observations)
            if o.label is not BinClass.REJECTED
        )
        if accepted and collision.n_antennas >= 3:
            rows = [k for _, k in accepted]
            aoas = self.estimator.estimate_for_cfos(
                collision,
                [cfo for cfo, _ in accepted],
                probe=tuple(factor[rows] for factor in basis),
            )
        return ReaderReport(
            timestamp_s=collision.t0_s if timestamp_s is None else timestamp_s,
            count=estimate,
            aoas=aoas,
        )

    # -- decoding ------------------------------------------------------------------

    def decode_session(
        self,
        query_fn,
        combining: str = "mrc",
        opportunistic: str = "accept",
        obs=None,
    ) -> DecodeSession:
        """Open a repeated-query decode session (§8).

        Args:
            query_fn: ``query_fn(t_s) -> ReceivedCollision`` — typically
                ``ParkedSource.query`` or a live radio.
            combining: ``"mrc"`` (default: maximum-ratio across every
                antenna) or ``"single"`` (one-antenna ablation baseline).
            opportunistic: ``"accept"`` (default: captures donated via
                ``DecodeSession.donate_capture`` — windows overheard from
                other readers — are combined as free evidence) or
                ``"ignore"`` (donations dropped; the ablation baseline).
            obs: nullable observability hook (see :mod:`repro.obs`),
                threaded into the session and its combiner.
        """
        decoder = CoherentDecoder(self.sample_rate_hz, self.query_period_s)
        return DecodeSession(
            query_fn=query_fn,
            decoder=decoder,
            combining=combining,
            opportunistic=opportunistic,
            obs=obs,
        )

    def decode_all_in_range(
        self,
        query_fn,
        max_queries: int = 64,
        combining: str = "mrc",
    ) -> dict[float, DecodeResult]:
        """Count first, then decode every detected tag (§12.4 workflow).

        All detected tags are decoded as one batch from a single shared
        capture stream; the counting capture is the batch's first capture.
        ``combining`` is ``"mrc"`` (default: maximum-ratio across every
        antenna) or ``"single"`` (one-antenna ablation baseline).
        """
        session = self.decode_session(query_fn, combining=combining)
        session._ensure_captures(1)
        estimate = self.counter.count(session.readout_capture(0))
        cfos = [float(c) for c in estimate.cfos_hz()]
        if not cfos:
            return {}
        return session.decode_all(cfos, max_queries=max_queries)
