"""Collisions: what a reader captures when every tag answers (Eq 11).

When a reader queries, *every* tag in range responds 100 µs later, so the
signal at each reader antenna is

    ``r_a(t) = sum_i  h_{a,i} * s_i(t) * exp(j(2 pi cfo_i t + phi0_i)) + n(t)``

with a per-antenna, per-tag channel ``h`` and per-response random phase
``phi0``. This module holds the capture record, :class:`ReceivedCollision`,
and its per-tag ground truth. One synthesizer builds every capture,
:class:`~repro.sim.city.moving.MovingCollisionSource`: per-tag CFO-mixed
baseband rows are precomputed once and each query reduces to one
(antennas x tags) @ (tags x samples) product. A static scene is the same
source over tags at speed zero
(:class:`~repro.sim.city.moving.ParkedSource`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError
from ..phy.transponder import TagResponse, Transponder
from ..phy.waveform import Waveform

__all__ = [
    "TruthEntry",
    "ReceivedCollision",
    "truth_entries",
]


@dataclass
class TruthEntry:
    """Ground truth for one tag inside a synthesized collision.

    ``channels[k]`` is the full complex multiplier applied to the tag's
    baseband at antenna ``k``: propagation channel x tx amplitude x the
    response's random initial phase.
    """

    response: TagResponse
    channels: np.ndarray

    def __post_init__(self) -> None:
        self.channels = np.asarray(self.channels, dtype=np.complex128)

    def cfo_hz(self, lo_hz: float) -> float:
        return self.response.cfo_hz(lo_hz)


@dataclass
class ReceivedCollision:
    """The reader-side capture of one query's worth of colliding responses.

    Attributes:
        antennas: one :class:`Waveform` per antenna element.
        lo_hz: the reader LO the capture is referenced to.
        truth: per-tag ground truth (response + per-antenna channels),
            available because this is a simulation; algorithms never read it.
        overheard_from: provenance for opportunistic captures — the name
            of the reader whose query triggered the responses when this
            capture was *overheard* (the receiving pole never transmitted
            the query; the responses are free air time). None for a
            reader's own captures.
    """

    antennas: list[Waveform]
    lo_hz: float
    truth: list[TruthEntry] = field(default_factory=list)
    overheard_from: str | None = None

    def __post_init__(self) -> None:
        # The decode pipeline treats the antennas as rows of one (K, N)
        # capture matrix; validate that shape here so a malformed
        # collision fails at construction instead of as a bare
        # IndexError (empty list) or a shape error deep in a combiner.
        if not self.antennas:
            raise ConfigurationError("a collision needs at least one antenna capture")
        first = self.antennas[0]
        for wave in self.antennas[1:]:
            if wave.n_samples != first.n_samples:
                raise ConfigurationError(
                    "antenna captures must share one length, got "
                    f"{wave.n_samples} and {first.n_samples} samples"
                )
            if abs(wave.sample_rate_hz - first.sample_rate_hz) > 1e-6:
                raise ConfigurationError(
                    "antenna captures must share one sample rate, got "
                    f"{wave.sample_rate_hz} and {first.sample_rate_hz} Hz"
                )

    @property
    def n_antennas(self) -> int:
        return len(self.antennas)

    @property
    def sample_rate_hz(self) -> float:
        return self.antennas[0].sample_rate_hz

    @property
    def t0_s(self) -> float:
        return self.antennas[0].t0_s

    def antenna(self, index: int) -> Waveform:
        return self.antennas[index]

    def true_cfos_hz(self) -> np.ndarray:
        """Ground-truth CFOs of the colliding tags (ascending)."""
        return np.sort([entry.cfo_hz(self.lo_hz) for entry in self.truth])


def truth_entries(
    transponders: list[Transponder],
    templates: list[TagResponse],
    weights: np.ndarray,
    phases: np.ndarray,
    t0_s: float,
    sample_rate_hz: float,
) -> list[TruthEntry]:
    """Ground truth of one query's m responses, built from its arrays.

    ``weights`` is the (K, m) matrix the capture applied to the tags'
    baseband rows and ``phases`` the m unit phasors of the responses'
    oscillator phases. One ``np.angle`` gives every ``phase0_rad`` and
    one (m, K) copy of the weights every entry's ``channels`` row.
    """
    angles = np.angle(phases)
    channels = weights.T.copy()
    return [
        TruthEntry(
            response=TagResponse(
                transponder=transponder,
                bits=template.bits,
                baseband=template.baseband,
                t0_s=t0_s,
                sample_rate_hz=sample_rate_hz,
                carrier_hz=template.carrier_hz,
                phase0_rad=float(angle),
            ),
            channels=row,
        )
        for transponder, template, angle, row in zip(
            transponders, templates, angles, channels
        )
    ]
