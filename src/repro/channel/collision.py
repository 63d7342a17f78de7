"""Collision synthesis: superposing simultaneous tag responses (Eq 11).

When a reader queries, *every* tag in range responds 100 µs later, so the
signal at each reader antenna is

    ``r_a(t) = sum_i  h_{a,i} * s_i(t) * exp(j(2 pi cfo_i t + phi0_i)) + n(t)``

with a per-antenna, per-tag channel ``h`` and per-response random phase
``phi0``. Two synthesis paths are provided:

* :func:`synthesize_collision` — general path: takes arbitrary
  :class:`~repro.phy.transponder.TagResponse` objects, builds absolute-time
  waveforms, applies any channel model.
* :class:`StaticCollisionSimulator` — fast path for repeated queries of a
  *static* scene (the §8/§12.4 decoding experiments issue tens of queries,
  one per ms): per-tag CFO-mixed baseband vectors are precomputed once and
  each query reduces to a small matrix multiply.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..constants import (
    DEFAULT_SAMPLE_RATE_HZ,
    QUERY_DURATION_S,
    READER_LO_HZ,
    RESPONSE_DURATION_S,
    TURNAROUND_S,
)
from ..errors import ConfigurationError
from ..phy.transponder import TagResponse, Transponder
from ..phy.waveform import Waveform
from ..utils import as_rng
from .noise import add_awgn

__all__ = [
    "TruthEntry",
    "ReceivedCollision",
    "truth_entries",
    "synthesize_collision",
    "StaticCollisionSimulator",
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


def synthesize_collision(
    responses: list[TagResponse],
    antenna_positions_m: np.ndarray,
    channel,
    lo_hz: float = READER_LO_HZ,
    noise_power_w: float = 0.0,
    rng=None,
    capture_start_s: float | None = None,
    capture_duration_s: float | None = None,
) -> ReceivedCollision:
    """Build the per-antenna received waveforms for a set of tag responses.

    Args:
        responses: the colliding responses (may be empty -> pure noise).
        antenna_positions_m: (K, 3) reader element positions.
        channel: object with ``coefficient(tx_m, rx_m) -> complex``.
        lo_hz: receiver local oscillator frequency.
        noise_power_w: AWGN power per antenna over the capture bandwidth.
        rng: seedable randomness for the noise.
        capture_start_s / capture_duration_s: the ADC capture window;
            defaults to the earliest response start and the response length.

    Returns:
        A :class:`ReceivedCollision` carrying waveforms plus ground truth.
    """
    antenna_positions_m = np.atleast_2d(np.asarray(antenna_positions_m, dtype=np.float64))
    if antenna_positions_m.shape[1] != 3:
        raise ConfigurationError("antenna positions must be (K, 3)")
    rng = as_rng(rng)
    n_antennas = antenna_positions_m.shape[0]

    if capture_start_s is None:
        capture_start_s = min((r.t0_s for r in responses), default=0.0)
    if capture_duration_s is None:
        capture_duration_s = max(
            (r.end_s - capture_start_s for r in responses), default=RESPONSE_DURATION_S
        )
    sample_rate = responses[0].sample_rate_hz if responses else DEFAULT_SAMPLE_RATE_HZ
    for response in responses:
        if abs(response.sample_rate_hz - sample_rate) > 1e-6:
            raise ConfigurationError("all responses must share one sample rate")
        if response.transponder.position_m is None:
            raise ConfigurationError(
                f"transponder {response.transponder.tag_id} has no position"
            )

    pre_channel = [response.baseband_at_lo(lo_hz) for response in responses]
    truth = [
        TruthEntry(response=response, channels=np.zeros(n_antennas, dtype=np.complex128))
        for response in responses
    ]

    waveforms: list[Waveform] = []
    for k, rx_pos in enumerate(antenna_positions_m):
        capture = Waveform.silence(capture_duration_s, sample_rate, capture_start_s)
        for i, response in enumerate(responses):
            h = channel.coefficient(response.transponder.position_m, rx_pos)
            gain = h * response.transponder.tx_amplitude * np.exp(1j * response.phase0_rad)
            truth[i].channels[k] = gain
            capture = capture + pre_channel[i].scaled(gain)
        capture = _fit_window(capture, capture_start_s, capture_duration_s)
        capture = Waveform(
            add_awgn(capture.samples, noise_power_w, rng), sample_rate, capture.t0_s
        )
        waveforms.append(capture)

    return ReceivedCollision(antennas=waveforms, lo_hz=lo_hz, truth=truth)


def _fit_window(wave: Waveform, start_s: float, duration_s: float) -> Waveform:
    """Clamp a waveform to exactly [start, start + duration)."""
    n = int(round(duration_s * wave.sample_rate_hz))
    offset = int(round((start_s - wave.t0_s) * wave.sample_rate_hz))
    out = np.zeros(n, dtype=np.complex128)
    src_lo = max(0, offset)
    src_hi = min(wave.n_samples, offset + n)
    if src_hi > src_lo:
        dst_lo = src_lo - offset
        out[dst_lo : dst_lo + (src_hi - src_lo)] = wave.samples[src_lo:src_hi]
    return Waveform(out, wave.sample_rate_hz, start_s)


class StaticCollisionSimulator:
    """Fast repeated-query synthesis for a static scene (§8, §12.4).

    Precomputes, per tag and antenna, the channel coefficient and the
    CFO-mixed baseband vector (in response-relative time). Each ``query``
    then draws one random phase per tag and performs a (K x m) @ (m x N)
    multiply — orders of magnitude faster than re-synthesizing waveforms,
    which is what makes the Fig 16 sweep (hundreds of decode sessions with
    tens of queries each) tractable.

    The response-relative CFO phasing differs from the absolute-time path
    by one constant phase per tag and query; that phase is absorbed into
    the per-response random phase and the per-query channel estimate, so
    no algorithm in the library can observe the difference.
    """

    def __init__(
        self,
        tags: list[Transponder],
        antenna_positions_m: np.ndarray,
        channel,
        lo_hz: float = READER_LO_HZ,
        sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ,
        noise_power_w: float = 0.0,
        rng=None,
    ):
        self.tags = list(tags)
        self.antenna_positions_m = np.atleast_2d(
            np.asarray(antenna_positions_m, dtype=np.float64)
        )
        if self.antenna_positions_m.shape[1] != 3:
            raise ConfigurationError("antenna positions must be (K, 3)")
        self.lo_hz = lo_hz
        self.sample_rate_hz = sample_rate_hz
        self.noise_power_w = noise_power_w
        self.rng = as_rng(rng)

        self._n_samples = int(round(RESPONSE_DURATION_S * sample_rate_hz))
        tau = np.arange(self._n_samples) / sample_rate_hz
        self._signals = np.zeros((len(self.tags), self._n_samples), dtype=np.complex128)
        self._templates: list[TagResponse] = []
        for i, tag in enumerate(self.tags):
            if tag.position_m is None:
                raise ConfigurationError(f"transponder {tag.tag_id} has no position")
            template = tag.respond(0.0, sample_rate_hz, rng=self.rng)
            self._templates.append(template)
            cfo = template.cfo_hz(lo_hz)
            self._signals[i] = template.baseband * np.exp(2j * np.pi * cfo * tau)
        positions = np.array([tag.position_m for tag in self.tags]).reshape(-1, 3)
        amplitudes = np.array([tag.tx_amplitude for tag in self.tags])
        self._gains = channel.coefficients(positions, self.antenna_positions_m) * amplitudes

    @property
    def n_antennas(self) -> int:
        return int(self.antenna_positions_m.shape[0])

    def query(self, query_start_s: float = 0.0, rng=None) -> ReceivedCollision:
        """Issue one query; all tags respond with fresh random phases."""
        rng = self.rng if rng is None else as_rng(rng)
        m = len(self.tags)
        response_t0 = query_start_s + QUERY_DURATION_S + TURNAROUND_S

        if m:
            phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=m))
            weights = self._gains * phases[None, :]
            mixed = weights @ self._signals
        else:
            phases = np.zeros(0, dtype=np.complex128)
            weights = np.zeros((self.n_antennas, 0), dtype=np.complex128)
            mixed = np.zeros((self.n_antennas, self._n_samples), dtype=np.complex128)

        truth = truth_entries(
            self.tags, self._templates, weights, phases, response_t0, self.sample_rate_hz
        )

        waveforms = [
            Waveform(add_awgn(mixed[k], self.noise_power_w, rng), self.sample_rate_hz, response_t0)
            for k in range(self.n_antennas)
        ]
        return ReceivedCollision(antennas=waveforms, lo_hz=self.lo_hz, truth=truth)
