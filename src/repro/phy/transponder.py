"""The e-toll transponder model (§3, Fig 2).

A transponder is an active RFID with **no MAC protocol**: the instant it
detects a reader's query sinewave it waits the fixed 100 µs turnaround and
transmits its 256-bit response, regardless of what any other tag is doing.
Every tag in range therefore answers every query, and the reader receives
a collision — the situation Caraoke is built to exploit.

The tag also applies a *random initial oscillator phase* to each response
(§8: "the transponders start with a random initial phase"), which is what
makes interferers combine incoherently across repeated queries while the
CFO-and-channel-compensated target combines coherently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..constants import (
    DEFAULT_SAMPLE_RATE_HZ,
    QUERY_DURATION_S,
    RESPONSE_DURATION_S,
    TURNAROUND_S,
)
from ..errors import ConfigurationError
from ..utils import as_rng, dbm_to_watts
from .modulation import OokModulator
from .oscillator import Oscillator
from .packet import TransponderPacket
from .waveform import Waveform

__all__ = ["Transponder", "TagResponse"]


@dataclass
class TagResponse:
    """One transmitted response: the tag's baseband chips plus carrier state.

    Attributes:
        transponder: the tag that transmitted.
        bits: the 256 packet bits that were sent.
        baseband: real 0/1 OOK sample train at ``sample_rate_hz``.
        t0_s: absolute time the response starts (query end + 100 µs).
        sample_rate_hz: baseband sample rate.
        carrier_hz: the tag's carrier during this response.
        phase0_rad: the oscillator's random initial phase for this response.
    """

    transponder: "Transponder"
    bits: np.ndarray
    baseband: np.ndarray
    t0_s: float
    sample_rate_hz: float
    carrier_hz: float
    phase0_rad: float

    @property
    def duration_s(self) -> float:
        return self.baseband.size / self.sample_rate_hz

    @property
    def end_s(self) -> float:
        return self.t0_s + self.duration_s

    def cfo_hz(self, lo_hz: float) -> float:
        """Carrier frequency offset seen by a receiver with LO ``lo_hz``."""
        return self.carrier_hz - lo_hz

    def baseband_at_lo(self, lo_hz: float) -> Waveform:
        """Complex baseband as a receiver at ``lo_hz`` would see it pre-channel.

        Implements Eq 3: ``s(t) * exp(j*(2*pi*cfo*t + phase0))`` with the CFO
        phase running on the absolute time axis, so responses to different
        queries are mutually phase-consistent.
        """
        wave = Waveform(self.baseband.astype(np.complex128), self.sample_rate_hz, self.t0_s)
        return wave.mixed(self.cfo_hz(lo_hz), self.phase0_rad)


@dataclass
class Transponder:
    """An unmodified e-toll tag: packet + oscillator + mounting position.

    Attributes:
        packet: the 256-bit payload this tag transmits.
        oscillator: the tag's free-running carrier oscillator.
        position_m: optional (3,) windshield position in world frame [m].
        tx_power_dbm: transmit power (active tag, ~0 dBm EIRP).
        sensitivity_dbm: minimum query power that triggers a response.
        min_trigger_s: minimum query duration that triggers a response.
    """

    packet: TransponderPacket
    oscillator: Oscillator
    position_m: np.ndarray | None = None
    tx_power_dbm: float = 0.0
    sensitivity_dbm: float = -60.0
    min_trigger_s: float = 10e-6
    # repro: allow[determinism] — per-tag OS-entropy default keeps ad-hoc tags' phases independent; every simulation-critical path (scenario.py, conftest, bench_helpers) passes a seeded rng
    rng: np.random.Generator = field(default_factory=lambda: as_rng(None), repr=False)

    def __post_init__(self) -> None:
        if self.position_m is not None:
            self.position_m = np.asarray(self.position_m, dtype=np.float64)
            if self.position_m.shape != (3,):
                raise ConfigurationError("position must be a 3-vector")
        self.rng = as_rng(self.rng)
        self._bits = self.packet.to_bits()
        self._baseband_cache: dict[float, np.ndarray] = {}

    # -- identity -------------------------------------------------------------

    @property
    def tag_id(self) -> int:
        return self.packet.tag_id

    @property
    def carrier_hz(self) -> float:
        return self.oscillator.carrier_hz

    @property
    def tx_amplitude(self) -> float:
        """Transmit amplitude in sqrt-watt units (|amplitude|^2 = watts)."""
        return float(np.sqrt(dbm_to_watts(self.tx_power_dbm)))

    # -- air protocol ----------------------------------------------------------

    def is_triggered(self, rx_power_w: float, query_duration_s: float = QUERY_DURATION_S) -> bool:
        """Whether a received query of the given power/duration wakes the tag.

        §9 observes that two *colliding queries* still trigger tags: the sum
        of two sinewaves at (nearly) the carrier is still a valid query. This
        energy-detector model reproduces that: only total in-band power and
        duration matter.
        """
        if query_duration_s < self.min_trigger_s:
            return False
        return rx_power_w >= dbm_to_watts(self.sensitivity_dbm)

    def respond(
        self,
        query_end_s: float,
        sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ,
        rng: np.random.Generator | None = None,
    ) -> TagResponse:
        """Transmit the response triggered by a query ending at ``query_end_s``.

        The response begins exactly ``TURNAROUND_S`` (100 µs) later and lasts
        512 µs (Fig 2a). A fresh random initial phase is drawn per response.
        """
        rng = self.rng if rng is None else as_rng(rng)
        baseband = self._baseband(sample_rate_hz)
        t_at_start = query_end_s + TURNAROUND_S
        return TagResponse(
            transponder=self,
            bits=self._bits.copy(),
            baseband=baseband,
            t0_s=t_at_start,
            sample_rate_hz=sample_rate_hz,
            carrier_hz=self.oscillator.carrier_at(t_at_start),
            phase0_rad=float(rng.uniform(0.0, 2.0 * np.pi)),
        )

    def release_waveforms(self) -> None:
        """Forget the cached chip trains. Each is a pure function of the
        packet and the sample rate, so the next :meth:`respond` rebuilds
        it unchanged; a long run drops them as cars leave."""
        self._baseband_cache.clear()

    def _baseband(self, sample_rate_hz: float) -> np.ndarray:
        """The tag's fixed OOK chip train, cached per sample rate."""
        cached = self._baseband_cache.get(sample_rate_hz)
        if cached is None:
            modulator = OokModulator(sample_rate_hz=sample_rate_hz)
            cached = modulator.modulate_bits(self._bits)
            expected = int(round(RESPONSE_DURATION_S * sample_rate_hz))
            if cached.size != expected:
                raise ConfigurationError(
                    f"response is {cached.size} samples, expected {expected}; "
                    "sample rate must make 256 Manchester bits span 512 us"
                )
            self._baseband_cache[sample_rate_hz] = cached
        return cached

    # -- convenience ------------------------------------------------------------

    @classmethod
    def random(
        cls,
        carrier_hz: float,
        position_m: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
        **kwargs,
    ) -> "Transponder":
        """A tag with random packet contents at the given carrier."""
        rng = as_rng(rng)
        return cls(
            packet=TransponderPacket.random(rng),
            oscillator=Oscillator(carrier_hz),
            position_m=position_m,
            rng=rng,
            **kwargs,
        )
