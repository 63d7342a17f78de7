"""Moving tags: the one collision synthesizer, with per-query geometry.

Every capture in the library is built here, parked scenes included: a
parked car is a car at speed zero. :class:`MovingTag` pairs a
transponder with a :class:`~repro.sim.mobility.ConstantSpeedTrajectory`,
and :class:`MovingCollisionSource` synthesizes one pole's capture with
every tag at its position *at response time* — the channel (Friis
amplitude + path phase) is re-sampled per query, so coherent combining
across a decode burst sees exactly the channel drift a moving car
produces (§12.3: a 15 m/s car moves ~15 mm per 1 ms query period, about
λ/20 of path phase per capture — which is why per-capture channel
readout, Eq 5, survives mobility). :class:`ParkedSource` is the
front end for a static scene (§12.2, §12.4): its tags ride
zero-velocity trajectories.

Doppler itself is not modeled: at 915 MHz and city speeds it is ≤ ~50 Hz,
far below the 1.95 kHz FFT resolution that separates tags (§5), so it
never moves a spike between bins.

The per-tag CFO-mixed baseband templates are precomputed once in a
:class:`TagWaveformBank` shared by *all* poles of a corridor — only the
(antennas x tags) channel-gain matrix is rebuilt per query.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ...channel.collision import ReceivedCollision, TruthEntry, truth_entries
from ...constants import (
    DEFAULT_SAMPLE_RATE_HZ,
    QUERY_DURATION_S,
    READER_LO_HZ,
    READER_RANGE_M,
    RESPONSE_DURATION_S,
    TURNAROUND_S,
)
from ...channel.noise import add_awgn
from ...errors import ConfigurationError
from ...phy.transponder import TagResponse, Transponder
from ...phy.waveform import Waveform
from ...utils import as_rng
from ..mobility import ConstantSpeedTrajectory

__all__ = [
    "MovingTag",
    "positions_at",
    "in_range_mask",
    "TagWaveformBank",
    "MovingCollisionSource",
    "ParkedSource",
]


@dataclass
class MovingTag:
    """A transponder riding a trajectory through the corridor."""

    transponder: Transponder
    trajectory: ConstantSpeedTrajectory

    def position(self, t_s: float) -> np.ndarray:
        return self.trajectory.position(t_s)

    @property
    def tag_id(self) -> int:
        return self.transponder.tag_id

    def time_at_x(self, x_m: float) -> float | None:
        """When the tag crosses an along-road coordinate, if ever.

        Returns None for a stationary (along x) tag that is not already
        past the coordinate; a crossing in the past is still returned
        (callers clip to their run window).
        """
        vx = float(self.trajectory.velocity_m_s[0])
        if vx == 0.0:
            return None
        return self.trajectory.t0_s + (x_m - float(self.trajectory.start_m[0])) / vx

    def in_range(self, pole_m: np.ndarray, t_s: float, range_m: float = READER_RANGE_M) -> bool:
        """Whether the tag is within a pole's radio range at ``t_s``: the
        one-tag case of :func:`in_range_mask`."""
        return bool(in_range_mask([self], pole_m, t_s, range_m)[0])


def positions_at(tags: Sequence[MovingTag], t_s: float) -> np.ndarray:
    """Every tag's trajectory position at one instant, ``(n, 3)``.

    Row ``i`` is ``start + v * (t - t0)`` of tag ``i``'s trajectory,
    element for element what :meth:`MovingTag.position` returns.
    """
    trajectories = [tag.trajectory for tag in tags]
    starts = np.array([tr.start_m for tr in trajectories]).reshape(-1, 3)
    velocities = np.array([tr.velocity_m_s for tr in trajectories]).reshape(-1, 3)
    t0s = np.array([tr.t0_s for tr in trajectories], dtype=np.float64)
    return starts + velocities * (t_s - t0s)[:, None]


def in_range_mask(
    tags: Sequence[MovingTag],
    pole_m: np.ndarray,
    t_s: float,
    range_m: float = READER_RANGE_M,
) -> np.ndarray:
    """The range gate: which tags are within ``range_m`` of a pole at
    ``t_s``, as an ``(n,)`` bool array.

    One trigger window's responders are gated together: their positions
    at one instant, then distances to the pole as stacked ``1×3 @ 3×1``
    products (the BLAS dot ``np.linalg.norm`` takes), kept where
    ``<= range_m``. Each verdict equals a per-tag
    ``norm(position - pole) <= range_m`` bit for bit, so a tag exactly at
    ``range_m`` is in range.
    """
    delta = positions_at(tags, t_s) - np.asarray(pole_m, dtype=np.float64)
    return np.sqrt((delta[:, None, :] @ delta[:, :, None])[:, 0, 0]) <= range_m


class TagWaveformBank:
    """Per-tag CFO-mixed baseband templates, computed once per corridor.

    A tag's response waveform (OOK chips mixed to its CFO) does not
    depend on where the tag is — only the channel gain does — so the
    (m x N) signal matrix rows can be shared across every pole and every
    query of a run. Rows are keyed by the transponder's account id, so a
    bank outliving one scene's objects can never serve a freed tag's
    waveform to a newcomer.

    Building a row draws the template's phase from the bank's rng, so a
    row is built once and never rebuilt: a second draw would move every
    later output. The owner settles the bank with :meth:`evict` once no
    query or harvest can ask for a row again — a corridor does so for a
    car that has left its extent for good, once every trigger window
    that can list the car (up to a burst span past its exit) is past the
    harvest horizon.
    """

    def __init__(
        self,
        lo_hz: float = READER_LO_HZ,
        sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ,
        rng=None,
    ):
        self.lo_hz = lo_hz
        self.sample_rate_hz = sample_rate_hz
        self.rng = as_rng(rng)
        self.n_samples = int(round(RESPONSE_DURATION_S * sample_rate_hz))
        self._tau = np.arange(self.n_samples) / sample_rate_hz
        self._rows: dict[int, tuple[np.ndarray, TagResponse]] = {}

    def __len__(self) -> int:
        return len(self._rows)

    def row(self, transponder: Transponder) -> tuple[np.ndarray, TagResponse]:
        """(CFO-mixed baseband, template response) for one transponder."""
        key = transponder.tag_id
        cached = self._rows.get(key)
        if cached is None:
            template = transponder.respond(0.0, self.sample_rate_hz, rng=self.rng)
            cfo = template.cfo_hz(self.lo_hz)
            mixed = template.baseband * np.exp(2j * np.pi * cfo * self._tau)
            cached = (mixed, template)
            self._rows[key] = cached
        return cached

    def evict(self, tag_id: int) -> None:
        """Drop one account's row and template, if held, and the chip
        train its transponder cached for them."""
        row = self._rows.pop(tag_id, None)
        if row is not None:
            row[1].transponder.release_waveforms()


def _response_start_s(query_start_s: float) -> float:
    """When the responses to a query starting at ``query_start_s`` begin."""
    return query_start_s + QUERY_DURATION_S + TURNAROUND_S


class _Responders(NamedTuple):
    """One window's responders, as the superposition reads them.

    Attributes:
        transponders / templates: the responders and their bank templates.
        rows: their bank rows stacked, (m, N).
        positions: where they are heard from, (m, 3).
        gains: (antennas × m) channel gains times transmit amplitudes.
    """

    transponders: list[Transponder]
    templates: tuple[TagResponse, ...]
    rows: np.ndarray
    positions: np.ndarray
    gains: np.ndarray


class MovingCollisionSource:
    """One pole's radio front-end over a moving scene.

    Each :meth:`query` places every participating tag at its trajectory
    position at response time, rebuilds the per-antenna channel gains,
    and superposes the precomputed baseband rows.
    """

    def __init__(
        self,
        antenna_positions_m: np.ndarray,
        channel,
        bank: TagWaveformBank,
        noise_power_w: float = 0.0,
        rng=None,
    ):
        self.antenna_positions_m = np.atleast_2d(
            np.asarray(antenna_positions_m, dtype=np.float64)
        )
        if self.antenna_positions_m.shape[1] != 3:
            raise ConfigurationError("antenna positions must be (K, 3)")
        self.channel = channel
        self.bank = bank
        self.noise_power_w = noise_power_w
        self.rng = as_rng(rng)

    @property
    def n_antennas(self) -> int:
        return int(self.antenna_positions_m.shape[0])

    @cached_property
    def pole_position_m(self) -> np.ndarray:
        """Centroid of the antennas (computed once; read-only)."""
        position = self.antenna_positions_m.mean(axis=0)
        position.setflags(write=False)
        return position

    def query(
        self, tags: list[MovingTag], query_start_s: float, corrupted: bool = False
    ) -> ReceivedCollision:
        """Issue one query at ``query_start_s`` to the given tags.

        Args:
            tags: the tags that hear this query (range gating is the
                caller's job — it knows the roster).
            query_start_s: absolute query start time.
            corrupted: synthesize pure noise instead of the responses —
                the §9 harmful case, a response batch stepped on by
                another reader's query (the capture's air time is still
                spent, its content is garbage).
        """
        response_t0 = _response_start_s(query_start_s)
        if not tags or corrupted:
            return self._package(
                np.zeros((self.n_antennas, self.bank.n_samples), dtype=np.complex128),
                [],
                response_t0,
            )
        return self._synthesize(self._responders(tags, response_t0), None, response_t0)

    def overhear(
        self,
        entries: list[tuple[MovingTag, float]],
        response_t0: float,
        origin: str | None = None,
        rng=None,
    ) -> ReceivedCollision:
        """Capture a window *another* reader's query triggered.

        The responses are the same physical transmissions the origin pole
        received, so each tag's random oscillator phase is supplied (from
        the corridor's response pool) rather than drawn — what changes at
        this pole is only the channel: per-antenna delay/attenuation is
        rebuilt from *this* pole's geometry at the window's response
        time, and the noise is this receiver's own. The returned capture
        carries ``overheard_from`` provenance.

        Args:
            entries: ``(tag, phase0_rad)`` responders audible at this
                pole (range gating is the caller's job — the pool knows
                the roster).
            response_t0: absolute start of the overheard response window.
            origin: name of the reader whose query opened the window.
            rng: noise randomness for this capture. Defaults to the
                source's own stream; callers comparing harvest policies
                pass a separate stream so opportunistic synthesis never
                perturbs the main sequence of draws (the ``"ignore"``
                ablation stays bit-for-bit comparable).
        """
        if not entries:
            raise ConfigurationError("an overheard window needs responders")
        tags = [tag for tag, _ in entries]
        phases = np.exp(1j * np.asarray([phase for _, phase in entries]))
        return self._synthesize(
            self._responders(tags, response_t0),
            phases,
            response_t0,
            overheard_from=origin,
            rng=rng,
        )

    def _responders(self, tags: list[MovingTag], response_t0: float) -> _Responders:
        """A window's responders as one unit, heard at ``response_t0``.

        Their positions come from one :func:`positions_at` call and the
        whole (antennas × tags) gain matrix from one
        ``channel.coefficients`` call, equal bit for bit to a per-tag,
        per-antenna loop; their bank rows are stacked into one matrix.
        """
        transponders = [tag.transponder for tag in tags]
        rows, templates = zip(*(self.bank.row(t) for t in transponders))
        positions = positions_at(tags, response_t0)
        amplitudes = np.array([t.tx_amplitude for t in transponders])
        gains = self.channel.coefficients(positions, self.antenna_positions_m) * amplitudes
        return _Responders(transponders, templates, np.asarray(rows), positions, gains)

    def _synthesize(
        self,
        responders: _Responders,
        phases: np.ndarray | None,
        response_t0: float,
        overheard_from: str | None = None,
        rng=None,
    ) -> ReceivedCollision:
        """Superpose the responders' rows under their gains.

        Each transponder's ``position_m`` is left at its response-time
        position. ``phases`` carries each response's oscillator phase;
        None draws fresh ones (an own-query trigger) — after the bank
        rows, so the rng draw order matches the original single-pole path
        exactly.
        """
        transponders = responders.transponders
        for transponder, position in zip(transponders, responders.positions):
            transponder.position_m = position
        if phases is None:
            phases = np.exp(1j * self.rng.uniform(0.0, 2.0 * np.pi, size=len(transponders)))
        weights = responders.gains * phases[None, :]
        clean = weights @ responders.rows
        truth = truth_entries(
            transponders,
            responders.templates,
            weights,
            phases,
            response_t0,
            self.bank.sample_rate_hz,
        )
        return self._package(clean, truth, response_t0, overheard_from, rng)

    def _package(
        self,
        clean: np.ndarray,
        truth: list[TruthEntry],
        response_t0: float,
        overheard_from: str | None = None,
        rng=None,
    ) -> ReceivedCollision:
        rng = self.rng if rng is None else rng
        waveforms = [
            Waveform(
                add_awgn(clean[a], self.noise_power_w, rng),
                self.bank.sample_rate_hz,
                response_t0,
            )
            for a in range(self.n_antennas)
        ]
        return ReceivedCollision(
            antennas=waveforms,
            lo_hz=self.bank.lo_hz,
            truth=truth,
            overheard_from=overheard_from,
        )


class ParkedSource:
    """One reader's front end over a static scene (§12.2, §12.4).

    A parked car is a car at speed zero: each tag rides a zero-velocity
    trajectory from the position it had when the source was built (the
    roster is frozen; a later move of a transponder is not seen), and
    :meth:`query` is :meth:`MovingCollisionSource.query` over that
    roster, which leaves each transponder's ``position_m`` at the
    position it was heard from. Every tag's waveform row is drawn at
    construction, in roster order, from the Generator the source then
    draws each query's response phases and noise from — so a seed fixes
    the templates, then per query the phases, then the noise.

    The bank keys rows by account id, so a roster that repeats one is
    rejected: the two tags would share one waveform. What the frozen
    roster fixes (bank rows, positions, gains) is stacked once, at
    construction, and every query superposes it with fresh phases and
    noise.
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
        if len({tag.tag_id for tag in self.tags}) < len(self.tags):
            raise ConfigurationError("a parked roster repeats an account id")
        rng = as_rng(rng)
        bank = TagWaveformBank(lo_hz, sample_rate_hz, rng)
        self.source = MovingCollisionSource(
            antenna_positions_m, channel, bank, noise_power_w, rng
        )
        self._roster: list[MovingTag] = []
        for tag in self.tags:
            if tag.position_m is None:
                raise ConfigurationError(f"transponder {tag.tag_id} has no position")
            bank.row(tag)
            parked = ConstantSpeedTrajectory(np.array(tag.position_m), np.zeros(3))
            self._roster.append(MovingTag(tag, parked))
        # A parked tag stands at its trajectory's start (zero velocity
        # from t = 0) at every query, so its row, position and gains are
        # the same each time; they are shared across queries, read-only.
        self._fixed = self.source._responders(self._roster, 0.0) if self._roster else None
        if self._fixed is not None:
            for values in (self._fixed.rows, self._fixed.positions, self._fixed.gains):
                values.flags.writeable = False

    def query(self, query_start_s: float = 0.0) -> ReceivedCollision:
        """Issue one query; all tags respond with fresh random phases."""
        if self._fixed is None:
            return self.source.query(self._roster, query_start_s)
        return self.source._synthesize(self._fixed, None, _response_start_s(query_start_s))
