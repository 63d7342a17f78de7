"""Unit tests for repro.channel.collision and the static-scene front end.

Two references live here. ``synthesize_collision`` is the physics
oracle: it builds a capture the long way, per antenna and per response
on the absolute time axis, and the one synthesizer
(:class:`~repro.sim.city.moving.MovingCollisionSource`, parked or moving)
must agree with it. :class:`StaticReference` keeps the arithmetic of the
retired static-scene simulator, which :class:`ParkedSource` must
reproduce bit for bit, Generator state included.
"""

import dataclasses

import numpy as np
import pytest

from repro.channel.antenna import TriangleArray
from repro.channel.collision import ReceivedCollision, TruthEntry, truth_entries
from repro.channel.multipath import GroundBounce, MultipathChannel, PointScatterer
from repro.channel.noise import add_awgn, thermal_noise_power_w
from repro.channel.propagation import LosChannel
from repro.constants import (
    DEFAULT_SAMPLE_RATE_HZ,
    QUERY_DURATION_S,
    READER_LO_HZ,
    RESPONSE_DURATION_S,
    TURNAROUND_S,
)
from repro.errors import ConfigurationError
from repro.phy.waveform import Waveform
from repro.sim.city.moving import (
    MovingCollisionSource,
    MovingTag,
    ParkedSource,
    TagWaveformBank,
)
from repro.sim.mobility import ConstantSpeedTrajectory
from repro.sim.scenario import parking_scene
from repro.utils import as_rng
from tests.conftest import make_tag
from tests.test_propagation import reference_coefficient, same_bits

NOISE_W = thermal_noise_power_w(DEFAULT_SAMPLE_RATE_HZ)


def synthesize_collision(
    responses,
    antenna_positions_m,
    channel,
    lo_hz=READER_LO_HZ,
    noise_power_w=0.0,
    rng=None,
    capture_start_s=None,
    capture_duration_s=None,
) -> ReceivedCollision:
    """The physics oracle: per-antenna received waveforms, built the long way.

    Each response is mixed to its CFO on the absolute time axis with its
    initial phase applied once (Eq 3, :meth:`TagResponse.baseband_at_lo`),
    scaled by the per-antenna channel ``h`` and the tag's amplitude, and
    summed into the capture window; the truth channel is
    ``h * amplitude * exp(j phase0)``, as :class:`TruthEntry` documents.
    The capture window defaults to the earliest response start and the
    response length.
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

    waveforms = []
    for k, rx_pos in enumerate(antenna_positions_m):
        capture = Waveform.silence(capture_duration_s, sample_rate, capture_start_s)
        for i, response in enumerate(responses):
            h = channel.coefficient(response.transponder.position_m, rx_pos)
            gain = h * response.transponder.tx_amplitude
            truth[i].channels[k] = gain * np.exp(1j * response.phase0_rad)
            capture = capture + pre_channel[i].scaled(gain)
        capture = _fit_window(capture, capture_start_s, capture_duration_s)
        capture = Waveform(
            add_awgn(capture.samples, noise_power_w, rng), sample_rate, capture.t0_s
        )
        waveforms.append(capture)

    return ReceivedCollision(antennas=waveforms, lo_hz=lo_hz, truth=truth)


def _fit_window(wave, start_s, duration_s):
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


def oracle_of(collision, antenna_positions_m, channel):
    """The oracle's capture of a synthesized collision's own responses.

    The synthesizer mixes each row to its CFO on response-relative time,
    so its truth phase differs from the absolute-time phase by the one
    constant ``2 pi cfo t0`` per tag; it is taken out here.
    """
    responses = [
        dataclasses.replace(
            entry.response,
            phase0_rad=entry.response.phase0_rad
            - 2.0 * np.pi * entry.cfo_hz(collision.lo_hz) * collision.t0_s,
        )
        for entry in collision.truth
    ]
    return synthesize_collision(responses, antenna_positions_m, channel, collision.lo_hz)


class StaticReference:
    """The static simulator's arithmetic: templates drawn in roster order
    at construction, then per query fresh phases, ``gains @ rows``, then
    the noise."""

    def __init__(
        self,
        tags,
        antenna_positions_m,
        channel,
        lo_hz=READER_LO_HZ,
        sample_rate_hz=DEFAULT_SAMPLE_RATE_HZ,
        noise_power_w=0.0,
        rng=None,
    ):
        self.tags = list(tags)
        self.antenna_positions_m = np.atleast_2d(
            np.asarray(antenna_positions_m, dtype=np.float64)
        )
        self.lo_hz = lo_hz
        self.sample_rate_hz = sample_rate_hz
        self.noise_power_w = noise_power_w
        self.rng = as_rng(rng)
        self.n_samples = int(round(RESPONSE_DURATION_S * sample_rate_hz))
        tau = np.arange(self.n_samples) / sample_rate_hz
        self.signals = np.zeros((len(self.tags), self.n_samples), dtype=np.complex128)
        self.templates = []
        for i, tag in enumerate(self.tags):
            template = tag.respond(0.0, sample_rate_hz, rng=self.rng)
            self.templates.append(template)
            cfo = template.cfo_hz(lo_hz)
            self.signals[i] = template.baseband * np.exp(2j * np.pi * cfo * tau)
        positions = np.array([tag.position_m for tag in self.tags]).reshape(-1, 3)
        amplitudes = np.array([tag.tx_amplitude for tag in self.tags])
        self.gains = channel.coefficients(positions, self.antenna_positions_m) * amplitudes

    def query(self, query_start_s=0.0):
        m = len(self.tags)
        n_antennas = self.antenna_positions_m.shape[0]
        response_t0 = query_start_s + QUERY_DURATION_S + TURNAROUND_S
        if m:
            phases = np.exp(1j * self.rng.uniform(0.0, 2.0 * np.pi, size=m))
            weights = self.gains * phases[None, :]
            mixed = weights @ self.signals
        else:
            phases = np.zeros(0, dtype=np.complex128)
            weights = np.zeros((n_antennas, 0), dtype=np.complex128)
            mixed = np.zeros((n_antennas, self.n_samples), dtype=np.complex128)
        truth = truth_entries(
            self.tags, self.templates, weights, phases, response_t0, self.sample_rate_hz
        )
        waveforms = [
            Waveform(
                add_awgn(mixed[k], self.noise_power_w, self.rng),
                self.sample_rate_hz,
                response_t0,
            )
            for k in range(n_antennas)
        ]
        return ReceivedCollision(antennas=waveforms, lo_hz=self.lo_hz, truth=truth)


def assert_same_capture(got, want):
    """Two captures equal bit for bit: samples, timing and truth."""
    assert got.lo_hz == want.lo_hz
    assert got.n_antennas == want.n_antennas
    for a, b in zip(got.antennas, want.antennas):
        assert a.t0_s == b.t0_s
        assert a.sample_rate_hz == b.sample_rate_hz
        assert a.samples.tobytes() == b.samples.tobytes()
    assert len(got.truth) == len(want.truth)
    for a, b in zip(got.truth, want.truth):
        assert a.response.transponder is b.response.transponder
        assert a.response.phase0_rad == b.response.phase0_rad
        assert a.response.t0_s == b.response.t0_s
        assert a.response.carrier_hz == b.response.carrier_hz
        assert a.response.baseband.tobytes() == b.response.baseband.tobytes()
        assert a.channels.tobytes() == b.channels.tobytes()


def street_tags(m, seed):
    """``m`` tags with distinct account ids spread along a street."""
    rng = np.random.default_rng(seed)
    return [
        make_tag(
            float(rng.uniform(-500e3, 500e3)),
            position_m=(rng.uniform(-30.0, 30.0), rng.uniform(-9.0, -1.0), 1.0),
            seed=1000 * seed + i,
        )
        for i in range(m)
    ]


@pytest.fixture
def array():
    return TriangleArray.street_pole(np.array([0.0, 0.0, 3.8]))


class TestSynthesizeCollision:
    def test_antenna_count(self, array):
        tag = make_tag(300e3)
        collision = synthesize_collision(
            [tag.respond(0.0)], array.positions_m, LosChannel()
        )
        assert collision.n_antennas == 3

    def test_capture_window(self, array):
        tag = make_tag(300e3)
        response = tag.respond(0.0)
        collision = synthesize_collision([response], array.positions_m, LosChannel())
        assert collision.t0_s == pytest.approx(response.t0_s)
        assert collision.antenna(0).duration_s == pytest.approx(RESPONSE_DURATION_S)

    def test_truth_channel_reproduces_signal(self, array):
        """antenna capture == truth channel * the CFO-mixed chips, on the
        absolute time axis: the initial phase is applied once."""
        tag = make_tag(250e3, seed=3)
        response = tag.respond(0.0)
        collision = synthesize_collision(
            [response], array.positions_m, LosChannel(), noise_power_w=0.0
        )
        chips = Waveform(
            response.baseband.astype(np.complex128), response.sample_rate_hz, response.t0_s
        )
        mixed = chips.mixed(response.cfo_hz(READER_LO_HZ)).samples
        for k in range(collision.n_antennas):
            expected = mixed * collision.truth[0].channels[k]
            assert np.allclose(collision.antenna(k).samples, expected, rtol=1e-9, atol=0.0)

    def test_superposition_is_linear(self, array):
        tag_a = make_tag(200e3, position_m=(5.0, -4.0, 1.0), seed=1)
        tag_b = make_tag(700e3, position_m=(-8.0, -6.0, 1.0), seed=2)
        ra, rb = tag_a.respond(0.0), tag_b.respond(0.0)
        together = synthesize_collision([ra, rb], array.positions_m, LosChannel())
        alone_a = synthesize_collision([ra], array.positions_m, LosChannel())
        alone_b = synthesize_collision([rb], array.positions_m, LosChannel())
        assert np.allclose(
            together.antenna(0).samples,
            alone_a.antenna(0).samples + alone_b.antenna(0).samples,
        )

    def test_empty_responses_is_noise_only(self, array):
        collision = synthesize_collision(
            [], array.positions_m, LosChannel(), noise_power_w=1e-12, rng=1
        )
        assert collision.antenna(0).power() == pytest.approx(1e-12, rel=0.3)

    def test_true_cfos_sorted(self, array):
        tags = [make_tag(c, seed=i) for i, c in enumerate((900e3, 100e3, 500e3))]
        collision = synthesize_collision(
            [t.respond(0.0) for t in tags], array.positions_m, LosChannel()
        )
        assert np.array_equal(collision.true_cfos_hz(), [100e3, 500e3, 900e3])

    def test_positionless_tag_rejected(self, array):
        tag = make_tag(100e3)
        tag.position_m = None
        with pytest.raises(ConfigurationError):
            synthesize_collision([tag.respond(0.0)], array.positions_m, LosChannel())


class TestStaticCollisionSimulator:
    """The static scene's simulator, ``Scene.simulator``: a
    :class:`ParkedSource` over the scene's tags."""

    def test_response_timing(self, array):
        sim = ParkedSource([make_tag(300e3)], array.positions_m, LosChannel())
        collision = sim.query(query_start_s=1.0)
        assert collision.t0_s == pytest.approx(1.0 + QUERY_DURATION_S + TURNAROUND_S)

    def test_phases_rerandomize_per_query(self, array):
        sim = ParkedSource([make_tag(300e3)], array.positions_m, LosChannel(), rng=4)
        a = sim.query(0.0)
        b = sim.query(1e-3)
        assert a.truth[0].response.phase0_rad != b.truth[0].response.phase0_rad

    def test_empty_scene(self, array):
        sim = ParkedSource([], array.positions_m, LosChannel(), noise_power_w=0.0)
        collision = sim.query(0.0)
        assert collision.antenna(0).power() == 0.0
        assert collision.truth == []

    def test_truth_channels_consistent_with_signal(self, array):
        tag = make_tag(640e3, seed=5)
        sim = ParkedSource([tag], array.positions_m, LosChannel(), rng=1)
        collision = sim.query(0.0)
        # Demodulate at the CFO: mean = h * mean(s) = h / 2 (Eq 5).
        wave = collision.antenna(1)
        t = np.arange(wave.n_samples) / wave.sample_rate_hz
        demod = wave.samples * np.exp(-2j * np.pi * 640e3 * t)
        assert demod.mean() == pytest.approx(collision.truth[0].channels[1] / 2.0, rel=1e-6)

    def test_gains_and_truth_equal_the_per_tag_loop(self, array):
        """One gain call and one truth build give what the per-tag,
        per-antenna loop gave, bit for bit. The query's phases are
        predicted by replaying the seed: m template draws, then m phase
        draws."""
        rng = np.random.default_rng(17)
        tags = [
            make_tag(
                float(rng.uniform(-400e3, 400e3)),
                position_m=(rng.uniform(-30.0, 30.0), rng.uniform(-8.0, 0.0), 1.0),
                seed=i,
            )
            for i in range(12)
        ]
        channel = LosChannel()
        sim = ParkedSource(tags, array.positions_m, channel, rng=3)
        gains = np.array(
            [
                [reference_coefficient(channel, tag.position_m, rx) * tag.tx_amplitude for tag in tags]
                for rx in array.positions_m
            ]
        )
        collision = sim.query(0.0)
        replay = np.random.default_rng(3)
        for _ in tags:
            replay.uniform(0.0, 2.0 * np.pi)
        phases = np.exp(1j * replay.uniform(0.0, 2.0 * np.pi, size=12))
        weights = gains * phases[None, :]
        # The (K, m) gains the capture applied, seen through its weights.
        applied = np.array([entry.channels for entry in collision.truth]).T
        assert same_bits(applied, weights)
        assert len(collision.truth) == len(tags)
        for i, (tag, entry) in enumerate(zip(tags, collision.truth)):
            assert entry.response.transponder is tag
            assert entry.response.phase0_rad == float(np.angle(phases[i]))
            assert same_bits(entry.channels, weights[:, i])

    def test_rejects_positionless_tags(self, array):
        tag = make_tag(100e3)
        tag.position_m = None
        with pytest.raises(ConfigurationError):
            ParkedSource([tag], array.positions_m, LosChannel())

    def test_rejects_a_repeated_account_id(self, array):
        """The bank keys waveform rows by account id: two tags with one id
        would silently share a waveform."""
        tag = make_tag(300e3, seed=4)
        twin = make_tag(700e3, position_m=(-6.0, -5.0, 1.0), seed=4)
        assert twin.tag_id == tag.tag_id
        with pytest.raises(ConfigurationError):
            ParkedSource([tag, twin], array.positions_m, LosChannel())


class TestParkedSourceBitForBit:
    """:class:`ParkedSource` reproduces the static arithmetic exactly:
    every sample, truth entry and Generator state, after construction
    and after every query."""

    STARTS = (0.0, 1e-3, 0.25, 7.5)

    def run_both(self, tags, antennas, channel, seed=7, noise_power_w=NOISE_W):
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = StaticReference(tags, antennas, channel, noise_power_w=noise_power_w, rng=want_rng)
        got = ParkedSource(tags, antennas, channel, noise_power_w=noise_power_w, rng=got_rng)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        return want, got, want_rng, got_rng

    def query_both(self, want, got, want_rng, got_rng, starts=STARTS):
        for start in starts:
            assert_same_capture(got.query(start), want.query(start))
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("m", [0, 1, 12, 50])
    def test_every_roster_size_with_noise(self, array, m):
        self.query_both(*self.run_both(street_tags(m, seed=m + 1), array.positions_m, LosChannel()))

    def test_noise_power_changed_after_construction(self, array):
        want, got, want_rng, got_rng = self.run_both(
            street_tags(3, seed=21), array.positions_m, LosChannel()
        )
        self.query_both(want, got, want_rng, got_rng, starts=(0.0,))
        want.noise_power_w = got.source.noise_power_w = 30_000 * NOISE_W
        self.query_both(want, got, want_rng, got_rng)

    def test_two_front_ends_share_one_generator(self):
        """Two poles' front ends on one Generator: built and queried in
        turn, as the two-reader fixes of a drive-by do, then both built
        first and queried alternately."""
        arrays = [
            TriangleArray.street_pole(np.array([0.0, 4.0, 3.8]), toward_road=-1.0),
            TriangleArray.street_pole(np.array([5.0, -4.0, 3.8]), toward_road=1.0),
        ]
        tags = street_tags(2, seed=31)
        want_rng, got_rng = np.random.default_rng(5), np.random.default_rng(5)

        def build(pole):
            want = StaticReference(
                tags, pole.positions_m, LosChannel(), noise_power_w=NOISE_W, rng=want_rng
            )
            got = ParkedSource(
                tags, pole.positions_m, LosChannel(), noise_power_w=NOISE_W, rng=got_rng
            )
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
            return want, got

        for t in (0.5, 2.25):
            for pole in arrays:
                self.query_both(*build(pole), want_rng, got_rng, starts=(t,))
        both = [build(pole) for pole in arrays]
        for t in self.STARTS:
            for want, got in both:
                self.query_both(want, got, want_rng, got_rng, starts=(t,))

    def test_multipath_channel(self, array):
        channel = MultipathChannel(
            paths=(GroundBounce(), PointScatterer(np.array([5.0, 5.0, 1.0])))
        )
        self.query_both(*self.run_both(street_tags(6, seed=41), array.positions_m, channel))

    def test_scene_simulator_is_the_parked_front_end(self):
        scene, _, _ = parking_scene([1, 4], n_background_cars=3, rng=12)
        want_rng, got_rng = np.random.default_rng(9), np.random.default_rng(9)
        want = StaticReference(
            scene.tags,
            scene.arrays[0].positions_m,
            scene.channel,
            lo_hz=scene.lo_hz,
            sample_rate_hz=scene.sample_rate_hz,
            noise_power_w=scene.noise_power_w,
            rng=want_rng,
        )
        got = scene.simulator(0, rng=got_rng)
        assert isinstance(got, ParkedSource)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        self.query_both(want, got, want_rng, got_rng)

    def test_roster_is_frozen_at_construction(self, array):
        """A transponder moved in place after the front end was built is
        heard where it stood, as the precomputed gains heard it."""
        tags = street_tags(2, seed=51)
        want, got, want_rng, got_rng = self.run_both(tags, array.positions_m, LosChannel())
        tags[0].position_m[0] += 40.0
        self.query_both(want, got, want_rng, got_rng, starts=(0.0,))


class TestOneSynthesizerMatchesTheOracle:
    """With the noise off, every capture the one synthesizer builds equals
    the oracle's over the capture's own truth responses, parked tags and
    moving ones alike."""

    def scenes(self, n=20):
        rng = np.random.default_rng(2015)
        for _ in range(n):
            tags = street_tags(int(rng.integers(1, 13)), seed=int(rng.integers(1, 10_000)))
            yield tags, float(rng.uniform(0.0, 10e-3)), rng

    @staticmethod
    def assert_close(got, want):
        assert got.t0_s == want.t0_s
        for a, b in zip(got.antennas, want.antennas):
            scale = np.max(np.abs(b.samples))
            assert np.max(np.abs(a.samples - b.samples)) <= 1e-9 * scale

    def test_parked_captures_equal_the_oracle(self, array):
        channel = LosChannel()
        for tags, start, rng in self.scenes():
            source = ParkedSource(tags, array.positions_m, channel, rng=int(rng.integers(1 << 30)))
            collision = source.query(start)
            self.assert_close(collision, oracle_of(collision, array.positions_m, channel))

    def test_moving_captures_equal_the_oracle(self, array):
        channel = LosChannel()
        for tags, start, rng in self.scenes():
            moving = [
                MovingTag(
                    tag,
                    ConstantSpeedTrajectory(
                        tag.position_m.copy(),
                        np.array([rng.uniform(-20.0, 20.0), 0.0, 0.0]),
                        t0_s=float(rng.uniform(0.0, 5e-3)),
                    ),
                )
                for tag in tags
            ]
            bank = TagWaveformBank(rng=int(rng.integers(1 << 30)))
            source = MovingCollisionSource(array.positions_m, channel, bank, rng=bank.rng)
            collision = source.query(moving, start)
            # The oracle reads each transponder where the query left it:
            # at its position at response time.
            response_t0 = collision.t0_s
            for tag in moving:
                assert np.array_equal(tag.transponder.position_m, tag.position(response_t0))
            self.assert_close(collision, oracle_of(collision, array.positions_m, channel))


class TestReceivedCollisionValidation:
    def waves(self, n=2, n_samples=64, rate=4e6):
        return [
            Waveform(np.zeros(n_samples, dtype=np.complex128), rate)
            for _ in range(n)
        ]

    def test_empty_antenna_list_rejected(self):
        """An empty collision used to surface as a bare IndexError from
        sample_rate_hz/t0_s; construction must reject it instead."""
        with pytest.raises(ConfigurationError):
            ReceivedCollision(antennas=[], lo_hz=READER_LO_HZ)

    def test_mismatched_lengths_rejected(self):
        waves = self.waves(1) + [Waveform(np.zeros(32, dtype=np.complex128), 4e6)]
        with pytest.raises(ConfigurationError):
            ReceivedCollision(antennas=waves, lo_hz=READER_LO_HZ)

    def test_mismatched_rates_rejected(self):
        waves = self.waves(1) + [Waveform(np.zeros(64, dtype=np.complex128), 2e6)]
        with pytest.raises(ConfigurationError):
            ReceivedCollision(antennas=waves, lo_hz=READER_LO_HZ)

    def test_valid_collision_accepted(self):
        collision = ReceivedCollision(antennas=self.waves(3), lo_hz=READER_LO_HZ)
        assert collision.n_antennas == 3
        assert collision.sample_rate_hz == pytest.approx(4e6)
