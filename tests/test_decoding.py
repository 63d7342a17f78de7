"""Unit tests for repro.core.decoding (§8)."""

import numpy as np
import pytest

from repro.channel.antenna import TriangleArray
from repro.channel.noise import thermal_noise_power_w
from repro.channel.propagation import LosChannel
from repro.core.cfo import extract_cfo_peaks
from repro.core.decoding import CoherentDecoder, DecodeSession, MultiTargetCombiner
from repro.errors import DecodingError
from repro.phy.waveform import Waveform
from repro.sim.city.moving import ParkedSource
from tests.conftest import make_tag

FS = 4e6
NOISE_W = thermal_noise_power_w(FS)


def build_sim(cfos, seed=0, positions=None):
    rng = np.random.default_rng(seed)
    tags = []
    for i, cfo in enumerate(cfos):
        pos = positions[i] if positions else (rng.uniform(-8, 8), rng.uniform(-11, -7), 1.0)
        tags.append(make_tag(cfo, position_m=pos, seed=50 + i))
    array = TriangleArray.street_pole(np.array([0.0, 0.0, 3.8]))
    sim = ParkedSource(
        tags, array.positions_m, LosChannel(), noise_power_w=NOISE_W, rng=seed
    )
    return sim, tags


class TestCoherentDecoder:
    def test_single_tag_decodes_in_one_query(self):
        sim, tags = build_sim([400e3], seed=1)
        decoder = CoherentDecoder(FS)
        captures = [sim.query(0.0).antenna(0)]
        result = decoder.decode(captures, 400e3)
        assert result.success
        assert result.n_queries == 1
        assert result.packet == tags[0].packet

    def test_two_tags_need_few_queries(self):
        sim, tags = build_sim([300e3, 800e3], seed=2)
        decoder = CoherentDecoder(FS)
        captures = [sim.query(i * 1e-3).antenna(0) for i in range(16)]
        result = decoder.decode(captures, 300e3)
        assert result.success
        assert result.n_queries <= 16
        assert result.packet == tags[0].packet

    def test_decodes_correct_tag_of_five(self):
        cfos = [150e3, 400e3, 650e3, 900e3, 1150e3]
        sim, tags = build_sim(cfos, seed=3)
        decoder = CoherentDecoder(FS)
        captures = [sim.query(i * 1e-3).antenna(0) for i in range(48)]
        result = decoder.decode(captures, 650e3)
        assert result.success
        assert result.packet == tags[2].packet

    def test_identification_time_metric(self):
        sim, _ = build_sim([500e3], seed=4)
        decoder = CoherentDecoder(FS)
        result = decoder.decode([sim.query(0.0).antenna(0)], 500e3)
        assert result.identification_time_ms == pytest.approx(1.0)

    def test_budget_exhaustion_returns_failure(self):
        """A target CFO pointing at empty spectrum can never decode."""
        sim, _ = build_sim([300e3], seed=5)
        decoder = CoherentDecoder(FS)
        captures = [sim.query(i * 1e-3).antenna(0) for i in range(4)]
        result = decoder.decode(captures, 1_000_000.0)
        assert not result.success
        assert result.n_queries == 4

    def test_no_captures_rejected(self):
        with pytest.raises(DecodingError):
            CoherentDecoder(FS).decode([], 100e3)

    def test_more_queries_help_more_tags(self):
        """Fig 16's mechanism: queries needed grow with collision size."""
        decoder = CoherentDecoder(FS)
        needed = {}
        for m in (1, 4):
            rng = np.random.default_rng(40 + m)
            cfos = list(rng.uniform(50e3, 1.15e6, size=m))
            sim, tags = build_sim(cfos, seed=40 + m)
            captures = [sim.query(i * 1e-3).antenna(0) for i in range(64)]
            result = decoder.decode(captures, cfos[0])
            assert result.success
            needed[m] = result.n_queries
        assert needed[4] >= needed[1]


def count_demod_attempts(decoder):
    """Instrument a decoder to count its ``_try_demodulate`` calls."""
    counter = {"calls": 0}
    original = decoder._try_demodulate

    def counting(accumulator=None, bits=None):
        counter["calls"] += 1
        return original(accumulator, bits=bits)

    decoder._try_demodulate = counting
    return counter


class TestMultiTargetCombiner:
    def test_zero_channel_estimate_rejected(self):
        decoder = CoherentDecoder(FS)
        combiner = MultiTargetCombiner(decoder, 2048)
        keys = combiner.add_targets([300e3])
        silent = Waveform(np.zeros(2048, dtype=np.complex128), FS)
        with pytest.raises(DecodingError):
            combiner.advance(keys, [silent], 1)

    def test_capture_length_mismatch_rejected(self):
        decoder = CoherentDecoder(FS)
        combiner = MultiTargetCombiner(decoder, 2048)
        keys = combiner.add_targets([300e3])
        short = Waveform(np.ones(1024, dtype=np.complex128), FS)
        with pytest.raises(DecodingError):
            combiner.advance(keys, [short], 1)

    def test_demod_attempted_once_per_capture_count(self):
        """Regression for the quadratic seed behavior: geometric budget
        doubling must not re-attempt demodulation at counts already tried,
        so a session pays exactly one attempt per (target, capture count)."""
        sim, _ = build_sim([300e3, 800e3], seed=22)
        decoder = CoherentDecoder(FS)
        counter = count_demod_attempts(decoder)
        session = DecodeSession(query_fn=lambda t: sim.query(t), decoder=decoder)
        # An empty-spectrum target can never decode: every capture count up
        # to the budget is attempted exactly once (the seed path would pay
        # 1 + 2 + 4 + 8 = 15 attempts for the same outcome).
        result = session.decode_target(1_000_000.0, max_queries=8)
        assert not result.success
        assert counter["calls"] == 8
        # Re-asking with the same budget repeats nothing.
        session.decode_target(1_000_000.0, max_queries=8)
        assert counter["calls"] == 8

    def test_budget_doubling_resumes_incrementally(self):
        sim, _ = build_sim([300e3, 800e3], seed=23)
        decoder = CoherentDecoder(FS)
        counter = count_demod_attempts(decoder)
        session = DecodeSession(query_fn=lambda t: sim.query(t), decoder=decoder)
        first = session.decode_target(1_000_000.0, max_queries=4)
        assert not first.success and counter["calls"] == 4
        # A larger budget resumes at capture 5, not from scratch.
        second = session.decode_target(1_000_000.0, max_queries=16)
        assert not second.success
        assert counter["calls"] == 16

    def test_zero_budget_still_accounts_the_mandatory_query(self):
        """A decode attempt always puts one query on the air; the result
        must say so even for a degenerate budget."""
        sim, _ = build_sim([300e3], seed=27)
        session = DecodeSession(query_fn=lambda t: sim.query(t), decoder=CoherentDecoder(FS))
        result = session.decode_target(1_000_000.0, max_queries=0)
        assert not result.success
        assert result.n_queries == 1
        assert session.total_air_time_s == pytest.approx(1e-3)

    def test_seed_capture_reuses_air_time(self):
        sim, _ = build_sim([300e3], seed=28)
        session = DecodeSession(query_fn=lambda t: sim.query(t), decoder=CoherentDecoder(FS))
        donated = sim.query(0.0)
        session.seed_capture(donated)
        result = session.decode_target(300e3, max_queries=8)
        assert result.success
        assert session.captures[0] is donated

    def test_seed_capture_accepts_bare_waveform(self):
        """Legacy callers may donate one antenna's waveform; the session
        treats it as a one-antenna collision."""
        sim, _ = build_sim([300e3], seed=28)
        session = DecodeSession(
            query_fn=lambda t: sim.query(t).antenna(0),
            decoder=CoherentDecoder(FS),
        )
        donated = sim.query(0.0).antenna(0)
        session.seed_capture(donated)
        result = session.decode_target(300e3, max_queries=8)
        assert result.success
        assert session.captures[0] is donated

    def test_successful_target_attempts_every_count_once(self):
        sim, tags = build_sim([300e3, 800e3], seed=24)
        decoder = CoherentDecoder(FS)
        counter = count_demod_attempts(decoder)
        session = DecodeSession(query_fn=lambda t: sim.query(t), decoder=decoder)
        result = session.decode_target(300e3, max_queries=32)
        assert result.success
        assert counter["calls"] == result.n_queries


class TestDecodeSession:
    def test_decode_all_from_shared_stream(self):
        cfos = [200e3, 500e3, 800e3]
        sim, tags = build_sim(cfos, seed=6)
        decoder = CoherentDecoder(FS)
        session = DecodeSession(query_fn=lambda t: sim.query(t), decoder=decoder)
        results = session.decode_all(cfos, max_queries=64)
        assert all(r.success for r in results.values())
        decoded = {r.packet.tag_id for r in results.values()}
        assert decoded == {t.packet.tag_id for t in tags}

    def test_captures_shared_between_targets(self):
        """Decoding the second tag must not issue a fresh capture set
        (§12.4: decoding all tags costs the same air time as one)."""
        cfos = [250e3, 750e3]
        sim, _ = build_sim(cfos, seed=7)
        decoder = CoherentDecoder(FS)
        session = DecodeSession(query_fn=lambda t: sim.query(t), decoder=decoder)
        session.decode_target(cfos[0], max_queries=32)
        captures_after_first = len(session.captures)
        session.decode_target(cfos[1], max_queries=32)
        # Second target may extend, but must start from the shared pool.
        assert len(session.captures) >= captures_after_first
        assert session.total_air_time_s == pytest.approx(len(session.captures) * 1e-3)

    def test_decode_all_matches_reference_decoder(self):
        """The session's batched pipeline (ablation policy) and the
        reference single-target decoder must agree on every packet and
        query count (§12.4)."""
        cfos = [200e3, 500e3, 800e3]
        sim, _ = build_sim(cfos, seed=25)
        decoder = CoherentDecoder(FS)
        session = DecodeSession(
            query_fn=lambda t: sim.query(t), decoder=decoder, combining="single"
        )
        results = session.decode_all(cfos, max_queries=64)
        waves = [c.antenna(0) for c in session.captures]
        for cfo in cfos:
            reference = decoder.decode(waves, cfo)
            assert results[cfo].packet == reference.packet
            assert results[cfo].n_queries == reference.n_queries

    def test_decode_all_empty_is_a_no_op(self):
        queries = []

        def query_fn(t):
            queries.append(t)
            raise AssertionError("no query should be issued")

        session = DecodeSession(query_fn=query_fn, decoder=CoherentDecoder(FS))
        assert session.decode_all([]) == {}
        assert queries == []
        assert session.total_air_time_s == 0.0

    def test_duplicate_targets_do_not_corrupt_others(self):
        """Regression: duplicated CFOs in one batch must not double-combine
        captures into other targets' accumulators."""
        cfos = [250e3, 750e3]
        sim, _ = build_sim(cfos, seed=29)
        decoder = CoherentDecoder(FS)
        session = DecodeSession(
            query_fn=lambda t: sim.query(t), decoder=decoder, combining="single"
        )
        results = session.decode_all([cfos[0], cfos[0], cfos[1]], max_queries=32)
        assert all(r.success for r in results.values())
        # Every result must still match the reference decoder exactly.
        waves = [c.antenna(0) for c in session.captures]
        for cfo in cfos:
            reference = decoder.decode(waves, cfo)
            assert results[cfo].packet == reference.packet
            assert results[cfo].n_queries == reference.n_queries

    def test_session_result_cached_after_success(self):
        cfos = [250e3, 750e3]
        sim, _ = build_sim(cfos, seed=26)
        session = DecodeSession(query_fn=lambda t: sim.query(t), decoder=CoherentDecoder(FS))
        first = session.decode_target(cfos[0], max_queries=32)
        assert first.success
        again = session.decode_target(cfos[0], max_queries=32)
        assert again.packet == first.packet
        assert again.n_queries == first.n_queries

    def test_uses_detected_peaks(self):
        cfos = [350e3, 950e3]
        sim, tags = build_sim(cfos, seed=8)
        peaks = extract_cfo_peaks(sim.query(0.0).antenna(0), min_snr_db=15)
        assert len(peaks) == 2
        decoder = CoherentDecoder(FS)
        session = DecodeSession(query_fn=lambda t: sim.query(t), decoder=decoder)
        results = session.decode_all([p.cfo_hz for p in peaks], max_queries=64)
        assert {r.packet.tag_id for r in results.values() if r.success} == {
            t.packet.tag_id for t in tags
        }


class TestMultiAntennaChannels:
    """Satellite coverage: per-antenna Eq 5 readout vs synthesis truth,
    and the MRC-vs-single SNR gain the whole refactor exists for."""

    def lone_tag_sim(self, noise_factor=1.0, seed=9):
        from repro.channel.antenna import TriangleArray
        from repro.channel.propagation import LosChannel

        tag = make_tag(500e3, position_m=(2.0, -9.0, 1.0), seed=70)
        array = TriangleArray.street_pole(np.array([0.0, 0.0, 3.8]))
        return ParkedSource(
            [tag],
            array.positions_m,
            LosChannel(),
            noise_power_w=NOISE_W * noise_factor,
            rng=seed,
        )

    def test_eq5_readout_matches_truth_per_antenna(self):
        """The Eq 5 channel readout at the true CFO must reproduce the
        synthesized ground-truth channel of every antenna."""
        from repro.core.cfo import estimate_channel

        collision = self.lone_tag_sim().query(0.0)
        entry = collision.truth[0]
        cfo = entry.cfo_hz(collision.lo_hz)
        for a, wave in enumerate(collision.antennas):
            estimate = estimate_channel(wave, cfo)
            truth = entry.channels[a]
            assert abs(np.angle(estimate / truth)) < 0.02
            assert abs(estimate) == pytest.approx(abs(truth), rel=0.05)

    def test_combiner_channel_estimates_match_truth_per_antenna(self):
        """The MRC combiner's per-antenna readout of its latest capture is
        the same Eq 5 estimate — phases match the capture's truth."""
        sim = self.lone_tag_sim()
        collision = sim.query(0.0)
        decoder = CoherentDecoder(FS)
        combiner = MultiTargetCombiner(decoder, collision.antennas[0].n_samples)
        key = combiner.add_target(collision.truth[0].cfo_hz(collision.lo_hz))
        assert combiner.channel_estimates(key) is None  # nothing combined yet
        combiner.advance([key], [collision], 1)
        estimates = combiner.channel_estimates(key)
        truth = collision.truth[0].channels
        assert estimates.shape == truth.shape
        for estimate, channel in zip(estimates, truth):
            assert abs(np.angle(estimate / channel)) < 0.02
            assert abs(estimate) == pytest.approx(abs(channel), rel=0.05)

    def test_decode_result_channels_match_truth_ratios(self):
        """DecodeResult.channels accumulates cross-antenna evidence whose
        ratios converge on the true channel ratios — the Eq 10 phases."""
        sim = self.lone_tag_sim()
        session = DecodeSession(query_fn=lambda t: sim.query(t), decoder=CoherentDecoder(FS))
        result = session.decode_target(500e3, max_queries=8)
        assert result.success
        assert result.n_antennas == 3
        truth = session.captures[0].truth[0].channels
        for a in range(1, 3):
            measured = result.channels[a] / result.channels[0]
            expected = truth[a] / truth[0]
            assert abs(np.angle(measured / expected)) < 0.05

    def test_mrc_snr_gain_at_low_snr(self):
        """Three antennas of comparable gain buy ~3x accumulator SNR over
        the single-antenna baseline at identical captures."""
        sim = self.lone_tag_sim(noise_factor=30_000)
        pool = [sim.query(i * 1e-3) for i in range(8)]
        decoder = CoherentDecoder(FS)
        template = pool[0].truth[0].response.baseband.real  # OOK chips
        centered = template - template.mean()
        snr = {}
        for policy in ("single", "mrc"):
            combiner = MultiTargetCombiner(
                decoder, pool[0].antennas[0].n_samples, combining=policy
            )
            keys = combiner.add_targets([pool[0].truth[0].cfo_hz(pool[0].lo_hz)])
            # Fold in the whole pool without demodulating, so a decode
            # cannot stop the accumulation early.
            for capture in pool:
                combiner._combine(np.array(keys), capture)
            row = (
                combiner._phasors[keys[0]] * combiner._reduced(np.array(keys))[0]
            ).real
            gain = np.dot(row, centered) / np.dot(centered, centered)
            residual = row - row.mean() - gain * centered
            snr[policy] = (
                gain * gain * np.dot(centered, centered) / np.dot(residual, residual)
            )
        assert snr["mrc"] > 2.0 * snr["single"]

    def test_mrc_decodes_in_fewer_queries_at_low_snr(self):
        cfos = [300e3, 800e3]
        queries = {}
        for policy in ("single", "mrc"):
            sim, _ = build_sim(cfos, seed=5)
            sim.source.noise_power_w = thermal_noise_power_w(FS) * 30_000
            session = DecodeSession(
                query_fn=lambda t: sim.query(t),
                decoder=CoherentDecoder(FS),
                combining=policy,
            )
            results = session.decode_all(cfos, max_queries=64)
            assert all(r.success for r in results.values())
            queries[policy] = sum(r.n_queries for r in results.values())
        assert queries["mrc"] < queries["single"]

    def test_waveform_seed_then_collision_stream_decodes(self):
        """Regression: a legacy one-antenna seed into a default (MRC)
        session whose stream yields 3-antenna collisions must combine,
        not crash — the combiner grows antenna rows per capture."""
        cfos = [300e3, 800e3]
        sim, tags = build_sim(cfos, seed=5)
        sim.source.noise_power_w = thermal_noise_power_w(FS) * 30_000
        session = DecodeSession(query_fn=lambda t: sim.query(t), decoder=CoherentDecoder(FS))
        session.seed_capture(sim.query(0.0).antenna(0))
        results = session.decode_all(cfos, max_queries=64)
        assert all(r.success for r in results.values())
        assert {r.packet.tag_id for r in results.values()} == {
            t.packet.tag_id for t in tags
        }
        # Later 3-antenna captures widened the evidence to all antennas.
        assert max(r.n_antennas for r in results.values() if r.n_queries > 1) == 3
