"""Conformance suite for the cross-pole shared response pool.

The physics under test: one tag response is one on-air transmission, so
a pole overhearing a window another pole triggered must see the *same*
transmission-side state (bits, CFO fingerprint, random oscillator
phase) under *its own* receiver-side state (per-pole delay/attenuation,
array geometry, noise) — and a pole never harvests a window its own
receiver was busy capturing. ``opportunistic="ignore"`` must reproduce
the pool-less corridor bit for bit (golden-pinned below).
"""

import hashlib

import numpy as np
import pytest

from repro.channel.geometry import spatial_angle_rad
from repro.constants import QUERY_PERIOD_S
from repro.core.cfo import extract_cfo_peaks
from repro.core.decoding import CoherentDecoder, DecodeSession
from repro.core.localization import AoAEstimator
from repro.errors import ConfigurationError
from repro.sim.city import (
    MovingCollisionSource,
    MovingTag,
    ResponsePool,
    TagWaveformBank,
    TriggerWindow,
)
from repro.sim.mobility import ConstantSpeedTrajectory
from repro.sim.scenario import city_corridor_scene, make_tags

from tests.test_city_corridor import (
    History,
    random_tags,
    reference_in_range,
    small_corridor,
)
from tests.test_propagation import reference_coefficient, same_bits

#: Ledger digests of the pre-pool corridor (captured before the pool
#: landed): ``opportunistic="ignore"`` must keep reproducing them.
#: Re-pinned once when §5 refinement became the closed-form three-bin
#: estimator: seed 41's sighting CFOs moved (median 18 Hz), and seed 17
#: gained eight sightings. Seed 17 re-pinned again when the tone fit
#: moved from least squares on the N x m basis to the m x m normal
#: equations with closed-form (Dirichlet-kernel) leakage: only ``cfo_hz``
#: moved, on 36 of 439 rows, by at most 0.7 uHz (round-off in the
#: joint refinement's cancellation); seed 41 held. Seed 17 re-pinned
#: once more when every tone probe became block-factored (the fit's
#: right-hand side is the row sums of the block sums): again only
#: ``cfo_hz`` moved, on 35 of 439 rows, by at most 0.5 uHz (round-off in
#: the joint refinement's cancellation fit); seed 41 held.
GOLDEN_LEDGER_SHA256 = {
    17: "2e9d31ebe4eb616f44e118fae1ceb3a00e68ae7f9e8ceedae0954b01500c4d84",
    41: "7867fd3bd941215d202601dbb12c10b5c810932a2f95b297911bb88f12ac2158",
}
GOLDEN_FIELDS = ("t_s", "station", "kind", "cfo_hz", "tag_id", "from_station", "n_queries")
GOLDEN_SUMMARY = {
    17: {
        "queries_sent": 240,
        "responses": 542,
        "corrupted_responses": 0,
        "tags_seen": 5,
        "tags_identified": 5,
        "burst_captures": 13,
        "mean_identification_queries": 2.8,
    },
    41: {
        "queries_sent": 242,
        "responses": 522,
        "corrupted_responses": 0,
        "tags_seen": 5,
        "tags_identified": 5,
        "burst_captures": 16,
        "mean_identification_queries": 3.6,
    },
}


def two_pole_world(seed=5, noise_power_w=0.0):
    """Two poles 30 m apart plus one tag parked midway between them.

    The tag sits inside both poles' radio range, so a window pole A
    triggers is audible at pole B — the overlap case the pool exists for.
    """
    scene, _ = city_corridor_scene(
        n_poles=2, pole_spacing_m=30.0, n_cars=1, entry="spread", rng=seed
    )
    rng = np.random.default_rng(seed)
    bank = TagWaveformBank(scene.lo_hz, scene.sample_rate_hz, rng=rng)
    sources = [
        MovingCollisionSource(
            array.positions_m,
            scene.channel,
            bank,
            noise_power_w=noise_power_w,
            rng=rng,
        )
        for array in scene.arrays
    ]
    trajectory = ConstantSpeedTrajectory(
        start_m=np.array([15.0, -1.75, 1.0]),
        velocity_m_s=np.array([12.0, 0.0, 0.0]),
        t0_s=0.0,
    )
    tag = MovingTag(transponder=scene.tags[0], trajectory=trajectory)
    return scene, sources, tag


class TestOverhearPhysics:
    def test_overheard_capture_has_pole_b_geometry_same_phase(self):
        scene, (src_a, src_b), tag = two_pole_world()
        t_query = 0.0
        own = src_a.query([tag], t_query)
        response_t0 = own.t0_s
        phase = own.truth[0].response.phase0_rad

        overheard = src_b.overhear([(tag, phase)], response_t0, origin="pole-0")
        assert overheard.overheard_from == "pole-0"
        assert overheard.t0_s == response_t0

        # Same transmission: identical bits and oscillator phase.
        assert np.array_equal(overheard.truth[0].response.bits, own.truth[0].response.bits)
        assert overheard.truth[0].response.phase0_rad == pytest.approx(phase)

        # This pole's channel: Friis amplitude + path phase from pole B's
        # antenna positions to the tag's position at response time.
        position = tag.position(response_t0)
        amp = tag.transponder.tx_amplitude
        expected = np.array(
            [
                scene.channel.coefficient(position, rx) * amp * np.exp(1j * phase)
                for rx in src_b.antenna_positions_m
            ]
        )
        assert np.allclose(overheard.truth[0].channels, expected)
        # ... and genuinely different from pole A's (different delays).
        assert not np.allclose(overheard.truth[0].channels, own.truth[0].channels)

    def test_overheard_capture_same_cfo_fingerprint(self):
        scene, (src_a, src_b), tag = two_pole_world()
        own = src_a.query([tag], 0.0)
        phase = own.truth[0].response.phase0_rad
        overheard = src_b.overhear([(tag, phase)], own.t0_s, origin="pole-0")
        true_cfo = own.truth[0].cfo_hz(scene.lo_hz)
        for capture in (own, overheard):
            peaks = extract_cfo_peaks(capture.antenna(0), min_snr_db=15)
            assert len(peaks) == 1
            assert peaks[0].cfo_hz == pytest.approx(true_cfo, abs=100.0)

    def test_overheard_aoa_points_at_tag_from_pole_b(self):
        scene, (src_a, src_b), tag = two_pole_world()
        own = src_a.query([tag], 0.0)
        phase = own.truth[0].response.phase0_rad
        overheard = src_b.overhear([(tag, phase)], own.t0_s, origin="pole-0")
        estimator = AoAEstimator(scene.arrays[1])
        cfo = own.truth[0].cfo_hz(scene.lo_hz)
        estimate = estimator.estimate_for_cfo(overheard, cfo)
        position = tag.position(own.t0_s)
        pair = scene.arrays[1].pairs()[estimate.best_pair_index]
        expected = spatial_angle_rad(position - pair.midpoint_m, pair.axis)
        assert estimate.alpha_rad == pytest.approx(expected, abs=np.deg2rad(3.0))

    def test_overhear_needs_responders(self):
        _, (_, src_b), _ = two_pole_world()
        with pytest.raises(ConfigurationError):
            src_b.overhear([], 0.0)


def reference_synthesize(source, tags, phases, response_t0):
    """The per-tag loop ``MovingCollisionSource._synthesize`` replaced:
    its clean (antennas x N) samples, truth phases and truth channels."""
    m = len(tags)
    rows = []
    gains = np.zeros((source.n_antennas, m), dtype=np.complex128)
    for i, tag in enumerate(tags):
        mixed, _ = source.bank.row(tag.transponder)
        rows.append(mixed)
        position = tag.position(response_t0)
        tag.transponder.position_m = position
        for a, rx in enumerate(source.antenna_positions_m):
            gains[a, i] = (
                reference_coefficient(source.channel, position, rx)
                * tag.transponder.tx_amplitude
            )
    if phases is None:
        phases = np.exp(1j * source.rng.uniform(0.0, 2.0 * np.pi, size=m))
    weights = gains * phases[None, :]
    clean = weights @ np.asarray(rows)
    return clean, [float(np.angle(p)) for p in phases], [weights[:, i].copy() for i in range(m)]


class TestSynthesizeReference:
    """One trigger window's responders are synthesized as one unit,
    bit for bit the per-tag loop (kept above as the reference)."""

    def sources(self, seed):
        scene, _ = city_corridor_scene(n_poles=2, n_cars=30, entry="spread", rng=seed)
        twins = []
        for _ in range(2):
            bank = TagWaveformBank(scene.lo_hz, scene.sample_rate_hz, rng=seed)
            twins.append(
                MovingCollisionSource(
                    scene.arrays[0].positions_m, scene.channel, bank, rng=seed + 1
                )
            )
        # One transponder per tag (the bank keys rows by tag id), each on
        # a random trajectory through the street.
        paths = random_tags(scene, np.random.default_rng(seed), len(scene.tags))
        tags = [
            MovingTag(transponder=tag, trajectory=path.trajectory)
            for tag, path in zip(scene.tags, paths)
        ]
        return twins, tags

    def check(self, collision, reference, tags):
        clean, phases, channels = reference
        assert same_bits(np.array([w.samples for w in collision.antennas]), clean)
        assert len(collision.truth) == len(tags)
        for entry, tag, phase, channel in zip(collision.truth, tags, phases, channels):
            assert entry.response.transponder is tag.transponder
            assert entry.response.phase0_rad == phase
            assert same_bits(entry.channels, channel)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_own_queries_equal_the_per_tag_loop(self, seed):
        (source, twin), tags = self.sources(seed)
        rng = np.random.default_rng(seed)
        for _ in range(6):
            chosen = [tags[i] for i in sorted(rng.choice(len(tags), int(rng.integers(1, 30)), replace=False))]
            t_query = float(rng.uniform(0.0, 5.0))
            collision = source.query(chosen, t_query)
            reference = reference_synthesize(twin, chosen, None, collision.t0_s)
            self.check(collision, reference, chosen)
            for tag in chosen:
                assert np.array_equal(tag.transponder.position_m, tag.position(collision.t0_s))

    def test_overheard_windows_equal_the_per_tag_loop(self):
        (source, twin), tags = self.sources(5)
        rng = np.random.default_rng(5)
        for _ in range(6):
            chosen = [tags[i] for i in sorted(rng.choice(len(tags), int(rng.integers(1, 30)), replace=False))]
            phases_rad = rng.uniform(0.0, 2.0 * np.pi, len(chosen))
            t0 = float(rng.uniform(0.0, 5.0))
            collision = source.overhear(list(zip(chosen, phases_rad)), t0, origin="pole-1")
            reference = reference_synthesize(twin, chosen, np.exp(1j * phases_rad), t0)
            self.check(collision, reference, chosen)


class TestResponsePool:
    def window(self, origin, end_s, corrupted=False, tags=(), phases=()):
        return TriggerWindow(
            origin=origin,
            t_query_s=end_s - 632e-6,
            start_s=end_s - 512e-6,
            end_s=end_s,
            tags=tuple(tags),
            phases_rad=tuple(phases),
            corrupted=corrupted,
        )

    def test_windows_ending_in_half_open_and_origin_excluded(self):
        pool = ResponsePool()
        w1 = pool.publish(self.window("pole-0", 0.010))
        w2 = pool.publish(self.window("pole-1", 0.020))
        w3 = pool.publish(self.window("pole-0", 0.030))
        got = pool.windows_ending_in(0.010, 0.030, exclude_origin="pole-1")
        assert got == [w3]  # w1 excluded at lo (half-open), w2 by origin
        assert pool.windows_ending_in(0.0, 0.030) == [w1, w2, w3]
        assert pool.windows_ending_in(0.030, 1.0) == []
        assert len(pool) == 3

    def test_windows_out_of_record_order_are_still_found(self):
        """A burst publishes future windows early; a later harvest range
        must still see them exactly once."""
        pool = ResponsePool()
        late = pool.publish(self.window("pole-0", 0.050))  # future window
        early = pool.publish(self.window("pole-1", 0.010))
        assert pool.windows_ending_in(0.0, 0.020) == [early]
        assert pool.windows_ending_in(0.020, 0.060) == [late]

    def test_harvest_skips_own_capture_slots(self):
        _, (src_a, _), tag = two_pole_world()
        own_capture = src_a.query([tag], 0.0)
        phase = own_capture.truth[0].response.phase0_rad
        pool = ResponsePool()
        clear = pool.publish(
            self.window("pole-0", 0.020, tags=[tag], phases=[phase])
        )
        busy = pool.publish(
            self.window("pole-0", 0.040, tags=[tag], phases=[phase])
        )
        pole_b = np.array([30.0, 1.0, 3.8])
        own_windows = [(busy.start_s - 100e-6, busy.start_s + 100e-6)]
        harvested = pool.harvest(
            "pole-1", pole_b, 0.0, 0.050, own_windows, range_m=30.0
        )
        assert [w for w, _ in harvested] == [clear]

    def test_harvest_range_gates_responders(self):
        _, (src_a, _), tag = two_pole_world()
        own_capture = src_a.query([tag], 0.0)
        phase = own_capture.truth[0].response.phase0_rad
        pool = ResponsePool()
        pool.publish(self.window("pole-0", 0.020, tags=[tag], phases=[phase]))
        far_pole = np.array([500.0, 1.0, 3.8])
        assert pool.harvest("pole-1", far_pole, 0.0, 0.050, [], 30.0) == []
        near_pole = np.array([20.0, 1.0, 3.8])
        harvested = pool.harvest("pole-1", near_pole, 0.0, 0.050, [], 30.0)
        assert len(harvested) == 1
        (window, audible), = harvested
        assert audible == [(tag, phase)]

    def test_audible_tags_equal_per_tag_checks(self):
        """A window's responders straddling a listener's range: one gate
        keeps exactly the (tag, phase) pairs the per-tag check kept, and
        a corrupted window is audible when any one responder is."""
        scene, _ = city_corridor_scene(n_poles=2, n_cars=1, rng=1)
        rng = np.random.default_rng(21)
        tags = random_tags(scene, rng, 40)
        phases = tuple(rng.uniform(0.0, 2.0 * np.pi, 40))
        pool = ResponsePool()
        window = pool.publish(self.window("pole-0", 2.0, tags=tags, phases=phases))
        kept = set()
        for x_m in np.linspace(-120.0, 60.0, 19):
            pole = np.array([x_m, 1.0, 3.8])
            expected = [
                (tag, phase)
                for tag, phase in zip(tags, phases)
                if reference_in_range(tag, pole, window.start_s, 30.0)
            ]
            assert window.audible_tags(pole, 30.0) == expected
            kept.add(0 < len(expected) < len(tags))
            # The corrupted copy of the window: only its last responder
            # decides whether the garbage was audible.
            for subset in (tags, tags[-1:]):
                garbage = ResponsePool()
                garbage.publish(self.window("pole-0", 2.0, corrupted=True, tags=subset))
                audible = any(reference_in_range(t, pole, window.start_s, 30.0) for t in subset)
                harvested = garbage.harvest("pole-1", pole, 0.0, 3.0, [], 30.0)
                assert len(harvested) == int(audible)
        assert True in kept

    def test_corrupted_window_carries_no_phases(self):
        window = self.window("pole-0", 0.020, corrupted=True)
        assert window.corrupted and window.phases_rad == ()
        with pytest.raises(ConfigurationError):
            TriggerWindow("pole-0", 0.0, 120e-6, 632e-6, tags=(1, 2), phases_rad=(0.1,))
        with pytest.raises(ConfigurationError):
            TriggerWindow("pole-0", 0.0, 632e-6, 120e-6)

    def test_harvest_surfaces_audible_corrupted_windows(self):
        """A corrupted window carries its responders (no phases) and is
        harvested with an empty synthesis list when audible — the
        receiver buffered garbage, and corruption accounting must see
        it — but only when a responder was actually in range."""
        _, _, tag = two_pole_world()
        pool = ResponsePool()
        pool.publish(self.window("pole-0", 0.020, corrupted=True, tags=[tag]))
        near_pole = np.array([20.0, 1.0, 3.8])
        harvested = pool.harvest("pole-1", near_pole, 0.0, 0.050, [], 30.0)
        assert len(harvested) == 1
        (window, audible), = harvested
        assert window.corrupted and audible == []
        far_pole = np.array([500.0, 1.0, 3.8])
        assert pool.harvest("pole-1", far_pole, 0.0, 0.050, [], 30.0) == []


class TestDecodeSessionDonations:
    def sessions(self, seed=9):
        from repro.channel.antenna import TriangleArray
        from repro.sim.city.moving import ParkedSource
        from repro.channel.noise import thermal_noise_power_w
        from repro.channel.propagation import LosChannel
        from tests.conftest import make_tag

        fs = 4e6
        rng = np.random.default_rng(seed)
        tags = [
            make_tag(cfo, position_m=(x, -8.0, 1.0), seed=seed + i)
            for i, (cfo, x) in enumerate([(300e3, -4.0), (520e3, 2.0), (840e3, 6.0)])
        ]
        array = TriangleArray.street_pole(np.array([0.0, 0.0, 3.8]))
        noise = 40 * thermal_noise_power_w(fs)

        def sim(rng_seed):
            return ParkedSource(
                tags, array.positions_m, LosChannel(), noise_power_w=noise, rng=rng_seed
            )

        return fs, tags, sim

    def test_accepted_donations_cut_own_queries_not_air_time(self):
        fs, tags, sim = self.sessions()
        target = 520e3
        baseline = DecodeSession(query_fn=sim(1).query, decoder=CoherentDecoder(fs))
        result_base = baseline.decode_target(target, max_queries=32)
        assert result_base.success and result_base.n_queries > 1

        donor = sim(7)
        session = DecodeSession(query_fn=sim(1).query, decoder=CoherentDecoder(fs))
        for j in range(8):
            session.donate_capture(donor.query(j * 1e-3))
        result = session.decode_target(target, max_queries=32)
        assert result.success
        assert result.packet == result_base.packet
        assert result.n_overheard > 0
        assert result.n_queries < result_base.n_queries
        # Air time counts own queries only — donations are free.
        assert session.total_air_time_s == pytest.approx(
            len(session.captures) * QUERY_PERIOD_S
        )
        assert len(session.captures) == result.n_queries

    def test_probe_rejects_target_absent_captures(self):
        fs, tags, sim = self.sessions()
        from repro.channel.antenna import TriangleArray
        from repro.sim.city.moving import ParkedSource
        from repro.channel.noise import thermal_noise_power_w
        from repro.channel.propagation import LosChannel
        from tests.conftest import make_tag

        # A donor scene with *different* tags: no spike at the target CFO.
        other = [
            make_tag(150e3, position_m=(3.0, -6.0, 1.0), seed=77),
        ]
        array = TriangleArray.street_pole(np.array([0.0, 0.0, 3.8]))
        donor = ParkedSource(
            other,
            array.positions_m,
            LosChannel(),
            noise_power_w=40 * thermal_noise_power_w(fs),
            rng=3,
        )
        session = DecodeSession(query_fn=sim(1).query, decoder=CoherentDecoder(fs))
        for j in range(4):
            session.donate_capture(donor.query(j * 1e-3))
        result = session.decode_target(520e3, max_queries=32)
        assert result.success
        assert result.n_overheard == 0  # every donation failed the probe


class TestOwnCaptureSlots:
    def test_overhear_skips_windows_on_the_stations_held_query_slots(self):
        """A pole never harvests a window its receiver was busy
        capturing. Its capture slots are read from its own queries on
        the air log, including one started before the harvest range
        whose slot reaches into it."""
        corridor = small_corridor(seed=17, opportunistic="accept")
        a, b = corridor.stations[0], corridor.stations[1]
        x_m = float(a.pole_position_m[0])
        start_m = np.array([x_m, -1.75, 1.0])
        tag = MovingTag(
            transponder=make_tags(start_m[None, :], rng=3)[0],
            trajectory=ConstantSpeedTrajectory(
                start_m=start_m, velocity_m_s=np.zeros(3)
            ),
        )

        def publish(t_query_s):
            start_s, end_s = b.mac.response_window(t_query_s)
            corridor.pool.publish(
                TriggerWindow(
                    b.name, t_query_s, start_s, end_s, tags=(tag,), phases_rad=(0.0,)
                )
            )

        a.last_harvest_s = 0.200
        # Started before the harvest range: its slot ends 68 us before
        # the cursor, overlapping a window of b's that ends 100 us after.
        corridor.air.record_query(a.name, 0.200 - 700e-6)
        publish(0.200 + 100e-6 - 632e-6)
        # Inside the range: one of b's windows 50 us after a's own
        # query (overlapping its slot), one clear of every own slot.
        corridor.air.record_query(a.name, 0.205)
        publish(0.205 + 50e-6)
        publish(0.210)
        synthesized = []
        overhear = a.source.overhear

        def recording_overhear(entries, response_t0, **kwargs):
            synthesized.append(response_t0)
            return overhear(entries, response_t0, **kwargs)

        a.source.overhear = recording_overhear
        captures = corridor._overhear(a, 0.220)
        assert corridor._overheard_harvested == len(captures) == 1
        assert captures[0].overheard_from == b.name
        assert synthesized == [b.mac.response_window(0.210)[0]]


@pytest.mark.slow
class TestCorridorOverheard:
    def test_harvested_windows_never_overlap_own_capture_slots(self):
        corridor = small_corridor(seed=17, opportunistic="accept")
        history = History(corridor)
        result = corridor.run(6.0)
        assert result.overheard_harvested > 0
        own_windows = {}
        for query in history.air.queries():
            own_windows.setdefault(query.source, []).append(
                (query.end_s + 100e-6, query.end_s + 100e-6 + 512e-6)
            )
        for station, origin, start_s, end_s in history.harvested:
            assert origin != station
            for w_lo, w_hi in own_windows.get(station, []):
                assert not (start_s < w_hi and w_lo < end_s), (
                    f"{station} harvested a window overlapping its own "
                    f"capture slot [{w_lo}, {w_hi}]"
                )

    def test_harvested_windows_back_onto_air_log_provenance(self):
        """Every harvested window is real response energy: the air log
        holds response transmissions triggered by the window's origin
        over exactly that interval."""
        corridor = small_corridor(seed=17, opportunistic="accept")
        history = History(corridor)
        corridor.run(6.0)
        by_trigger = {}
        for response in history.air.responses():
            by_trigger.setdefault(
                (response.triggered_by, response.start_s, response.end_s), 0
            )
            by_trigger[(response.triggered_by, response.start_s, response.end_s)] += 1
        for _, origin, start_s, end_s in history.harvested:
            assert (origin, start_s, end_s) in by_trigger

    def test_accept_uses_overheard_evidence_on_overlap_traffic(self):
        """With cars spread across the corridor (every pole has overlap
        traffic), harvested windows actually feed combiners."""
        scene, trajectories = city_corridor_scene(
            n_poles=3,
            pole_spacing_m=35.0,
            n_cars=12,
            entry="spread",
            speed_range_m_s=(10.0, 16.0),
            rng=23,
        )
        from repro.sim.city import CityCorridor

        corridor = CityCorridor.build(
            scene,
            trajectories,
            lane_ys_m=(-1.75, -5.25),
            rng=23,
            opportunistic="accept",
            max_queries=16,
        )
        result = corridor.run(4.0)
        assert result.overheard_donated > 0
        assert result.ledger.overheard_captures_used() > 0
        assert result.overheard_corrupted_posthoc == 0

    def test_ignore_never_harvests(self):
        corridor = small_corridor(seed=17, opportunistic="ignore")
        result = corridor.run(6.0)
        assert result.opportunistic == "ignore"
        assert result.overheard_windows > 0  # publishing still happens
        assert result.overheard_harvested == 0
        assert result.overheard_donated == 0
        assert result.ledger.overheard_captures_used() == 0


class TestIgnoreIsBitForBitPrePool:
    """The ablation contract: ``opportunistic="ignore"`` reproduces the
    corridor as it behaved before the response pool existed, bit for bit
    (ledger digests and headline counters pinned from the pre-pool
    tree)."""

    @pytest.mark.parametrize("seed", [17, 41])
    def test_golden_ledger_and_counters(self, seed):
        result = small_corridor(seed=seed, opportunistic="ignore").run(6.0)
        rows = [
            tuple(getattr(record, f) for f in GOLDEN_FIELDS)
            for record in result.ledger.records
        ]
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == GOLDEN_LEDGER_SHA256[seed], (
            "opportunistic='ignore' diverged from the pre-pool corridor"
        )
        summary = result.summary()
        for key, expected in GOLDEN_SUMMARY[seed].items():
            assert summary[key] == expected, f"{key} diverged"
