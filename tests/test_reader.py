"""Unit tests for repro.core.reader and repro.sim.scenario."""

import numpy as np
import pytest

from repro.core.reader import CaraokeReader
from repro.core.localization import ReaderGeometry
from repro.errors import ConfigurationError
from repro.sim.scenario import (
    intersection_scene,
    make_tags,
    parking_scene,
    two_pole_speed_scene,
)


def build_reader(scene) -> CaraokeReader:
    geometry = ReaderGeometry(scene.arrays[0], scene.road)
    return CaraokeReader(geometry=geometry, sample_rate_hz=scene.sample_rate_hz)


class TestScenarios:
    def test_parking_scene_shapes(self):
        scene, street, targets = parking_scene(target_spots=[1, 4], n_background_cars=2, rng=1)
        assert len(scene.tags) == 4
        assert len(targets) == 2
        assert street.is_occupied(1) and street.is_occupied(4)

    def test_parking_scene_positions_on_curb(self):
        scene, street, targets = parking_scene(target_spots=[2], n_background_cars=0, rng=2)
        assert targets[0][1] == pytest.approx(street.origin_m[1])

    def test_two_pole_scene(self):
        arrays, road = two_pole_speed_scene(baseline_m=61.0)
        assert len(arrays) == 4
        assert arrays[2].center_m[0] - arrays[0].center_m[0] == pytest.approx(61.0)
        # Station pairs face each other across the road.
        assert arrays[0].center_m[1] > 0 > arrays[1].center_m[1]

    def test_intersection_scene_queue(self):
        scene = intersection_scene(queue_length=5, rng=3)
        assert len(scene.tags) == 5
        xs = [t.position_m[0] for t in scene.tags]
        assert xs == sorted(xs)

    def test_intersection_scene_empty(self):
        scene = intersection_scene(queue_length=0, rng=4)
        assert scene.tags == []

    def test_simulator_index_validated(self):
        scene = intersection_scene(queue_length=1, rng=5)
        with pytest.raises(ConfigurationError):
            scene.simulator(3)

    def test_make_tags_positions(self):
        tags = make_tags(np.array([[1.0, 2.0, 1.0], [3.0, 4.0, 1.0]]), rng=6)
        assert len(tags) == 2
        assert np.allclose(tags[1].position_m, [3.0, 4.0, 1.0])


class TestCaraokeReader:
    def test_observe_counts_and_localizes(self):
        scene, _, _ = parking_scene(target_spots=[1, 3, 5], n_background_cars=0, rng=7)
        reader = build_reader(scene)
        collision = scene.simulator(0, rng=8).query(0.0)
        report = reader.observe(collision)
        assert report.n_tags == 3
        assert len(report.aoas) == 3
        for aoa in report.aoas:
            assert 0.0 < aoa.alpha_deg < 180.0

    def test_observe_reads_aoa_with_the_fit_basis(self):
        """``observe`` hands each accepted spike's fit-basis row to the AoA
        readout; its estimates equal per-spike ``estimate_for_cfo`` calls
        that build their own probe, and the report keeps no basis."""
        from repro.obs import Obs

        scene, _, _ = parking_scene(target_spots=[1, 2, 4, 6], n_background_cars=2, rng=21)
        reader = build_reader(scene)
        reader.estimator.obs = Obs()
        sim = scene.simulator(0, rng=22)
        spikes = 0
        for t_s in (0.0, 2.5e-3, 37.5):
            collision = sim.query(t_s)
            report = reader.observe(collision)
            assert report.count.basis is None
            cfos = [float(c) for c in report.count.cfos_hz()]
            assert len(report.aoas) == len(cfos) > 0
            for got, cfo in zip(report.aoas, cfos):
                want = reader.estimator.estimate_for_cfo(collision, cfo)
                assert str(got) == str(want)
                assert got.channels.tobytes() == want.channels.tobytes()
            spikes += len(cfos)
        metrics = reader.estimator.obs.metrics
        assert metrics.counter("aoa.readout", probe="basis") == spikes
        assert metrics.counter("aoa.readout", probe="built") == spikes

    def test_report_payload_small(self):
        """§12.5 footnote: a report is a few kbits at most."""
        scene, _, _ = parking_scene(target_spots=[1, 2], n_background_cars=2, rng=9)
        reader = build_reader(scene)
        report = reader.observe(scene.simulator(0, rng=10).query(0.0))
        assert report.payload_bits() < 4000

    def test_observe_timestamp(self):
        scene, _, _ = parking_scene(target_spots=[2], n_background_cars=0, rng=11)
        reader = build_reader(scene)
        collision = scene.simulator(0, rng=12).query(0.0)
        report = reader.observe(collision, timestamp_s=42.0)
        assert report.timestamp_s == 42.0

    def test_decode_all_in_range(self):
        scene, _, _ = parking_scene(target_spots=[1, 2, 3], n_background_cars=0, rng=13)
        reader = build_reader(scene)
        sim = scene.simulator(0, rng=14)
        results = reader.decode_all_in_range(lambda t: sim.query(t), max_queries=64)
        decoded = {r.packet.tag_id for r in results.values() if r.success}
        truth = {t.packet.tag_id for t in scene.tags}
        assert decoded <= truth
        assert len(decoded) >= 2  # in-bin CFO collisions may hide one

    def test_decode_all_in_range_zero_tags(self):
        """A noise-only capture counts zero tags and decodes nothing —
        and issues no further queries doing so."""
        scene = intersection_scene(queue_length=0, rng=17)
        reader = build_reader(scene)
        sim = scene.simulator(0, rng=18)
        queries = []

        def query_fn(t):
            queries.append(t)
            return sim.query(t)

        results = reader.decode_all_in_range(query_fn, max_queries=64)
        assert results == {}
        assert len(queries) == 1  # only the counting capture

    def test_decode_all_in_range_nonzero_antenna(self):
        """Decoding must work from any antenna of the triangle: the
        one-antenna policy reads the first antenna, so each capture is
        handed over with antenna k moved to the front."""
        scene, _, _ = parking_scene(target_spots=[1, 4], n_background_cars=0, rng=19)
        truth = {t.packet.tag_id for t in scene.tags}
        for k in (1, 2):
            sim = scene.simulator(0, rng=20 + k)

            def query_fn(t, k=k, sim=sim):
                collision = sim.query(t)
                antennas = collision.antennas
                collision.antennas = [antennas[k]] + antennas[:k] + antennas[k + 1 :]
                return collision

            results = build_reader(scene).decode_all_in_range(
                query_fn, max_queries=64, combining="single"
            )
            decoded = {r.packet.tag_id for r in results.values() if r.success}
            assert decoded == truth

    def test_count_without_aoa_on_single_antenna(self):
        scene, _, _ = parking_scene(target_spots=[2, 4], n_background_cars=0, rng=15)
        reader = build_reader(scene)
        collision = scene.simulator(0, rng=16).query(0.0)
        collision.antennas = collision.antennas[:1]
        report = reader.observe(collision)
        assert report.n_tags == 2
        assert report.aoas == []
