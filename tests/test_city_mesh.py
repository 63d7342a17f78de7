"""Unit tests for repro.sim.city.mesh (the corridor-graph city layer)."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.city import CityMesh
from repro.sim.events import EventScheduler
from repro.sim.traffic import TrafficLight


def chain_mesh(handoff, seed=7, n_poles=2, **mesh_kwargs):
    """The 3-corridor / 2-intersection main line A -> B -> C."""
    mesh = CityMesh(rng=seed, handoff=handoff, **mesh_kwargs)
    mesh.add_node("u", light=TrafficLight(green_s=8.0, yellow_s=1.0, red_s=4.0))
    mesh.add_node(
        "v", light=TrafficLight(green_s=8.0, yellow_s=1.0, red_s=4.0, offset_s=3.0)
    )
    mesh.add_edge("A", dst="u", n_poles=n_poles)
    mesh.add_edge("B", src="u", dst="v", n_poles=n_poles)
    mesh.add_edge("C", src="v", n_poles=n_poles)
    mesh.add_traffic(
        [(("A", "B", "C"), 0.8), (("A", "B"), 0.2)],
        rate_per_s=0.5,
        speed_range_m_s=(10.0, 16.0),
    )
    return mesh


def y_mesh(seed=5):
    """A fork: traffic enters at A; most continues to B (the predicted
    successor), a quarter turns off to D — the mis-push population."""
    mesh = CityMesh(rng=seed, handoff="push")
    mesh.add_node("u", light=TrafficLight(green_s=8.0, yellow_s=1.0, red_s=4.0))
    mesh.add_edge("A", dst="u", n_poles=2)
    mesh.add_edge("B", src="u", n_poles=2)
    mesh.add_edge("D", src="u", n_poles=2)
    mesh.add_traffic(
        [(("A", "B"), 0.75), (("A", "D"), 0.25)],
        rate_per_s=0.5,
        speed_range_m_s=(11.0, 15.0),
    )
    return mesh


class TestGraphConstruction:
    def test_duplicate_names_rejected(self):
        mesh = CityMesh(rng=1)
        mesh.add_node("u")
        with pytest.raises(ConfigurationError):
            mesh.add_node("u")
        mesh.add_edge("A", dst="u")
        with pytest.raises(ConfigurationError):
            mesh.add_edge("A", dst="u")

    def test_unknown_node_rejected(self):
        mesh = CityMesh(rng=1)
        with pytest.raises(ConfigurationError):
            mesh.add_edge("A", dst="nowhere")

    def test_edge_wider_than_interference_range_rejected(self):
        """An edge whose own poles could not hear each other would
        silently break the single-street CSMA semantics."""
        mesh = CityMesh(rng=1, interference_range_m=300.0, frame_gap_m=1000.0)
        with pytest.raises(ConfigurationError):
            mesh.add_edge("A", n_poles=10, pole_spacing_m=40.0)

    def test_frame_gap_must_exceed_interference_range(self):
        with pytest.raises(ConfigurationError):
            CityMesh(rng=1, interference_range_m=500.0, frame_gap_m=400.0)

    def test_edges_laid_out_apart(self):
        """Consecutive edge frames never share the ether."""
        mesh = CityMesh(rng=1)
        mesh.add_node("u")
        a = mesh.add_edge("A", dst="u")
        b = mesh.add_edge("B", src="u")
        assert b.entry_x_m - a.exit_x_m >= mesh.frame_gap_m
        # Station names are globally scoped by the edge.
        assert a.first_station.name == "A/pole-0"
        assert b.first_station.cell.name == "B/cell-0"

    def test_route_validation(self):
        mesh = CityMesh(rng=1)
        mesh.add_node("u")
        mesh.add_edge("A", dst="u")
        mesh.add_edge("B", src="u")
        mesh.add_edge("X")  # disconnected
        with pytest.raises(ConfigurationError):
            mesh.add_traffic([(("A", "X"), 1.0)], rate_per_s=0.1)
        with pytest.raises(ConfigurationError):  # two entry edges in one source
            mesh.add_traffic([(("A", "B"), 1.0), (("B",), 1.0)], rate_per_s=0.1)
        with pytest.raises(ConfigurationError):  # weights must be positive
            mesh.add_traffic([(("A", "B"), 0.0)], rate_per_s=0.1)
        mesh.add_traffic([(("A", "B"), 1.0)], rate_per_s=0.1)  # valid

    def test_turn_policy_follows_flow_mass(self):
        mesh = CityMesh(rng=1)
        mesh.add_node("u")
        mesh.add_edge("A", dst="u")
        mesh.add_edge("B", src="u")
        mesh.add_edge("D", src="u")
        mesh.add_traffic(
            [(("A", "B"), 0.3), (("A", "D"), 0.7)], rate_per_s=0.2
        )
        assert mesh._turn_policy() == {"A": "D"}

    def test_run_once_guard(self):
        mesh = CityMesh(rng=1)
        mesh.add_edge("A")
        mesh.run(0.5)
        with pytest.raises(ConfigurationError):
            mesh.run(0.5)
        with pytest.raises(ConfigurationError):
            mesh.add_edge("B")

    def test_empty_mesh_rejected(self):
        with pytest.raises(ConfigurationError):
            CityMesh(rng=1).run(1.0)


class TestIntersectionDwell:
    def light_node(self):
        from repro.sim.city import MeshNode

        return MeshNode(
            "u", light=TrafficLight(green_s=10.0, yellow_s=2.0, red_s=8.0)
        )

    def test_green_arrival_rolls_through(self):
        assert self.light_node().departure_s(3.0) == 3.0

    def test_yellow_arrival_proceeds(self):
        assert self.light_node().departure_s(11.0) == 11.0

    def test_red_arrival_waits_for_the_cycle_boundary(self):
        node = self.light_node()
        assert node.departure_s(13.0) == pytest.approx(20.0)
        assert node.departure_s(19.9) == pytest.approx(20.0)

    def test_headway_queue_never_releases_into_the_red(self):
        """A queue draining through a short green holds the remainder
        for the next green: the signal check applies to the headway-
        delayed release instant, not just the arrival."""
        mesh = CityMesh(rng=1)
        node = mesh.add_node(
            "u",
            light=TrafficLight(green_s=4.0, yellow_s=0.0, red_s=8.0),
            headway_s=2.0,
        )
        departures = [mesh._release(node, 11.0) for _ in range(5)]
        # Cycle: green [0,4) + [12,16) + [24,28)..., red elsewhere.
        assert departures == pytest.approx([12.0, 14.0, 24.0, 26.0, 36.0])
        for depart in departures:
            assert node.light.is_go(depart)

    def test_uncontrolled_node(self):
        from repro.sim.city import MeshNode

        assert MeshNode("u").departure_s(13.0) == 13.0


class TestCorridorPriming:
    def corridor(self):
        from repro.sim.city import CityCorridor
        from repro.sim.scenario import city_corridor_scene

        scene, trajectories = city_corridor_scene(n_poles=2, n_cars=0, rng=1)
        return CityCorridor.build(
            scene, trajectories, lane_ys_m=(-1.75, -5.25), rng=1
        )

    def test_a_car_arriving_after_zero_enters_at_its_crossings(self):
        """A mesh hands each edge its cars before the run, each on a
        trajectory that starts at the edge's entry point at its entry
        time. The primed corridor rosters the car only once it enters,
        and ledgers every cell entry and exit at its crossing time."""
        from repro.sim.city import MovingTag
        from repro.sim.mobility import ConstantSpeedTrajectory
        from repro.sim.scenario import make_tags
        import numpy as np

        corridor = self.corridor()
        cells = [station.cell for station in corridor.stations]
        start_m = np.array([cells[0].x_min_m, -1.75, 1.0])
        tag = MovingTag(
            transponder=make_tags(start_m[None, :], rng=1)[0],
            trajectory=ConstantSpeedTrajectory(
                start_m=start_m,
                velocity_m_s=np.array([20.0, 0.0, 0.0]),
                t0_s=0.5,
            ),
        )
        corridor.tags.append(tag)
        scheduler = EventScheduler()
        corridor.prime(scheduler, 6.0)
        scheduler.run_until(0.4)
        assert not any(corridor._roster)
        scheduler.run_until(0.5)
        assert corridor._roster[0] == {0}
        scheduler.run_until(6.0)
        assert not any(corridor._roster)
        ledger = corridor.finish().ledger
        assert ledger.cell_entries == [
            (tag.time_at_x(cell.x_min_m), cell.name, tag.tag_id) for cell in cells
        ]
        assert ledger.cell_exits == [
            (tag.time_at_x(cell.x_max_m), cell.name, tag.tag_id) for cell in cells
        ]
        assert ledger.cell_entries[0][0] == 0.5

    def test_finish_requires_run(self):
        with pytest.raises(ConfigurationError):
            self.corridor().finish()

    def test_prime_marks_the_single_use(self):
        corridor = self.corridor()
        corridor.prime(EventScheduler(), 1.0)
        with pytest.raises(ConfigurationError):
            corridor.run(1.0)

    def test_superseded_push_note_becomes_a_miss_not_a_later_hit(self):
        """If something other than the pushed entry resolves the first
        sighting (the entry was evicted or out of tolerance, so a
        handoff or re-decode covered it), the note must convert to a
        push *miss* immediately — otherwise the next round's plain
        own-cache hit would masquerade as a push hit."""
        corridor = self.corridor()
        station = corridor.stations[0]
        station.receive_push(500e3, 7, from_station="elsewhere", now_s=1.0)
        corridor._push_note_superseded(station, 7)
        assert 7 not in station.pushed
        assert len(corridor.ledger.push_misses) == 1
        miss = corridor.ledger.push_misses[0]
        assert miss.tag_id == 7 and miss.t_s == 1.0
        assert miss.from_station == "elsewhere"
        # A later own-cache hit therefore records as "own", not "push".
        corridor._push_note_superseded(station, 7)  # idempotent
        assert len(corridor.ledger.push_misses) == 1


@pytest.mark.slow
class TestCityMeshRun:
    def test_push_beats_pull_across_corridor_boundaries(self):
        """The tentpole behavior: predictive push resolves most
        cross-corridor entries ahead of arrival and strictly lowers the
        first-sighting decode cost at the entered corridor's first pole,
        on a clean street (zero corrupted responses mesh-wide)."""
        push = chain_mesh("push").run(22.0)
        pull = chain_mesh("pull").run(22.0)
        assert push.cars_transferred > 0
        assert push.cross_entries > 0
        assert push.cross_resolution_rate > 0.5
        assert push.ledger.push_hits > 0
        # Pull never pushes and resolves no boundary crossing.
        assert pull.ledger.pushes_sent == 0
        assert pull.cross_resolved == 0
        assert pull.cross_redecodes == pull.cross_entries
        # The headline: strictly cheaper first sightings at first poles.
        assert push.first_pole_queries and pull.first_pole_queries
        assert push.mean_first_pole_queries < pull.mean_first_pole_queries
        # One air log per street, CSMA on: the street stays clean.
        assert push.corrupted_responses == 0
        assert pull.corrupted_responses == 0
        # Directory bookkeeping stayed consistent throughout.
        assert push.directory["reports"] > 0

    def test_mis_pushed_entry_falls_back_to_redecode(self):
        """A car that turns off the predicted route leaves its pushed
        entry unconsumed: the ledger records the miss, and the car is
        re-decoded wherever it actually went — cleanly, with no trace
        of the wrong-pole entry beyond the audit."""
        result = y_mesh(seed=5).run(22.0)
        ledger = result.ledger
        assert len(ledger.push_misses) > 0
        # The cross-corridor misses were all aimed at the predicted
        # edge B (the majority turn) by A's boundary pole. (Run-end can
        # also strand within-corridor pushes for cars still en route —
        # those are misses too, but not the off-route kind under test.)
        cross_misses = [
            miss
            for miss in ledger.push_misses
            if miss.from_station.startswith("A/")
        ]
        assert cross_misses
        for miss in cross_misses:
            assert miss.target.startswith("B/")
        # At least one mis-pushed car was re-decoded on D, the edge it
        # actually took.
        d_redecodes = {
            record.tag_id
            for record in ledger.records
            if record.kind == "redecode" and record.station.startswith("D/")
        }
        missed_tags = {miss.tag_id for miss in ledger.push_misses}
        assert d_redecodes & missed_tags
        # The fallback spent real decode queries (clean re-decode).
        assert any(
            record.n_queries > 0
            for record in ledger.records
            if record.kind == "redecode" and record.station.startswith("D/")
        )
        # And the happy path still worked for the majority.
        assert ledger.push_hits > 0
        assert result.corrupted_responses == 0

    def test_deterministic_under_fixed_seed(self):
        """Two meshes from one seed reproduce the whole city run —
        summaries, ledger records, pushes and misses — exactly. Guards
        the shared-scheduler/air-log/directory plumbing against
        nondeterministic ordering."""
        import json

        first = chain_mesh("push", seed=11).run(16.0)
        second = chain_mesh("push", seed=11).run(16.0)
        # JSON-normalized comparison: NaN fields (an edge with no
        # decode-identified tags has NaN means) compare equal as text.
        assert json.dumps(first.summary(), sort_keys=True) == json.dumps(
            second.summary(), sort_keys=True
        )
        assert first.ledger.records == second.ledger.records
        assert first.ledger.pushes == second.ledger.pushes
        assert first.ledger.push_misses == second.ledger.push_misses
        assert first.first_pole_queries == second.first_pole_queries

    def test_a_route_that_comes_back_keeps_its_cars_rows(self, monkeypatch):
        """A car whose route revisits an edge is admitted there twice. Its
        waveform row must outlive its first pass: a rebuilt row would draw
        a new phase and move every later output. The run equals one whose
        banks never evict."""
        import json

        from repro.sim.city.moving import TagWaveformBank

        def loop_mesh():
            mesh = CityMesh(rng=5)
            mesh.add_node("u")
            mesh.add_node("v")
            mesh.add_edge("A", src="u", dst="v", n_poles=2)
            mesh.add_edge("B", src="v", dst="u", n_poles=2)
            mesh.add_traffic(
                [(("A", "B", "A"), 1.0)], rate_per_s=0.5, speed_range_m_s=(12.0, 16.0)
            )
            return mesh

        mesh = loop_mesh()
        settled = mesh.run(20.0)
        assert mesh.edges["A"].corridor._returning
        assert not mesh.edges["B"].corridor._returning
        monkeypatch.setattr(TagWaveformBank, "evict", lambda self, tag_id: None)
        kept = loop_mesh().run(20.0)
        assert json.dumps(settled.summary(), sort_keys=True) == json.dumps(
            kept.summary(), sort_keys=True
        )
        assert settled.ledger.records == kept.ledger.records
