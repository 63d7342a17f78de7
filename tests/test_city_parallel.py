"""The mesh engine: partition, invariance, merge, one contract.

The contract under test (see ``src/repro/sim/city/parallel.py``):

* ``mesh.run`` is the engine run in-process with one worker, and its
  output is golden-pinned;
* the same seed gives the same bytes at any worker count, forked or
  in-process: summaries, merged ledgers, metrics snapshots and
  subscribed services all agree;
* a shard worker that dies fails the run loudly, naming its groups and
  the quantum being advanced;
* every edge is one shard, built in sorted edge name order.
"""

from __future__ import annotations

import hashlib
import json
import os
from types import SimpleNamespace

import pytest

from repro.apps import CarFinder
from repro.errors import ConfigurationError
from repro.obs import Obs
from repro.sim.city import BackhaulConfig, CityMesh, downtown_grid, run_sharded
from repro.sim.city.parallel import _quantum_boundaries, _ShardGroup

from tests.test_city_mesh import chain_mesh

#: sha256 of ``chain_mesh("push", seed=7).run(16.0).summary()`` as JSON.
#: Re-pinned once when ``mesh.run`` became the sharded engine run
#: in-process (its per-edge RNG streams and quantum-boundary pushes
#: replaced the serial loop's interleaved stream and inline pushes, and
#: every summary gained the ``backhaul`` section).
MESH_GOLDEN_SHA256 = (
    "94aab841544916ced7b51073aac6e3310f4e511a3f4d9e4cdc044f4f09da0df4"
)


def summary_json(result) -> str:
    # NaN-tolerant canonical form (an edge with no identified tags has
    # NaN means; as JSON text they compare equal).
    return json.dumps(result.summary(), sort_keys=True)


class TestOneShardPerEdge:
    def test_shards_are_the_edges_in_sorted_name_order(self):
        mesh = CityMesh(rng=0)
        for name in ("north", "east", "south", "west"):
            mesh.add_edge(name)
        result = run_sharded(mesh, 0.5, workers=1, in_process=True)
        assert result.groups == (("east",), ("north",), ("south",), ("west",))
        assert list(result.edges) == ["north", "east", "south", "west"]
        assert set(result.events_processed) == set(mesh.edges)


class TestQuantumBoundaries:
    def test_covers_duration_exactly_once(self):
        ts = _quantum_boundaries(1.0, 0.25)
        assert ts == [0.25, 0.5, 0.75, 1.0]

    def test_non_divisible_duration_ends_on_duration(self):
        ts = _quantum_boundaries(0.9, 0.25)
        assert ts[-1] == 0.9
        assert ts[:-1] == [0.25, 0.5, 0.75]

    def test_short_run_is_one_barrier(self):
        assert _quantum_boundaries(0.1, 0.25) == [0.1]


class TestSerialGoldenPin:
    def test_serial_mesh_unchanged_by_sharding_pr(self):
        """``mesh.run`` (the one-worker in-process engine) reproduces
        the mesh golden."""
        result = chain_mesh("push", seed=7).run(16.0)
        digest = hashlib.sha256(summary_json(result).encode()).hexdigest()
        assert digest == MESH_GOLDEN_SHA256


def run_grid(workers, *, in_process=False, with_obs=False, seed=11):
    obs = Obs() if with_obs else None
    mesh = downtown_grid(2, 2, rng=seed, rate_per_s=0.5, obs=obs)
    result = run_sharded(
        mesh,
        6.0,
        workers=workers,
        in_process=in_process,
        shard_obs_factory=Obs if with_obs else None,
    )
    return result, obs


class TestWorkerCountInvariance:
    @pytest.mark.slow
    def test_1_vs_2_vs_4_workers_bit_identical(self):
        results = {}
        for workers in (1, 2, 4):
            result, obs = run_grid(workers, with_obs=True)
            results[workers] = (
                summary_json(result),
                result.ledger.records,
                result.ledger.pushes,
                result.ledger.push_misses,
                obs.metrics.snapshot_json(),
                result.events_processed,
            )
        assert results[1] == results[2] == results[4]

    @pytest.mark.slow
    def test_in_process_matches_forked(self):
        forked, _ = run_grid(2)
        local, _ = run_grid(2, in_process=True)
        assert summary_json(forked) == summary_json(local)
        assert forked.ledger.records == local.ledger.records

    @pytest.mark.slow
    def test_sharded_run_is_seed_deterministic(self):
        first, _ = run_grid(2)
        second, _ = run_grid(2)
        assert summary_json(first) == summary_json(second)


class TestMergedResultShape:
    @pytest.mark.slow
    def test_merge_produces_mesh_wide_views(self):
        result, _ = run_grid(2)
        # Every edge result references the one merged ledger.
        for edge_result in result.edges.values():
            assert edge_result.ledger is result.ledger
        # The partition is recorded, and the work proxy covers it.
        assert sorted(k for g in result.groups for k in g) == sorted(result.edges)
        assert set(result.events_processed) == {g[0] for g in result.groups}
        assert all(n > 0 for n in result.events_processed.values())
        # Cross-corridor accounting ran on the merged ledger.
        summary = result.summary()
        assert "cross_corridor" in summary
        assert summary["handoff_ledger"]["sightings"] == len(result.ledger.records)

    @pytest.mark.slow
    def test_redecode_classification_is_global(self):
        """A tag decoded on one shard then re-decoded on another must be
        classified 'redecode' in the merged ledger — shard-local ledgers
        cannot know, the merge replay must."""
        result, _ = run_grid(2, seed=11)
        by_tag = {}
        for record in sorted(result.ledger.records, key=lambda r: r.t_s):
            if record.tag_id is None:
                continue
            stations = by_tag.setdefault(record.tag_id, [])
            if record.kind in ("decode", "redecode"):
                # Any decode after the tag was known at another station
                # must have been reclassified.
                known_elsewhere = any(s != record.station for s in stations)
                if known_elsewhere:
                    assert record.kind == "redecode"
            stations.append(record.station)


class TestGuards:
    def test_runs_once(self):
        mesh = downtown_grid(1, 1, rng=0)
        run_sharded(mesh, 0.5, workers=1, in_process=True)
        with pytest.raises(ConfigurationError):
            run_sharded(mesh, 0.5, workers=1, in_process=True)
        with pytest.raises(ConfigurationError):
            mesh.run(0.5)

    def test_rejects_services(self):
        # The engine replays services coordinator-side, so any observer
        # runs; one that cannot observe is refused at subscribe time.
        mesh = downtown_grid(1, 1, rng=0)
        with pytest.raises(ConfigurationError):
            mesh.subscribe(SimpleNamespace())
        assert mesh.services == []
        mesh.subscribe(SimpleNamespace(observe=lambda *a, **k: None))
        run_sharded(mesh, 0.5, workers=1, in_process=True)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            run_sharded(downtown_grid(1, 1, rng=0), 0.5, workers=0)


class TestOneContract:
    @pytest.mark.slow
    @pytest.mark.parametrize(
        "backhaul",
        ["wired", BackhaulConfig(policy="scheduled", sync_period_s=1.0)],
        ids=["wired", "scheduled"],
    )
    def test_mesh_run_equals_forked_workers(self, backhaul):
        def build():
            return downtown_grid(2, 2, rng=11, rate_per_s=0.5, backhaul=backhaul)

        local = build().run(6.0)
        forked = run_sharded(build(), 6.0, workers=2)
        assert summary_json(local) == summary_json(forked)
        assert local.ledger.records == forked.ledger.records

    @pytest.mark.slow
    def test_subscribed_car_finder_is_worker_count_invariant(self):
        """Services get the same canonical replay as taps, so a
        find-my-car service ends identical under ``mesh.run`` and two
        forked workers."""

        def fixes(finder):
            out = []
            for tag_id in finder.known_tags():
                fix = finder.locate(tag_id)
                position = tuple(fix.position_m)
                out.append((tag_id, fix.timestamp_s, fix.station, fix.cell, position))
            return out

        local_mesh = chain_mesh("push", seed=7)
        local = local_mesh.subscribe(CarFinder())
        local_mesh.run(10.0)
        forked_mesh = chain_mesh("push", seed=7)
        forked = forked_mesh.subscribe(CarFinder())
        run_sharded(forked_mesh, 10.0, workers=2)
        assert local.known_tags()
        assert local.known_tags() == forked.known_tags()
        assert fixes(local) == fixes(forked)


class TestLoudWorkers:
    def test_dead_worker_names_its_groups_and_quantum(self, monkeypatch):
        advance = _ShardGroup.advance

        def dying_advance(self, t_s, intents):
            if t_s > 1.0:
                os._exit(3)
            return advance(self, t_s, intents)

        monkeypatch.setattr(_ShardGroup, "advance", dying_advance)
        mesh = downtown_grid(1, 2, rng=3)
        with pytest.raises(RuntimeError) as excinfo:
            run_sharded(mesh, 2.0, workers=2)
        message = str(excinfo.value)
        assert "st00a0" in message
        assert "1.25" in message
        assert "exit code 3" in message

    def test_one_dead_worker_does_not_hang_the_survivor(self, monkeypatch):
        """Only one group's worker dies; the other is left waiting for
        its next message. The coordinator must still hang up on it, join
        it and surface the loud error."""
        advance = _ShardGroup.advance
        mesh = downtown_grid(1, 2, rng=3)
        doomed = sorted(mesh.edges)[-1]

        def dying_advance(self, t_s, intents):
            if self.key == doomed and t_s > 1.0:
                os._exit(3)
            return advance(self, t_s, intents)

        monkeypatch.setattr(_ShardGroup, "advance", dying_advance)
        with pytest.raises(RuntimeError) as excinfo:
            run_sharded(mesh, 2.0, workers=2)
        message = str(excinfo.value)
        assert doomed in message
        assert "1.25" in message
        assert "exit code 3" in message


class TestDowntownGrid:
    def test_grid_shape(self):
        mesh = downtown_grid(3, 4, rng=0)
        assert len(mesh.edges) == 12
        # Paired avenues share junctions: 2 junction rows x 2 pairs.
        assert len(mesh.nodes) == 4
        # One traffic source per avenue.
        assert len(mesh._sources) == 4

    def test_single_block_grid_runs(self):
        result = run_sharded(
            downtown_grid(1, 2, rng=3), 2.0, workers=2, in_process=True
        )
        assert result.duration_s == 2.0

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            downtown_grid(0, 1)
