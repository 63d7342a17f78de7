"""Unit tests for repro.obs: registry, tracer, report validation, and
the determinism contract (same-seed runs snapshot byte-identically;
disabled obs changes nothing)."""

import json

import pytest

from repro.obs import MetricsRegistry, Obs, SpanTracer, TraceError
from repro.obs.report import main as report_main, validate_metrics, validate_trace
from repro.sim.city import CityCorridor, CityMesh, downtown_grid, run_sharded
from repro.sim.scenario import city_corridor_scene
from repro.sim.traffic import TrafficLight

LANES = (-1.75, -5.25)


def small_corridor(seed=17, obs=None):
    scene, trajectories = city_corridor_scene(
        n_poles=3,
        pole_spacing_m=35.0,
        n_cars=5,
        speed_range_m_s=(10.0, 16.0),
        entry_window_s=1.5,
        rng=seed,
    )
    return CityCorridor.build(
        scene, trajectories, lane_ys_m=LANES, rng=seed, max_queries=16, obs=obs
    )


def chain_mesh(seed=7, obs=None):
    mesh = CityMesh(rng=seed, handoff="push", obs=obs)
    mesh.add_node("u", light=TrafficLight(green_s=8.0, yellow_s=1.0, red_s=4.0))
    mesh.add_edge("A", dst="u", n_poles=2)
    mesh.add_edge("B", src="u", n_poles=2)
    mesh.add_traffic(
        [(("A", "B"), 1.0)], rate_per_s=0.5, speed_range_m_s=(10.0, 16.0)
    )
    return mesh


class TestMetricsRegistry:
    def test_counter_labels_make_distinct_series(self):
        reg = MetricsRegistry()
        reg.inc("air.query", station="p0")
        reg.inc("air.query", station="p0")
        reg.inc("air.query", station="p1")
        assert reg.counter("air.query", station="p0") == 2
        assert reg.counter("air.query", station="p1") == 1
        assert reg.counter("air.query") == 0  # unlabelled is its own series
        assert reg.total("air.query") == 3

    def test_gauge_overwrites(self):
        reg = MetricsRegistry()
        reg.set_gauge("pool.depth", 3)
        reg.set_gauge("pool.depth", 1)
        assert reg.snapshot()["gauges"] == {"pool.depth": 1}

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        for v in (0.001, 0.0015, 0.004, 2.0):
            reg.observe("round.duration_s", v)
        (summary,) = reg.snapshot()["histograms"].values()
        assert summary["count"] == 4
        assert summary["sum"] == pytest.approx(2.0065)
        assert summary["min"] == 0.001
        assert summary["max"] == 2.0
        assert sum(summary["buckets"].values()) == 4
        # 1-2-5 ladder: 0.001 lands in le_0.001, 0.0015 in le_0.002.
        assert summary["buckets"]["le_0.001"] == 1
        assert summary["buckets"]["le_0.002"] == 1

    def test_snapshot_key_rendering_sorted(self):
        reg = MetricsRegistry()
        reg.inc("m", station="p1", outcome="ok")
        keys = list(reg.snapshot()["counters"])
        assert keys == ["m{outcome=ok, station=p1}"]  # labels sorted

    def test_snapshot_json_independent_of_insertion_order(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("x")
        a.inc("y", kind="q")
        b.inc("y", kind="q")
        b.inc("x")
        assert a.snapshot_json() == b.snapshot_json()

    def test_write_round_trips(self, tmp_path):
        reg = MetricsRegistry()
        reg.inc("x", 3)
        path = tmp_path / "metrics.json"
        reg.write(path)
        assert json.loads(path.read_text())["counters"] == {"x": 3}

    def test_merge_adds_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("air.query", 2, station="p0")
        b.inc("air.query", 3, station="p0")
        b.inc("air.query", station="p1")
        a.observe("round.duration_s", 0.001)
        b.observe("round.duration_s", 2.0)
        b.observe("round.duration_s", 0.004)
        a.merge(b)
        assert a.counter("air.query", station="p0") == 5
        assert a.counter("air.query", station="p1") == 1
        (summary,) = a.snapshot()["histograms"].values()
        assert summary["count"] == 3
        assert summary["min"] == 0.001
        assert summary["max"] == 2.0
        assert sum(summary["buckets"].values()) == 3

    def test_merge_gauges_last_writer_wins(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.set_gauge("pool.depth", 3)
        b.set_gauge("pool.depth", 7)
        a.merge(b)
        assert a.snapshot()["gauges"] == {"pool.depth": 7}

    def test_merge_of_shards_matches_shared_registry(self):
        # The worker-aggregation contract: shard registries merged in a
        # fixed order snapshot identically to one shared registry.
        shared = MetricsRegistry()
        shards = [MetricsRegistry() for _ in range(3)]
        for i, shard in enumerate(shards):
            for reg in (shard, shared):
                reg.inc("air.query", i + 1, station=f"p{i}")
                reg.observe("round.duration_s", 0.001 * (i + 1), station=f"p{i}")
        merged = MetricsRegistry()
        for shard in shards:
            merged.merge(shard)
        assert merged.snapshot_json() == shared.snapshot_json()

    def test_merge_into_empty_is_a_copy(self):
        src = MetricsRegistry()
        src.inc("x", 2)
        src.set_gauge("g", 1.5)
        src.observe("h", 0.5)
        dst = MetricsRegistry()
        dst.merge(src)
        assert dst.snapshot_json() == src.snapshot_json()

    def test_merge_into_itself_is_refused(self):
        reg = MetricsRegistry()
        reg.inc("x", 2)
        with pytest.raises(ValueError):
            reg.merge(reg)
        assert reg.counter("x") == 2


class TestPhaseTimerMerge:
    """PhaseTimer lives in the bench harness (the library never reads
    the wall clock), so load it by path rather than via the package."""

    @pytest.fixture
    def phase_timer_cls(self):
        import importlib.util
        from pathlib import Path

        path = Path(__file__).parent.parent / "benchmarks" / "bench_helpers.py"
        spec = importlib.util.spec_from_file_location("_bench_helpers_for_test", path)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod.PhaseTimer

    def test_merge_adds_seconds_and_counts(self, phase_timer_cls):
        a, b = phase_timer_cls(), phase_timer_cls()
        a._seconds, a._counts = {"count": 1.0}, {"count": 2}
        b._seconds, b._counts = {"count": 0.5, "decode": 2.0}, {"count": 1, "decode": 3}
        a.merge(b)
        taken = a.take()
        assert taken["phases"]["count"] == {
            "seconds": 1.5,
            "count": 3,
            "share": 1.5 / 3.5,
        }
        assert taken["phases"]["decode"]["count"] == 3

    def test_merge_order_independent(self, phase_timer_cls):
        shards = []
        for i in range(3):
            t = phase_timer_cls()
            t._seconds = {"count": float(i + 1), f"phase{i}": 0.25}
            t._counts = {"count": i + 1, f"phase{i}": 1}
            shards.append(t)
        merged = phase_timer_cls()
        for t in shards:
            merged.merge(t)
        reversed_merge = phase_timer_cls()
        for t in reversed(shards):
            reversed_merge.merge(t)
        assert merged.take() == reversed_merge.take()


class TestObsFacade:
    def test_labeled_view_shares_registry(self):
        obs = Obs()
        station = obs.labeled(station="p2")
        station.count("air.query")
        assert obs.metrics.counter("air.query", station="p2") == 1

    def test_labeled_merges_and_overrides(self):
        obs = Obs(labels={"station": "p0"})
        view = obs.labeled(station="p1")
        view.count("m", outcome="ok")
        assert view.labels == {"station": "p1"}
        assert obs.metrics.counter("m", station="p1", outcome="ok") == 1

    def test_station_label_names_the_default_track(self):
        obs = Obs(trace=True)
        obs.labeled(station="p3").span("round", 0.0, 0.5, outcome="clean")
        (event,) = obs.tracer.events
        assert event["cat"] == "p3"
        assert event["args"]["station"] == "p3"
        assert event["args"]["outcome"] == "clean"

    def test_tracing_disabled_by_default(self):
        obs = Obs()
        assert obs.tracer is None
        # Trace calls are no-ops, not errors.
        obs.begin("x", 0.0)
        obs.end(1.0)
        obs.span("y", 0.0, 1.0)
        obs.instant("z", 0.5)


class TestSpanTracer:
    def test_begin_end_nest_lifo(self):
        tracer = SpanTracer()
        tracer.begin("outer", 0.0, track="p0")
        tracer.begin("inner", 1.0, track="p0")
        tracer.end(2.0, track="p0")
        tracer.end(3.0, track="p0")
        inner, outer = tracer.events
        assert (inner["name"], inner["ts"], inner["dur"]) == ("inner", 1e6, 1e6)
        assert (outer["name"], outer["ts"], outer["dur"]) == ("outer", 0.0, 3e6)

    def test_tracks_do_not_interfere(self):
        tracer = SpanTracer()
        tracer.begin("a", 0.0, track="p0")
        tracer.begin("b", 0.0, track="p1")
        tracer.end(1.0, track="p0")
        tracer.end(2.0, track="p1")
        assert tracer.open_depth("p0") == 0 and tracer.open_depth("p1") == 0

    def test_end_without_begin_raises(self):
        with pytest.raises(TraceError, match="no open span"):
            SpanTracer().end(1.0)

    def test_time_reversed_end_raises(self):
        tracer = SpanTracer()
        tracer.begin("x", 5.0)
        with pytest.raises(TraceError, match="before start"):
            tracer.end(4.0)

    def test_time_reversed_span_raises(self):
        with pytest.raises(TraceError, match="before start"):
            SpanTracer().span("x", 2.0, 1.0)

    def test_export_with_unclosed_span_raises(self):
        tracer = SpanTracer()
        tracer.begin("x", 0.0)
        with pytest.raises(TraceError, match="unclosed"):
            tracer.to_chrome()

    def test_chrome_export_shape(self):
        tracer = SpanTracer()
        tracer.span("round", 0.0, 0.25, track="p0", outcome="clean")
        tracer.instant("identified", 0.1, track="p0", tag=7)
        doc = tracer.to_chrome()
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert meta[0]["args"]["name"] == "p0"
        span = next(e for e in doc["traceEvents"] if e["ph"] == "X")
        assert span["dur"] == 0.25e6
        instant = next(e for e in doc["traceEvents"] if e["ph"] == "i")
        assert instant["s"] == "t"
        assert validate_trace(doc) == []

    def test_timeline_text(self):
        tracer = SpanTracer()
        tracer.span("round", 0.0, 0.5, track="p0")
        text = tracer.timeline()
        assert "1 event(s) on 1 track(s)" in text
        assert "round" in text and "p0" in text

    def test_timeline_clips(self):
        tracer = SpanTracer()
        for i in range(5):
            tracer.instant("tick", float(i))
        assert "... 2 more event(s)" in tracer.timeline(max_rows=3)


class TestCarrierSenseCounts:
    def test_one_verdict_per_decision_not_per_probe(self):
        """``mac.carrier_sense`` counts the decisions a reader acts on,
        not the candidate times ``ReaderMac.next_opportunity`` probes:
        every deferral is one ``defer``, and every query sent is one
        ``allow`` unless it went out after a burst deferral."""
        scene, trajectories = city_corridor_scene(
            n_poles=8,
            pole_spacing_m=25.0,
            lane_ys_m=LANES,
            n_cars=40,
            entry="stream",
            entry_window_s=2.0,
            rng=2025,
        )
        obs = Obs()
        corridor = CityCorridor.build(
            scene,
            trajectories,
            lane_ys_m=LANES,
            rng=3,
            scheduling="event",
            max_queries=32,
            opportunistic="accept",
            obs=obs,
        )
        result = corridor.run(3.0)
        counters = obs.metrics.snapshot()["counters"]

        def total(name, label):
            return sum(
                v for key, v in counters.items() if key.startswith(name + "{") and label in key
            )

        deferrals = obs.metrics.total("mac.deferral")
        assert deferrals > 100
        assert total("mac.carrier_sense", "outcome=defer") == deferrals
        assert (
            total("mac.carrier_sense", "outcome=allow")
            + total("mac.deferral", "context=burst")
            == result.queries_sent
        )


class TestBoundedSeries:
    def test_scheduler_and_air_series_do_not_grow_with_run_length(self):
        """Scheduler events count by kind and air records by reader,
        never by car: a 32 s downtown run, four times the cars of an
        8 s one, registers the same ``scheduler.*`` series, and its
        ``air.*`` series are the mesh's readers' (the short run's poles
        that no car has reached yet have no responses)."""
        runs = {}
        for duration_s in (8.0, 32.0):
            obs = Obs()
            mesh = downtown_grid(2, 2, rng=7, rate_per_s=0.5, obs=obs)
            result = mesh.run(duration_s)
            counters = obs.metrics.snapshot()["counters"]
            runs[duration_s] = (
                result.cars_injected,
                {key for key in counters if key.startswith("scheduler.")},
                {key for key in counters if key.startswith("air.")},
            )
        readers = {
            f"air.{kind}{{source={station.name}}}"
            for edge in mesh.edges.values()
            for station in edge.corridor.stations
            for kind in ("query", "response")
        }
        (short_cars, short_sched, short_air) = runs[8.0]
        (long_cars, long_sched, long_air) = runs[32.0]
        assert long_cars > 3 * short_cars
        assert short_sched == long_sched == {
            f"scheduler.{what}{{kind={kind}}}"
            for what in ("scheduled", "processed")
            for kind in ("attempt", "retry", "process", "transition")
        }
        assert short_air <= long_air == readers


class TestReportValidation:
    def test_validate_trace_rejects_malformed(self):
        assert validate_trace([]) != []
        assert validate_trace({"traceEvents": [{"ph": "Q"}]}) != []
        assert validate_trace({"traceEvents": [{"name": "x", "ph": "X", "pid": 1, "tid": 1, "ts": 0.0}]}) != []  # missing dur

    def test_validate_metrics(self):
        assert validate_metrics({"counters": {}, "gauges": {}, "histograms": {}}) == []
        assert validate_metrics({"counters": {}}) != []
        assert validate_metrics([]) != []

    def test_report_check_cli(self, tmp_path, capsys):
        reg = MetricsRegistry()
        reg.inc("x")
        tracer = SpanTracer()
        tracer.span("round", 0.0, 1.0, track="p0")
        metrics_path, trace_path = tmp_path / "m.json", tmp_path / "t.json"
        reg.write(metrics_path)
        tracer.write(trace_path)
        rc = report_main(
            ["--check", "--metrics", str(metrics_path), "--trace", str(trace_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "valid metrics snapshot" in out and "valid trace" in out

    def test_report_check_fails_on_bad_trace(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"ph": "Q"}]}')
        assert report_main(["--check", "--trace", str(bad)]) == 1

    def test_report_render_cli(self, tmp_path, capsys):
        reg = MetricsRegistry()
        reg.inc("air.query", 4, station="p0")
        reg.observe("dwell_s", 0.5)
        path = tmp_path / "m.json"
        reg.write(path)
        assert report_main(["--metrics", str(path)]) == 0
        out = capsys.readouterr().out
        assert "air.query{station=p0}" in out and "count=1" in out


class TestDeterminism:
    def test_corridor_same_seed_snapshots_identical(self):
        runs = []
        for _ in range(2):
            obs = Obs(trace=True)
            small_corridor(seed=17, obs=obs).run(4.0)
            runs.append((obs.metrics.snapshot_json(), obs.tracer.to_json()))
        assert runs[0][0] == runs[1][0]  # metrics byte-identical
        assert runs[0][1] == runs[1][1]  # trace byte-identical
        # And the run actually recorded evidence.
        assert json.loads(runs[0][0])["counters"]
        assert len(json.loads(runs[0][1])["traceEvents"]) > 2

    def test_mesh_same_seed_snapshots_identical(self, tmp_path):
        runs = []
        files = []
        for k in range(2):
            obs = Obs(trace=True)
            chain_mesh(seed=7, obs=obs).run(10.0)
            runs.append((obs.metrics.snapshot_json(), obs.tracer.to_json()))
            metrics_path = tmp_path / f"metrics{k}.json"
            trace_path = tmp_path / f"trace{k}.json"
            obs.metrics.write(metrics_path)
            obs.tracer.write(trace_path)
            files.append((metrics_path.read_bytes(), trace_path.read_bytes()))
        assert runs[0] == runs[1]
        assert files[0] == files[1]  # exported files byte-identical
        assert json.loads(runs[0][0])["counters"]

    def test_mesh_run_metrics_equal_forked_shards(self):
        """In-process shards record straight into ``mesh.obs``; forked
        shards record into minted hooks merged after the run. Both give
        the same snapshot, and each car is counted once."""
        local_obs = Obs()
        local = chain_mesh(seed=7, obs=local_obs).run(10.0)
        forked_obs = Obs()
        run_sharded(
            chain_mesh(seed=7, obs=forked_obs),
            10.0,
            workers=2,
            shard_obs_factory=Obs,
        )
        injected = sum(
            local_obs.metrics.counter("mesh.car", kind="injected", edge=name)
            for name in ("A", "B")
        )
        assert local.cars_injected > 0
        assert injected == local.cars_injected
        assert local_obs.metrics.snapshot_json() == forked_obs.metrics.snapshot_json()

    def test_corridor_reports_counting_per_station(self):
        """Each station's §5 counter reports into its station-labelled
        view: passes, spike verdicts and work counts, byte-identical
        across same-seed runs."""
        snapshots = []
        for _ in range(2):
            obs = Obs()
            corridor = small_corridor(seed=17, obs=obs)
            corridor.run(4.0)
            snapshots.append(obs.metrics.snapshot_json())
        assert snapshots[0] == snapshots[1]
        counters = json.loads(snapshots[0])["counters"]
        stations = {station.name for station in corridor.stations}
        counting = [key for key in counters if key.startswith("count.")]
        for family in ("count.pass", "count.spike", "count.work"):
            assert any(key.startswith(family + "{") for key in counting), family
        for key in counting:
            assert any(f"station={name}}}" in key for name in stations), key
        assert not any(
            "kind=exp_samples" in key and "stage=refine" in key for key in counting
        )

    def test_corridor_reports_localization_per_station(self):
        """Each station's AoA estimator and lane localizer report into its
        station-labelled view: every readout reads the counter's fit
        basis, and scored lane candidates split by the phase gate —
        byte-identical across same-seed runs."""
        snapshots = []
        for _ in range(2):
            obs = Obs()
            corridor = small_corridor(seed=17, obs=obs)
            corridor.run(4.0)
            snapshots.append(obs.metrics.snapshot_json())
        assert snapshots[0] == snapshots[1]
        counters = json.loads(snapshots[0])["counters"]
        stations = {station.name for station in corridor.stations}
        readouts = [key for key in counters if key.startswith("aoa.readout{")]
        candidates = [key for key in counters if key.startswith("locate.candidates{")]
        assert readouts and all("probe=basis" in key for key in readouts)
        assert any("outcome=kept" in key for key in candidates)
        for key in readouts + candidates:
            assert any(f"station={name}}}" in key for name in stations), key

    def test_mesh_run_traces_rounds_on_every_station_track(self):
        obs = Obs(trace=True)
        mesh = chain_mesh(seed=7, obs=obs)
        mesh.run(10.0)
        stations = {s.name for e in mesh.edges.values() for s in e.corridor.stations}
        round_tracks = {
            event["cat"]
            for event in obs.tracer.to_chrome()["traceEvents"]
            if event.get("name") == "round"
        }
        assert round_tracks == stations

    def test_obs_does_not_perturb_simulation(self):
        # NaN summary fields (e.g. a mean over zero identifications)
        # serialize as the NaN token either way, so a string compare is
        # the honest bit-identity check.
        plain = small_corridor(seed=17).run(4.0)
        observed = small_corridor(seed=17, obs=Obs(trace=True)).run(4.0)
        dump = lambda r: json.dumps(r.summary(), sort_keys=True, default=str)
        assert dump(plain) == dump(observed)

    def test_obs_does_not_perturb_mesh(self):
        plain = chain_mesh(seed=7).run(10.0)
        observed = chain_mesh(seed=7, obs=Obs(trace=True)).run(10.0)
        dump = lambda r: json.dumps(r.summary(), sort_keys=True, default=str)
        assert dump(plain) == dump(observed)
