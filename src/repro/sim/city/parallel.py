"""The mesh engine: one shard per corridor edge, on sync quanta.

:meth:`CityMesh.run <repro.sim.city.mesh.CityMesh.run>` and
:func:`run_sharded` are one engine — ``mesh.run(d)`` is
``run_sharded(mesh, d, workers=1, in_process=True)``. It can spread a
city over worker processes because of two structural facts the mesh
guarantees:

* **Every edge is its own ether.** :class:`~repro.sim.city.mesh.CityMesh`
  validates its layout: an edge spans at most the mesh's interference
  range, and edge frames sit farther apart than that range plus twice
  the reader range, so no query, response or overheard window on one
  edge reaches another. A shard is therefore one edge, run on its
  corridor's own air log, response pool and ledger; shards are built
  in sorted edge order.
* **Car motion is radio-free.** A routed car's every entry/exit time
  depends only on its draw (route, speed, lane), the intersection
  signals, and the release headway — never on what the readers decoded.
  The coordinator therefore *precomputes the complete itinerary* on a
  private scheduler and hands each shard its cars up front: one
  :class:`~repro.sim.city.moving.MovingTag` per edge a car drives,
  whose trajectory starts at the edge's entry point at the entry time.
  The shard's corridor plants their cell crossings when it is primed.

What cannot be sharded is the *coupling that remains*: the city-wide
:class:`~repro.sim.city.directory.IdentityDirectory` (bounded and
aging — eviction couples tags globally) and the predictive push handoff
(a sighting on one edge plants a cache entry on another). Both run on
the coordinator at **rendezvous barriers**: simulation advances in
fixed sync quanta; at each barrier every shard surrenders the sightings
of its quantum (and, when services are subscribed, the observations),
and the coordinator replays them in canonical order — ``(t_s, edge,
arrival index)`` — over the backhaul plane into the one directory, the
sighting taps and the push predictor, and into ``mesh.services``. The
resulting push intents reach their target shards at the start of the
next quantum: **a push lands on a quantum boundary**, up to one
quantum after the sighting that triggered it (the quantum is well
below the seconds a car needs to reach the next pole, so the entry is
still planted ahead of arrival).

**The determinism contract** (see ``docs/PERFORMANCE.md``): the same
seed gives the same bytes at any worker count, forked or in-process.
Every run executes the identical per-shard protocol (per-edge RNG
streams seeded from ``mesh.rng`` in sorted edge order, identical
quanta, identical barrier replay), so ``mesh.run``, ``workers=2`` and
``workers=8`` produce bit-for-bit the same merged ledger, directory,
service state and :meth:`MeshResult.summary`.

Merged results are canonical, not concatenated: sighting records from
all shards are replayed into one fresh
:class:`~repro.sim.city.handoff.HandoffLedger` in global time order so
``decode`` vs ``redecode`` is re-classified with *city-wide* knowledge
(a shard alone cannot know a tag was first decoded two corridors away);
per-shard metrics registries merge in sorted edge order.

Observability: in-process shards record straight into ``mesh.obs``,
sim-time trace spans included, so every station's rounds land on its
own track. Forked shards record into hooks minted by
``shard_obs_factory``; their registries merge into ``mesh.obs`` after
the run and their traces stay in the worker.

This module is the **only** place in ``src/`` allowed to import
``multiprocessing`` (the ``parallel-policy`` analyzer enforces it).
Workers are forked, so shard objects cross by memory inheritance and
only plain data (sighting tuples, observations, push intents) and the
final per-shard payloads travel the pipes.
"""

from __future__ import annotations

import heapq
import multiprocessing
import traceback
from operator import attrgetter

import numpy as np

from ...constants import TAG_HEIGHT_M
from ...errors import ConfigurationError
from ..events import EventScheduler
from ..mobility import ConstantSpeedTrajectory
from .handoff import HandoffLedger
from .mesh import CityMesh, MeshResult
from .moving import MovingTag

__all__ = ["run_sharded"]

#: Rendezvous quantum: directory replay and push delivery happen at this
#: cadence. Well below the seconds a car needs between poles (~40 m at
#: city speeds), so a one-quantum push delay still plants the entry
#: ahead of arrival; identical for every worker count by construction,
#: so it never breaks invariance — only push timing.
SYNC_QUANTUM_S = 0.25

_T_S = attrgetter("t_s")


# -- the itinerary (coordinator-side car motion) ---------------------------


def _plan_itinerary(mesh: CityMesh, duration_s: float) -> dict[str, list[MovingTag]]:
    """Precompute every edge entry of the run, as each edge's cars.

    Draws the cars (``CityMesh._draw_cars``, the itinerary's only
    ``mesh.rng`` consumer) and runs their entry/exit and intersection
    release (:meth:`CityMesh._release`) on a private ghost scheduler
    that touches no corridor. Each entry becomes a tag on the entered
    edge, in entry order, riding from the edge's entry point at the
    car's speed and lane from the entry time on. The mesh's
    ``cars_injected`` / ``cars_transferred`` / ``cars_departed``
    counters and ``mesh.car`` obs counts are produced here.
    """
    cars: dict[str, list[MovingTag]] = {name: [] for name in mesh.edges}
    ghost = EventScheduler()

    def make_entry(car):
        def enter(scheduler: EventScheduler) -> None:
            now_s = scheduler.now_s
            edge = mesh.edges[car.route[car.leg]]
            trajectory = ConstantSpeedTrajectory(
                start_m=np.array([edge.entry_x_m, car.lane_y_m, TAG_HEIGHT_M]),
                velocity_m_s=np.array([car.speed_m_s, 0.0, 0.0]),
                t0_s=now_s,
            )
            cars[edge.name].append(
                MovingTag(transponder=car.transponder, trajectory=trajectory)
            )
            mesh.cars_injected += 1
            if mesh.obs is not None:
                mesh.obs.count("mesh.car", kind="injected", edge=edge.name)
            t_exit = now_s + (edge.exit_x_m - edge.entry_x_m) / car.speed_m_s
            if t_exit <= duration_s:
                scheduler.schedule(t_exit, make_exit(car, edge), "car-exit")

        return enter

    def make_exit(car, edge):
        def exit_edge(scheduler: EventScheduler) -> None:
            car.leg += 1
            if car.leg >= len(car.route):
                mesh.cars_departed += 1
                if mesh.obs is not None:
                    mesh.obs.count("mesh.car", kind="departed", edge=edge.name)
                return
            node = mesh.nodes[edge.dst]
            depart_s = mesh._release(node, scheduler.now_s)
            if depart_s <= duration_s:
                mesh.cars_transferred += 1
                if mesh.obs is not None:
                    mesh.obs.count("mesh.car", kind="transferred", edge=edge.name)
                scheduler.schedule(depart_s, make_entry(car), "car-enter")

        return exit_edge

    for car, t_arrival in mesh._draw_cars(duration_s):
        ghost.schedule(t_arrival, make_entry(car), "car-enter")
    ghost.run_until(duration_s)
    return cars


# -- shards ----------------------------------------------------------------


class _ShardGroup:
    """One corridor edge: its own scheduler, ether and ledger.

    Built by the coordinator *before* forking, so workers inherit the
    fully-wired shard by memory. The edge's corridor receives the
    edge's cars from the itinerary and is primed with them; it keeps
    its own air log, response pool and handoff ledger (the ledger is
    re-classified city-wide at merge). The shard rewires only:

    * a per-edge RNG stream (one ``Generator`` shared by the corridor,
      its waveform bank and every station source);
    * the obs hook the run hands it (``mesh.obs`` in-process, a minted
      per-shard hook or None when forked), rewired into the air log,
      the pool, and every station's MAC and §5 counter;
    * an ``on_sighting`` hook, and a stand-in for ``mesh.services`` when
      any are subscribed, that *buffer* into the outbox instead of
      reporting — the directory and the services live with the
      coordinator.
    """

    def __init__(
        self,
        mesh: CityMesh,
        edge,
        cars: list[MovingTag],
        seed: int,
        duration_s: float,
        obs=None,
    ) -> None:
        self.key = edge.name
        self.edge = edge
        self.obs = obs
        corridor = edge.corridor
        self.ledger = corridor.ledger
        self.scheduler = EventScheduler(obs=obs)
        self.outbox: list[tuple] = []
        self._stations = {station.name: station for station in corridor.stations}
        rng = np.random.default_rng(seed)
        corridor.rng = rng
        corridor.air.obs = obs
        corridor.pool.obs = obs
        corridor.obs = obs
        corridor._station_obs = {
            name: None if obs is None else obs.labeled(station=name)
            for name in self._stations
        }
        corridor.on_sighting = self._buffer_sighting
        corridor.services = [self] if mesh.services else []
        for station in corridor.stations:
            station.source.rng = rng
            station.source.bank.rng = rng
            for part in station.observed_parts():
                part.obs = corridor._station_obs[station.name]
        corridor.tags.extend(cars)
        corridor.prime(self.scheduler, duration_s)

    def _post(self, t_s: float, item) -> None:
        # (t_s, arrival index, item): the index is the canonical
        # within-shard tie-breaker the coordinator sorts replays by.
        self.outbox.append((float(t_s), len(self.outbox), item))

    def _buffer_sighting(
        self,
        corridor,
        station,
        tag_id,
        cfo_hz,
        t_s,
        x_m,
        localized,
        kind="own",
        n_queries=0,
    ) -> None:
        # A sighting is a tuple: BackhaulPlane.submit's arguments after t_s.
        self._post(
            t_s,
            (
                corridor.name,
                station.name,
                int(tag_id),
                float(cfo_hz),
                float(x_m),
                bool(localized),
                str(kind),
                int(n_queries),
            ),
        )

    def observe(self, observation) -> None:
        """The corridors' service hook: buffer the observation for the
        coordinator's replay into ``mesh.services``."""
        self._post(observation.timestamp_s, observation)

    def advance(self, t_s: float, intents: list[tuple]) -> list[tuple]:
        """One quantum: apply delivered pushes, run, surrender the outbox."""
        self.apply_intents(intents)
        self.scheduler.run_until(t_s)
        reports, self.outbox = self.outbox, []
        return reports

    def apply_intents(self, intents: list[tuple]) -> None:
        """Plant coordinator-computed pushes.

        The "already knows / already pushed" check runs *here*, against
        the live shard caches — the coordinator's copies are stale by
        up to a quantum. An accepted push stores the cache entry at the
        push time, records a ledger push and counts ``mesh.push``.
        """
        for t_s, target_name, from_station, tag_id, cfo_hz, eta_s in intents:
            station = self._stations[target_name]
            if tag_id in station.identities or tag_id in station.pushed:
                continue
            station.receive_push(cfo_hz, tag_id, from_station=from_station, now_s=t_s)
            self.ledger.record_push(
                target_name, from_station, tag_id, t_s, cfo_hz, eta_s=eta_s
            )
            if self.obs is not None:
                self.obs.count("mesh.push", station=target_name)

    def finish_payload(self) -> dict:
        """Everything the coordinator's merge needs, pickle-friendly."""
        return {
            "key": self.key,
            "result": self.edge.corridor.finish(),
            "ledger": self.ledger,
            "pushed": {
                name: dict(station.pushed) for name, station in self._stations.items()
            },
            "metrics": None if self.obs is None else self.obs.metrics,
            "events_processed": self.scheduler.processed,
        }


# -- hosts -----------------------------------------------------------------


def _handle(groups: list[_ShardGroup], msg: tuple) -> tuple:
    """One protocol step over a host's groups; returns the reply.

    ``("advance", t_s, intents)`` plants the delivered pushes and runs
    every group to ``t_s``; ``("finish", intents)`` plants the last
    quantum's pushes and collects the groups' results.
    """
    if msg[0] == "advance":
        _, t_s, intents_by_group = msg
        reports = []
        for group in groups:
            out = group.advance(t_s, intents_by_group.get(group.key, []))
            reports.extend((group.key,) + r for r in out)
        return ("reports", reports)
    if msg[0] == "finish":
        _, intents_by_group = msg
        for group in groups:
            group.apply_intents(intents_by_group.get(group.key, []))
        return ("result", [g.finish_payload() for g in groups])
    raise RuntimeError(f"unknown message {msg[0]!r}")  # pragma: no cover


def _worker_main(groups: list[_ShardGroup], conn, inherited: list) -> None:
    """Worker loop: lockstep with the coordinator over one pipe.

    ``inherited`` are the coordinator-side pipe ends the fork copied
    into this process (its own and those of hosts started before it).
    They are closed first: otherwise this process holds its own pipe
    open and never sees the coordinator hang up.
    """
    for parent_end in inherited:
        parent_end.close()
    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                return  # the coordinator hung up (it failed elsewhere)
            conn.send(_handle(groups, msg))
            if msg[0] == "finish":
                return
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:
            pass  # the coordinator already hung up


def _describe(msg: tuple) -> str:
    if msg[0] == "advance":
        return f"advancing to the t={msg[1]:g} s quantum boundary"
    return "collecting its results"


class _ForkedHost:
    """N groups hosted in a forked process, driven over a pipe."""

    def __init__(self, ctx, groups: list[_ShardGroup], started: list) -> None:
        self.groups = groups
        self.conn, child = ctx.Pipe()
        inherited = [self.conn] + [host.conn for host in started]
        self.process = ctx.Process(
            target=_worker_main, args=(groups, child, inherited), daemon=True
        )
        self.process.start()
        child.close()
        self._pending: tuple = ("start",)

    def send(self, msg) -> None:
        self._pending = msg
        self.conn.send(msg)

    def recv(self):
        keys = ", ".join(g.key for g in self.groups)
        try:
            reply = self.conn.recv()
        except EOFError:
            self.process.join()
            raise RuntimeError(
                f"shard worker for groups [{keys}] died (exit code "
                f"{self.process.exitcode}) while {_describe(self._pending)}"
            ) from None
        if reply[0] == "error":
            self.process.join()
            raise RuntimeError(
                f"shard worker for groups [{keys}] failed while "
                f"{_describe(self._pending)}:\n{reply[1]}"
            )
        return reply

    def close(self) -> None:
        # Hang up first, so a worker still waiting for its next message
        # exits instead of blocking the join.
        self.conn.close()
        self.process.join()


class _LocalHost:
    """The same protocol without a fork: groups run inline in the
    coordinator process. Identical results by construction — shards are
    isolated objects and the message sequence is the same."""

    def __init__(self, groups: list[_ShardGroup]) -> None:
        self.groups = groups
        self._reply = None

    def send(self, msg) -> None:
        self._reply = _handle(self.groups, msg)

    def recv(self):
        reply, self._reply = self._reply, None
        return reply

    def close(self) -> None:
        pass


# -- the coordinator -------------------------------------------------------


def _quantum_boundaries(duration_s: float, quantum_s: float) -> list[float]:
    ts = []
    k = 1
    while k * quantum_s < duration_s - 1e-9:
        ts.append(k * quantum_s)
        k += 1
    ts.append(float(duration_s))
    return ts


def run_sharded(
    mesh: CityMesh,
    duration_s: float,
    *,
    workers: int = 2,
    in_process: bool = False,
    shard_obs_factory=None,
) -> MeshResult:
    """Run a built (un-run) mesh, one shard per corridor edge.

    :meth:`CityMesh.run` is this call with ``workers=1,
    in_process=True``; every worker count gives the same bytes (see the
    module docstring). The mesh instance is consumed — build a fresh
    mesh per run.

    Args:
        mesh: a fully built :class:`CityMesh` that has not run.
        duration_s: simulated seconds.
        workers: forked worker processes; shards are dealt round-robin
            in sorted edge order. Capped at the number of edges.
        in_process: host every shard in the coordinator process —
            same protocol, same results, no fork (what
            :meth:`CityMesh.run` does; also platforms without
            ``fork``). Shards record straight into ``mesh.obs``, trace
            spans included.
        shard_obs_factory: zero-arg callable minting one fresh obs hook
            per shard of a *forked* run (e.g. ``Obs``). Library
            code may not construct hooks itself (the obs-policy
            contract), so forked per-shard instrumentation is opt-in:
            without a factory forked shards run unobserved and only
            coordinator-side series (directory, car counts, backhaul)
            land in ``mesh.obs``. With one, shard registries merge into
            ``mesh.obs.metrics`` after the run, in sorted edge order.
            Ignored in-process and when ``mesh.obs`` is None.
    """
    if mesh._ran:
        raise ConfigurationError("a CityMesh instance runs once; build a fresh one")
    if not mesh.edges:
        raise ConfigurationError("a mesh needs at least one edge")
    if workers < 1:
        raise ConfigurationError("need at least one worker")
    duration_s = float(duration_s)
    mesh._ran = True
    mesh._predicted_next = mesh._turn_policy()

    # The itinerary consumes mesh.rng first; per-edge stream seeds are
    # drawn after it, in sorted edge order — both independent of worker
    # count.
    cars = _plan_itinerary(mesh, duration_s)
    edge_seeds = {
        name: int(mesh.rng.integers(np.iinfo(np.int64).max))
        for name in sorted(mesh.edges)
    }

    def shard_obs():
        if in_process:
            return mesh.obs
        if mesh.obs is None or shard_obs_factory is None:
            return None
        return shard_obs_factory()

    groups = [
        _ShardGroup(
            mesh, mesh.edges[name], cars[name], seed, duration_s, obs=shard_obs()
        )
        for name, seed in edge_seeds.items()
    ]
    # One shard per edge, so a station's shard key is its edge's name.
    station_edge = {
        station.name: edge.name
        for edge in mesh.edges.values()
        for station in edge.corridor.stations
    }

    workers = min(int(workers), len(groups))
    if in_process:
        hosts = [_LocalHost(groups)]
    else:
        ctx = multiprocessing.get_context("fork")
        # workers is capped at len(groups), so every host gets >= 1 shard.
        hosts = []
        for w in range(workers):
            dealt = [g for i, g in enumerate(groups) if i % workers == w]
            hosts.append(_ForkedHost(ctx, dealt, hosts))

    # The backhaul plane is coordinator-owned — one set of links for the
    # whole city, fed by the canonical-order replay below, so delivery
    # stays worker-count invariant. A push that reached its pole's side
    # of the link waits here for the owning shard's next quantum (the
    # shard re-checks its live cache before planting).
    push_sink: dict[str, list[tuple]] = {}

    def queue_push(intent: tuple, now_s: float) -> None:
        target_name, from_station, tag_id, cfo_hz, _t_emit, eta_s = intent
        push_sink.setdefault(station_edge[target_name], []).append(
            (float(now_s), target_name, from_station, tag_id, cfo_hz, eta_s)
        )

    plane = mesh._build_plane(queue_push)
    mesh._plane = plane

    def replay(reports: list[tuple], t_end_s: float) -> dict[str, list[tuple]]:
        """Feed one quantum's outbox in canonical order: sightings over
        the backhaul plane (directory, taps, push decisions),
        observations into ``mesh.services``; then advance the plane's
        links to the quantum boundary. Returns the pushes that reached
        their poles, by target shard."""
        reports.sort(key=lambda r: (r[1], r[0], r[2]))
        for _, t_s, _, item in reports:
            if isinstance(item, tuple):
                plane.submit(t_s, *item)
            else:
                for service in mesh.services:
                    service.observe(item)
        plane.advance(t_end_s)
        intents = dict(push_sink)
        push_sink.clear()
        return intents

    try:
        intents_by_group: dict[str, list[tuple]] = {}
        for t_s in _quantum_boundaries(duration_s, SYNC_QUANTUM_S):
            for host in hosts:
                host.send(("advance", t_s, intents_by_group))
            reports = []
            for host in hosts:
                reports.extend(host.recv()[1])
            intents_by_group = replay(reports, t_s)
        # The convergence flush delivers every still-buffered batch
        # before results are taken (pushes are suppressed — the run is
        # over). A no-op when wired.
        plane.final_flush(duration_s)
        # Pushes triggered by the final quantum's sightings are still
        # planted (they become push misses in the merge's sweep).
        for host in hosts:
            host.send(("finish", intents_by_group))
        payloads = {}
        for host in hosts:
            for payload in host.recv()[1]:
                payloads[payload["key"]] = payload
    finally:
        for host in hosts:
            host.close()

    return _merge(mesh, payloads, duration_s, workers, groups, station_edge)


def _merge(
    mesh: CityMesh,
    payloads: dict[str, dict],
    duration_s: float,
    workers: int,
    groups: list[_ShardGroup],
    station_edge: dict[str, str],
) -> MeshResult:
    """Rebuild the mesh-wide result from per-edge payloads, canonically.

    The merged ledger is a *replay*, not a concatenation: sighting
    records stream in global ``(t_s, edge, local index)`` order through
    a fresh ledger so decode/redecode classification sees city-wide
    knowledge (:meth:`HandoffLedger.adopt` appends a shard's own record
    whenever its kind holds). The push-miss sweep then records every
    pushed entry no sighting consumed (edge order, station order, sorted
    tag ids): the car turned off-route, parked, or the run ended first.
    Every per-edge result and corridor is re-pointed at the merged
    ledger, so all edges share the one mesh-wide ledger and no shard
    ledger outlives the merge.
    """
    merged = HandoffLedger()
    ordered_keys = sorted(payloads)

    def in_time_order(attr):
        # Each shard's rows sorted stably by time, merged lazily in edge
        # order: global (t_s, edge, local index) order, with no per-row
        # sort key built.
        return heapq.merge(
            *(
                sorted(getattr(payloads[key]["ledger"], attr), key=_T_S)
                for key in ordered_keys
            ),
            key=_T_S,
        )

    for rec in in_time_order("records"):
        merged.adopt(rec)
    merged.pushes.extend(in_time_order("pushes"))
    merged.push_misses.extend(in_time_order("push_misses"))
    for attr in ("cell_entries", "cell_exits"):
        rows = []
        for key in ordered_keys:
            rows.extend(getattr(payloads[key]["ledger"], attr))
        getattr(merged, attr).extend(sorted(rows))

    # The speculative-push sweep.
    for edge_name, edge in mesh.edges.items():
        pushed = payloads[edge_name]["pushed"]
        for station in edge.corridor.stations:
            leftovers = pushed.get(station.name, {})
            for tag_id in sorted(leftovers):
                from_station, cfo_hz, t_push = leftovers[tag_id]
                merged.record_push_miss(
                    station.name, from_station, tag_id, t_push, cfo_hz
                )

    edges = {}
    for edge_name, edge in mesh.edges.items():
        result = payloads[edge_name]["result"]
        result.ledger = merged
        edge.corridor.ledger = merged
        edges[edge_name] = result

    if mesh.obs is not None:
        for key in ordered_keys:
            metrics = payloads[key]["metrics"]
            # In-process shards recorded straight into mesh.obs.
            if metrics is not None and metrics is not mesh.obs.metrics:
                mesh.obs.metrics.merge(metrics)

    result = MeshResult(
        duration_s=duration_s,
        handoff=mesh.handoff,
        edges=edges,
        ledger=merged,
        directory=mesh.directory.summary(),
        backhaul=mesh._plane.summary(),
        station_edge=station_edge,
        cars_injected=mesh.cars_injected,
        cars_transferred=mesh.cars_transferred,
        cars_departed=mesh.cars_departed,
        responses=sum(r.responses for r in edges.values()),
        corrupted_responses=sum(r.corrupted_responses for r in edges.values()),
        workers=workers,
        groups=tuple((group.key,) for group in groups),
        events_processed={
            key: payloads[key]["events_processed"] for key in ordered_keys
        },
    )
    mesh.ledger = merged
    mesh.cross_corridor_stats(result, station_edge)
    return result
