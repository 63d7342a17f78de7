"""The city mesh: a directed graph of corridors on one shared clock.

One :class:`~repro.sim.city.corridor.CityCorridor` is one street. A city
is a *graph* of streets: corridors (edges) meeting at intersections
(nodes), with cars routed edge-to-edge and every reader pole feeding the
same backend. :class:`CityMesh` is that layer:

* **One engine** — :meth:`CityMesh.run` is the sharded engine of
  :mod:`repro.sim.city.parallel` run in-process with one worker.
  Corridor frames are laid out along a global city axis: every edge fits
  inside ``interference_range_m`` (its poles share one street's ether)
  and frames sit more than that range plus radio slack apart (distant
  streets share the clock, not the ether). Both bounds are validated, so
  each edge is one shard on its own scheduler and its corridor's own air
  log, response pool and ledger, and the shards rendezvous every sync
  quantum for directory replay and push delivery. The same seed gives
  the same bytes at any worker count.
* **Routed traffic** — cars are injected by
  :class:`~repro.sim.traffic.PoissonArrivals` at an entry edge, follow
  a route of edges, and dwell at each intersection according to its
  :class:`~repro.sim.traffic.TrafficLight` (plus a saturation headway
  between released cars). Each leg is an ordinary
  :class:`~repro.sim.city.moving.MovingTag` on a
  :class:`~repro.sim.mobility.ConstantSpeedTrajectory`, admitted into
  the edge's corridor mid-run.
* **City-wide identity** — every resolved sighting is reported to the
  :class:`~repro.sim.city.directory.IdentityDirectory`, the bounded,
  aging fingerprint service above the per-pole caches; the edges'
  ledgers merge into one mesh-wide
  :class:`~repro.sim.city.handoff.HandoffLedger` that audits every
  sighting (so a re-decode is recognized as waste even when the first
  decode happened two corridors away).
* **Predictive push handoff** — under ``handoff="push"`` (the
  default), a pole whose sighting completes a §7 cross-pole speed
  estimate (:class:`~repro.core.speed.CrossPoleSpeedTracker`, fed
  through the directory) pushes the tag's cache entry to the predicted
  next pole — its downstream neighbor, or across the intersection to
  the first pole of the predicted successor edge — *ahead of arrival*
  (the push lands on the target pole at the next quantum boundary).
  The entered corridor's first pole then resolves the tag's first
  sighting from its own cache at zero decode queries and zero pull
  latency. ``handoff="pull"`` is the ablation: today's
  pull-at-sighting semantics, where a corridor boundary always costs a
  re-decode (the directory still records sightings for audit, but no
  entry moves ahead of a car).

Mis-pushes are first-class: the successor-edge prediction is a static
per-intersection policy (the backend does not know each car's route), so
a car that turns off-route leaves its pushed entry unconsumed — it ages
out of the target cache, the sweep at run end records a push miss on the
ledger, and the car simply re-decodes wherever it actually went.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from ...constants import READER_RANGE_M, TAG_HEIGHT_M
from ...errors import ConfigurationError
from ...utils import as_rng
from ..scenario import city_corridor_scene, make_tags
from ..traffic import PoissonArrivals, TrafficLight
from .backhaul import BackhaulConfig, BackhaulPlane
from .corridor import CityCorridor, CorridorResult, CorridorStation
from .directory import IdentityDirectory
from .handoff import DECODE, HANDOFF, OWN_HIT, PUSH, REDECODE, HandoffLedger

__all__ = ["MeshNode", "MeshEdge", "CityMesh", "MeshResult", "downtown_grid"]

#: Sighting kinds that attribute a tag id (the records the cross-corridor
#: analysis walks). Failures/deferrals carry no id and cannot mark entry.
_ATTRIBUTED = (OWN_HIT, HANDOFF, PUSH, DECODE, REDECODE)

#: Do not push for predicted arrivals further out than this (the entry
#: would age toward uselessness first).
PUSH_HORIZON_S = 60.0


@dataclass(frozen=True)
class MeshNode:
    """One intersection: where corridor edges meet.

    Attributes:
        name: stable identifier.
        light: the signal governing departure into the next edge; None
            means an uncontrolled intersection (cars roll through).
        headway_s: minimum spacing between consecutive cars released
            into the next edge (the saturation headway of
            :class:`~repro.sim.traffic.IntersectionSimulator`).
    """

    name: str
    light: TrafficLight | None = None
    headway_s: float = 2.0

    def departure_s(self, arrival_s: float) -> float:
        """When a car arriving at ``arrival_s`` may proceed (signal
        only; the per-node release queue adds the headway)."""
        if self.light is None or self.light.is_go(arrival_s):
            return arrival_s
        # Red is the last phase of the cycle, so a red arrival waits
        # exactly until the next cycle boundary (the green onset).
        into = (arrival_s - self.light.offset_s) % self.light.cycle_s
        return arrival_s + (self.light.cycle_s - into)


@dataclass
class MeshEdge:
    """One corridor edge of the mesh graph.

    Attributes:
        name: edge label; also the corridor's scope prefix (stations are
            ``"<name>/pole-k"``).
        src / dst: intersection names this edge runs from/to; None marks
            a mesh boundary (cars appear at ``src=None`` edges via
            traffic sources and vanish after a ``dst=None`` exit).
        corridor: the edge's :class:`CityCorridor`; the run drives it
            as one shard, on its own air log, pool and ledger.
        scene: the edge's deployment (global-frame coordinates).
    """

    name: str
    src: str | None
    dst: str | None
    corridor: CityCorridor
    scene: object

    @property
    def entry_x_m(self) -> float:
        return float(self.scene.road.x_min_m)

    @property
    def exit_x_m(self) -> float:
        return float(self.scene.road.x_max_m)

    @property
    def first_station(self) -> CorridorStation:
        return self.corridor.stations[0]

    @property
    def last_station(self) -> CorridorStation:
        return self.corridor.stations[-1]


@dataclass
class _TrafficSource:
    """Poisson car injection at one boundary edge."""

    arrivals: PoissonArrivals
    routes: list[tuple[tuple[str, ...], float]]
    speed_range_m_s: tuple[float, float]


@dataclass
class _RoutedCar:
    """One car working through its route of edges."""

    transponder: object
    route: tuple[str, ...]
    speed_m_s: float
    lane_y_m: float
    leg: int = 0


@dataclass
class MeshResult:
    """Everything one :meth:`CityMesh.run` produced.

    Per-edge numbers live in ``edges`` (each a
    :class:`~repro.sim.city.corridor.CorridorResult` of that edge's own
    air log and pool); ``ledger`` is the *shared* mesh-wide
    audit (every edge result references the same object). The
    cross-corridor fields measure the mesh's reason to exist: of the
    first sightings of a tag in a corridor it entered from another
    corridor, how many were resolved by a forwarded/pushed cache entry
    (``cross_resolved``) versus burned a re-decode
    (``cross_redecodes``) — and, for entries at the entered corridor's
    *first* pole, how many decode queries that first sighting cost
    (``first_pole_queries``; 0 for a push hit, the burst size for a
    re-decode). ``handoff`` records which policy ran: ``"push"``
    (predictive push) or ``"pull"`` (on-demand directory lookup), and
    ``backhaul`` is the run's
    :class:`~repro.sim.city.backhaul.BackhaulPlane` summary.

    How the engine was shaped rides alongside and stays out of
    :meth:`summary` (which is identical at any worker count):
    ``workers``, the shards ``groups`` (one 1-tuple of its edge name
    per edge, in sorted name order) and ``events_processed`` per edge
    (a deterministic work proxy the benches scale by).
    """

    duration_s: float
    handoff: str
    edges: dict[str, CorridorResult]
    ledger: HandoffLedger
    directory: dict
    backhaul: dict
    station_edge: dict[str, str]
    cars_injected: int
    cars_transferred: int
    cars_departed: int
    responses: int
    corrupted_responses: int
    workers: int
    groups: tuple
    events_processed: dict
    cross_entries: int = 0
    cross_resolved: int = 0
    cross_redecodes: int = 0
    first_pole_queries: list[int] = field(default_factory=list)

    @property
    def queries_sent(self) -> int:
        return sum(r.queries_sent for r in self.edges.values())

    @property
    def cross_resolution_rate(self) -> float:
        """Fraction of cross-corridor entries resolved without a
        re-decode (pushed or pulled cache entry)."""
        return self.cross_resolved / self.cross_entries if self.cross_entries else 0.0

    @property
    def mean_first_pole_queries(self) -> float:
        """Mean decode queries spent on a tag's first sighting at the
        entered corridor's first pole (the push-vs-pull headline)."""
        if not self.first_pole_queries:
            return float("nan")
        return float(np.mean(self.first_pole_queries))

    def summary(self) -> dict:
        """Headline numbers, JSON-friendly."""
        return {
            "duration_s": self.duration_s,
            "handoff": self.handoff,
            "cars_injected": self.cars_injected,
            "cars_transferred": self.cars_transferred,
            "cars_departed": self.cars_departed,
            "queries_sent": self.queries_sent,
            "responses": self.responses,
            "corrupted_responses": self.corrupted_responses,
            "cross_corridor": {
                "entries": self.cross_entries,
                "resolved": self.cross_resolved,
                "redecodes": self.cross_redecodes,
                "resolution_rate": self.cross_resolution_rate,
                "first_pole_sightings": len(self.first_pole_queries),
                "mean_first_pole_queries": self.mean_first_pole_queries,
            },
            "handoff_ledger": self.ledger.summary(),
            "directory": self.directory,
            "backhaul": self.backhaul,
            "edges": {name: r.summary() for name, r in self.edges.items()},
        }


class CityMesh:
    """A directed graph of reader corridors sharing one timeline.

    Build order: :meth:`add_node` the intersections, :meth:`add_edge`
    the corridors between them, :meth:`add_traffic` the arrival
    processes, then :meth:`run` once (like the corridor, an instance
    runs a single world — build a fresh mesh per run).

    Attributes:
        handoff: cross-pole identity policy — ``"push"`` (default:
            predictive push handoff; §7 speed estimates plant cache
            entries at the predicted next pole, across intersections)
            or ``"pull"`` (ablation: today's pull-at-sighting
            semantics — corridor-boundary sightings re-decode; the
            directory only audits). Within-corridor neighbor pull is
            active under both policies — push rides on top of it.
        directory: the city-wide identity service (a default-bounded
            :class:`IdentityDirectory`).
        interference_range_m: the layout bound that keeps each edge
            its own ether: the along-city distance beyond which
            transmitters are inaudible. Every edge must fit inside it
            (so all of a street's poles hear each other) and the frame
            gap must exceed it plus twice the reader range (so no two
            streets hear each other); both are validated here, and they
            are why the engine can run every edge on its own air log.
        frame_gap_m: spacing between consecutive edge frames on the
            global axis.
        backhaul: how pole↔directory traffic travels (see
            :mod:`repro.sim.city.backhaul`) — a policy name
            (``"wired"``, the default immediate delivery;
            ``"scheduled"`` / ``"mule"``) for that policy's defaults,
            or a full :class:`~repro.sim.city.backhaul.BackhaulConfig`.
            Under a batched policy every directory report, sighting tap
            and push intent rides a per-pole link, applied at delivery
            time; batched taps receive an extra ``delivered_s``
            keyword.
        obs: nullable observability hook (see :mod:`repro.obs`),
            threaded into the default-built directory and every edge
            corridor — one registry and one tracer for the whole city.
            In-process runs (:meth:`run`) record every shard into it,
            sim-time trace spans included. Never affects simulation
            behavior.
    """

    def __init__(
        self,
        *,
        rng=None,
        handoff: str = "push",
        interference_range_m: float = 500.0,
        frame_gap_m: float = 1000.0,
        backhaul: BackhaulConfig | str = "wired",
        obs=None,
    ) -> None:
        if handoff not in ("push", "pull"):
            raise ConfigurationError(f"unknown handoff policy {handoff!r}")
        if backhaul is None:
            raise ConfigurationError(
                "backhaul wants a policy name or a BackhaulConfig ('wired' "
                "is the default)"
            )
        if isinstance(backhaul, str):
            backhaul = BackhaulConfig(policy=backhaul)
        if frame_gap_m <= interference_range_m + 2.0 * READER_RANGE_M:
            raise ConfigurationError(
                "frame gap must exceed the interference range (plus radio "
                "slack): distinct streets may not share the ether"
            )
        self.rng = as_rng(rng)
        self.handoff = handoff
        self.obs = obs
        self.directory = IdentityDirectory(obs=obs)
        self.interference_range_m = float(interference_range_m)
        self.frame_gap_m = float(frame_gap_m)
        self.ledger = HandoffLedger()
        self.backhaul = backhaul
        self._plane: BackhaulPlane | None = None
        self._stations: dict[str, CorridorStation] = {}
        self.nodes: dict[str, MeshNode] = {}
        self.edges: dict[str, MeshEdge] = {}
        self.services: list[object] = []
        self.sighting_taps: list = []
        self._sources: list[_TrafficSource] = []
        self._cursor_x_m = 0.0
        self._node_next_free: dict[str, float] = {}
        self._predicted_next: dict[str, str] = {}
        self.cars_injected = 0
        self.cars_transferred = 0
        self.cars_departed = 0
        self._ran = False

    # -- graph construction ------------------------------------------------------

    def add_node(
        self,
        name: str,
        light: TrafficLight | None = None,
        headway_s: float = 2.0,
    ) -> MeshNode:
        """Declare an intersection; returns it."""
        if name in self.nodes:
            raise ConfigurationError(f"duplicate node {name!r}")
        node = MeshNode(name=name, light=light, headway_s=float(headway_s))
        self.nodes[name] = node
        return node

    def add_edge(
        self,
        name: str,
        *,
        src: str | None = None,
        dst: str | None = None,
        n_poles: int = 2,
        pole_spacing_m: float = 40.0,
        lane_ys_m: tuple[float, ...] = (-1.75, -5.25),
    ) -> MeshEdge:
        """Add one corridor edge running ``src -> dst``; returns it.

        The edge's scene is laid out at the next free slot on the
        global city axis and its corridor is built with the corridor
        defaults (the run drives it as one shard).
        """
        if name in self.edges:
            raise ConfigurationError(f"duplicate edge {name!r}")
        for node_name in (src, dst):
            if node_name is not None and node_name not in self.nodes:
                raise ConfigurationError(f"unknown node {node_name!r}")
        if self._ran:
            raise ConfigurationError("the mesh already ran")
        span_m = n_poles * pole_spacing_m
        if span_m > self.interference_range_m:
            raise ConfigurationError(
                f"edge {name!r} spans {span_m:.0f} m, beyond the "
                f"{self.interference_range_m:.0f} m interference range — "
                "its own poles could not all hear each other"
            )
        origin_x_m = self._cursor_x_m + pole_spacing_m / 2.0
        scene, _ = city_corridor_scene(
            n_poles=n_poles,
            pole_spacing_m=pole_spacing_m,
            lane_ys_m=lane_ys_m,
            n_cars=0,
            origin_x_m=origin_x_m,
            rng=self.rng,
        )
        self._cursor_x_m = float(scene.road.x_max_m) + self.frame_gap_m
        corridor = CityCorridor.build(
            scene,
            [],
            lane_ys_m=lane_ys_m,
            rng=self.rng,
            name=name,
            scheduling="event",
            obs=self.obs,
        )
        edge = MeshEdge(name=name, src=src, dst=dst, corridor=corridor, scene=scene)
        self.edges[name] = edge
        self._stations.update((s.name, s) for s in corridor.stations)
        return edge

    def add_traffic(
        self,
        routes,
        rate_per_s: float,
        speed_range_m_s: tuple[float, float] = (8.0, 18.0),
    ) -> None:
        """Attach a Poisson arrival process to the mesh.

        ``routes`` is a list of ``(route, weight)`` pairs — each route a
        tuple of edge names a car follows in order; weights are the
        relative probabilities a new arrival draws its route with. All
        routes of one source must start at the same boundary edge, and
        consecutive edges must be joined by a shared intersection.
        """
        routes = [
            (tuple(route), float(weight)) for route, weight in routes
        ]
        if not routes or any(w <= 0 for _, w in routes):
            raise ConfigurationError("need routes with positive weights")
        entry = {route[0] for route, _ in routes}
        if len(entry) != 1:
            raise ConfigurationError("one source, one entry edge")
        for route, _ in routes:
            for here, there in zip(route, route[1:]):
                edge = self._edge(here)
                nxt = self._edge(there)
                if edge.dst is None or edge.dst != nxt.src:
                    raise ConfigurationError(
                        f"route hop {here!r} -> {there!r} crosses no shared "
                        "intersection"
                    )
        self._sources.append(
            _TrafficSource(
                arrivals=PoissonArrivals(float(rate_per_s), rng=self.rng),
                routes=routes,
                speed_range_m_s=(float(speed_range_m_s[0]), float(speed_range_m_s[1])),
            )
        )

    def subscribe(self, service: object) -> object:
        """Fan every corridor's observations into ``service.observe``.

        The engine replays observations coordinator-side in the same
        canonical order as sighting taps, so a service sees one stream
        whatever the worker count. Returns ``service``. An object with
        no ``observe`` method is refused here, not mid-run.
        """
        if not callable(getattr(service, "observe", None)):
            raise ConfigurationError(
                f"a service needs an observe() method, got {service!r}"
            )
        self.services.append(service)
        return service

    def add_sighting_tap(self, tap) -> object:
        """Feed every resolved sighting, with provenance, to ``tap``.

        ``tap(t_s, edge, station, tag_id, cfo_hz, x_m, localized, kind,
        n_queries)`` is called once per resolved sighting, *after* the
        directory report — ``edge``/``station`` are names (strings),
        ``kind`` a :mod:`~repro.sim.city.handoff` resolution kind and
        ``n_queries`` the decode queries that sighting itself spent.
        This is the raw feed a billing plane dedups and charges from;
        the coordinator replays the merged sighting stream through it
        in canonical order. Under a batched ``backhaul`` policy the
        call gains a ``delivered_s`` keyword (when the delta actually
        reached the directory side) — a tap that should survive
        batched runs must accept it. Returns ``tap`` for chaining.
        """
        self.sighting_taps.append(tap)
        return tap

    def _edge(self, name: str) -> MeshEdge:
        edge = self.edges.get(name)
        if edge is None:
            raise ConfigurationError(f"unknown edge {name!r}")
        return edge

    # -- the run -----------------------------------------------------------------

    def run(self, duration_s: float) -> MeshResult:
        """Simulate the whole mesh for ``duration_s`` seconds.

        Runs the sharded engine in-process with one worker — the same
        bytes as :func:`~repro.sim.city.parallel.run_sharded` at any
        worker count, with every shard recording into :attr:`obs`.
        """
        from . import parallel

        return parallel.run_sharded(self, duration_s, workers=1, in_process=True)

    def _build_plane(self, deliver_push) -> BackhaulPlane:
        """The run's backhaul plane, owned by the coordinator: one set
        of links for the whole city, with pushes computed by
        :meth:`_push_intent` and handed to ``deliver_push``."""
        return BackhaulPlane(
            self.backhaul,
            directory=self.directory,
            taps=self.sighting_taps,
            stations=list(self._stations),
            gateways=self.backhaul.gateways or self._default_gateways(),
            push_intent=self._push_intent,
            deliver_push=deliver_push,
            obs=self.obs,
        )

    def _default_gateways(self) -> tuple[str, ...]:
        """Synced poles under ``mule``: the last pole of every exit
        edge — where departing cars (the mules) naturally pass on
        their way out of the mesh."""
        exits = sorted(
            e.last_station.name for e in self.edges.values() if e.dst is None
        )
        if exits:
            return tuple(exits)
        return (max(self._stations),) if self._stations else ()

    def _turn_policy(self) -> dict[str, str]:
        """The static per-edge successor prediction pushes aim at.

        The backend does not know an individual car's route; it knows
        the traffic mix. For each edge the predicted successor is the
        outgoing edge carrying the largest expected flow (arrival rate
        x route weight), falling back to the first declared successor
        where no route continues. Cars off the predicted turn become
        push misses — the cost the ledger audits.
        """
        mass: dict[tuple[str, str], float] = {}
        for source in self._sources:
            total = sum(w for _, w in source.routes)
            for route, weight in source.routes:
                share = source.arrivals.rate_per_s * weight / total
                for here, there in zip(route, route[1:]):
                    mass[(here, there)] = mass.get((here, there), 0.0) + share
        policy: dict[str, str] = {}
        for name, edge in self.edges.items():
            if edge.dst is None:
                continue
            successors = [e.name for e in self.edges.values() if e.src == edge.dst]
            if not successors:
                continue
            policy[name] = max(
                successors, key=lambda s: (mass.get((name, s), 0.0), -successors.index(s))
            )
        return policy

    def _draw_cars(self, duration_s: float) -> list[tuple[_RoutedCar, float]]:
        """All arrivals of the run, with routes, speeds, lanes and
        transponders drawn up front in one deterministic sweep."""
        plan: list[tuple[tuple[str, ...], float, float, float]] = []
        for source in self._sources:
            times = source.arrivals.arrivals_until(0.0, duration_s)
            total = sum(w for _, w in source.routes)
            entry_edge = self._edge(source.routes[0][0][0])
            lane_ys = tuple(entry_edge.first_station.cell.lane_ys_m)
            for t in times:
                pick = float(self.rng.uniform(0.0, total))
                route = source.routes[-1][0]
                for candidate, weight in source.routes:
                    if pick < weight:
                        route = candidate
                        break
                    pick -= weight
                speed = float(self.rng.uniform(*source.speed_range_m_s))
                lane_y = float(lane_ys[int(self.rng.integers(0, len(lane_ys)))])
                plan.append((route, float(t), speed, lane_y))
        if not plan:
            return []
        positions = [
            [self._edge(route[0]).entry_x_m, lane_y, TAG_HEIGHT_M]
            for route, _, _, lane_y in plan
        ]
        transponders = make_tags(np.array(positions), rng=self.rng)
        return [
            (
                _RoutedCar(
                    transponder=transponder,
                    route=route,
                    speed_m_s=speed,
                    lane_y_m=lane_y,
                ),
                t,
            )
            for (route, t, speed, lane_y), transponder in zip(plan, transponders)
        ]

    def _release(self, node: MeshNode, arrival_s: float) -> float:
        """Intersection dwell: wait for the car ahead (saturation
        headway), then for the signal. The signal check runs on the
        headway-delayed instant, so a queue draining through a short
        green holds the remainder for the *next* green instead of
        releasing cars into the red."""
        earliest_s = max(arrival_s, self._node_next_free.get(node.name, 0.0))
        depart_s = node.departure_s(earliest_s)
        self._node_next_free[node.name] = depart_s + node.headway_s
        return depart_s

    # -- predictive push ---------------------------------------------------------

    def _push_intent(
        self,
        edge_name: str,
        station_name: str,
        x_m: float,
        tag_id: int,
        cfo_hz: float,
        t_s: float,
        estimate,
    ) -> tuple | None:
        """The push decision for one reported sighting, as data:
        ``(target, from_station, tag_id, cfo_hz, t_emit_s, eta_s)`` or
        None. The plane calls it with the directory's §7 estimate once
        a sighting reaches the directory side. Whether the target
        already knows the tag is checked by the shard that owns the
        target, against its live cache, when the push lands.
        """
        if self.handoff != "push" or estimate is None:
            return None
        if estimate.speed_m_s <= 0.5:
            return None  # effectively parked: no meaningful arrival prediction
        target, distance_m = self._predict_target(
            self.edges[edge_name], self._stations[station_name], x_m
        )
        if target is None:
            return None
        eta_s = t_s + max(distance_m, 0.0) / estimate.speed_m_s
        if eta_s - t_s > PUSH_HORIZON_S:
            return None
        return (target.name, station_name, tag_id, cfo_hz, float(t_s), eta_s)

    def _predict_target(
        self, edge: MeshEdge, station: CorridorStation, x_m: float
    ) -> tuple[CorridorStation | None, float]:
        """The pole a car at ``x_m`` reaches next, and the road distance
        to it — the downstream neighbor, or the first pole of the
        predicted successor edge when the car is at the last pole."""
        if station.downstream is not None:
            return (
                station.downstream,
                float(station.downstream.pole_position_m[0]) - x_m,
            )
        successor = self._predicted_next.get(edge.name)
        if successor is None:
            return None, 0.0
        succ = self.edges[successor]
        target = succ.first_station
        distance_m = (edge.exit_x_m - x_m) + (
            float(target.pole_position_m[0]) - succ.entry_x_m
        )
        return target, distance_m

    # -- results -----------------------------------------------------------------

    def cross_corridor_stats(
        self, result: MeshResult, station_edge: dict[str, str]
    ) -> None:
        """Walk the shared ledger and score every cross-corridor entry.

        A cross-corridor entry is a tag's first attributed sighting in
        an edge after being known in some *other* edge. It was resolved
        (pushed/pulled cache entry) or it cost a re-decode; entries at
        the edge's first pole additionally contribute their decode-query
        cost to the push-vs-pull headline.
        """
        first_poles = {e.first_station.name: e.name for e in self.edges.values()}
        edges_knowing: dict[int, set[str]] = {}
        # A stable sort by time keeps same-time records in ledger order.
        for record in sorted(self.ledger.records, key=attrgetter("t_s")):
            if record.tag_id is None or record.kind not in _ATTRIBUTED:
                continue
            edge_name = station_edge.get(record.station)
            if edge_name is None:
                continue
            known = edges_knowing.setdefault(record.tag_id, set())
            if known and edge_name not in known:
                result.cross_entries += 1
                if record.kind in (HANDOFF, PUSH):
                    result.cross_resolved += 1
                elif record.kind == REDECODE:
                    result.cross_redecodes += 1
                if first_poles.get(record.station) == edge_name:
                    result.first_pole_queries.append(record.n_queries)
            known.add(edge_name)


def downtown_grid(
    rows: int,
    cols: int,
    *,
    rng=None,
    handoff: str = "push",
    rate_per_s: float = 0.3,
    n_poles: int = 2,
    speed_range_m_s: tuple[float, float] = (8.0, 18.0),
    obs=None,
    **mesh_kwargs,
) -> CityMesh:
    """A downtown of ``cols`` one-way avenues, ``rows`` blocks each.

    The scale-out scenario: ``rows x cols`` corridors (a 10x10 call is
    the 100-corridor benchmark city). Avenues are paired — partners
    share every signalized junction, so routes can weave between the
    pair mid-town. Each avenue gets its own Poisson source; 70% of its
    cars ride the avenue end to end, 30% switch to the partner at the
    mid-town junction (an odd trailing avenue sends its 30% off-grid
    early instead) — both off-policy turn populations feed the
    push-miss audit, like the 3-corridor demo mesh.

    ``handoff`` selects the mesh's cross-pole identity policy —
    ``"push"`` (default: predictive push handoff) or ``"pull"`` (the
    at-sighting ablation), exactly as on :class:`CityMesh`.

    Signal offsets stagger deterministically by junction (no RNG
    draw), so the grid's congestion pattern is a pure function of the
    seed. Edge and node names are zero-padded (``st03a07``), keeping
    sorted order equal to grid order for the sharding layer.
    """
    if rows < 1 or cols < 1:
        raise ConfigurationError("a downtown needs at least one row and column")
    mesh = CityMesh(rng=rng, handoff=handoff, obs=obs, **mesh_kwargs)
    def edge(r: int, c: int) -> str:
        return f"st{r:02d}a{c:02d}"

    def node(r: int, p: int) -> str:
        return f"jn{r:02d}p{p:02d}"

    for r in range(rows - 1):
        for pair in range((cols + 1) // 2):
            mesh.add_node(
                node(r, pair),
                light=TrafficLight(
                    green_s=8.0,
                    yellow_s=1.0,
                    red_s=4.0,
                    offset_s=float((3 * r + 5 * pair) % 13),
                ),
            )
    for r in range(rows):
        for c in range(cols):
            mesh.add_edge(
                edge(r, c),
                src=None if r == 0 else node(r - 1, c // 2),
                dst=None if r == rows - 1 else node(r, c // 2),
                n_poles=n_poles,
            )
    mid = rows // 2
    for c in range(cols):
        straight = tuple(edge(r, c) for r in range(rows))
        partner = c + 1 if c % 2 == 0 else c - 1
        if partner < cols and rows > 1:
            weave = straight[:mid] + tuple(edge(r, partner) for r in range(mid, rows))
        else:
            # Odd trailing avenue: no partner — its off-policy share
            # simply leaves the grid after the mid-town block.
            weave = straight[: max(mid, 1)]
        routes = [(straight, 0.7), (weave, 0.3)]
        if weave == straight:
            routes = [(straight, 1.0)]
        mesh.add_traffic(routes, rate_per_s=rate_per_s, speed_range_m_s=speed_range_m_s)
    return mesh
