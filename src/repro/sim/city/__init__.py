"""City-scale corridor engine: many readers, one street, one time axis.

The paper's end goal (§1, §9) is a *network* of cheap readers covering a
city. This package is the discrete-event layer that turns the isolated
per-pole machinery into that infrastructure:

* :mod:`repro.sim.city.cells` — :class:`StationCell` coverage
  segments, one road slice per pole, with neighbor links.
* :mod:`repro.sim.city.handoff` — the :class:`HandoffLedger` audit of
  how each downstream sighting was resolved: own cache, neighbor cache
  handoff, or a full re-decode.
* :mod:`repro.sim.city.moving` — moving tags: trajectory-driven
  transponders whose channel geometry is re-sampled per query; the
  one collision synthesizer, parked scenes included (tags at speed
  zero).
* :mod:`repro.sim.city.pool` — the shared :class:`ResponsePool` of
  trigger windows: a tag answering one pole's query is audible at every
  pole in range, so neighbors harvest the window as free decode
  evidence (the corridor's ``opportunistic="accept"`` policy).
* :mod:`repro.sim.city.corridor` — :class:`CityCorridor`, the engine:
  every station runs its own query cadence through the §9
  :class:`~repro.core.mac.ReaderMac` policy on one shared
  :class:`~repro.sim.events.EventScheduler` timeline and one
  :class:`~repro.sim.medium.AirLog`, so stations genuinely back off each
  other instead of taking synchronized turns.
* :mod:`repro.sim.city.directory` — the :class:`IdentityDirectory`
  city-wide fingerprint service above the per-pole caches: bounded,
  aging, trail-keeping, and the source of §7 cross-pole speed
  estimates.
* :mod:`repro.sim.city.mesh` — :class:`CityMesh`, the city graph:
  corridors as edges, intersections as nodes, Poisson traffic routed
  edge-to-edge on one shared clock, with predictive *push* handoff
  planting cache entries at the predicted next pole ahead of each car
  (``handoff="pull"`` is the at-sighting ablation).
* :mod:`repro.sim.city.backhaul` — the intermittent pole↔directory
  backhaul: every link a :class:`BackhaulLink` under a
  :class:`BackhaulConfig` delivery policy (``wired`` / ``scheduled`` /
  ``mule``), degraded deterministically by a seeded :class:`FaultPlan`,
  all routed through the coordinator-owned :class:`BackhaulPlane`.
"""

from .backhaul import (
    BackhaulConfig,
    BackhaulLink,
    BackhaulPlane,
    FaultPlan,
    OutageWindow,
)
from .cells import StationCell, carve_cells
from .handoff import HandoffLedger, PushRecord, SightingRecord
from .moving import MovingCollisionSource, MovingTag, ParkedSource, TagWaveformBank
from .pool import ResponsePool, TriggerWindow
from .corridor import CityCorridor, CorridorResult, CorridorStation
from .directory import IdentityDirectory, SightingFix
from .mesh import CityMesh, MeshEdge, MeshNode, MeshResult, downtown_grid
from .parallel import run_sharded

__all__ = [
    "BackhaulConfig",
    "BackhaulLink",
    "BackhaulPlane",
    "FaultPlan",
    "OutageWindow",
    "StationCell",
    "carve_cells",
    "HandoffLedger",
    "PushRecord",
    "SightingRecord",
    "MovingTag",
    "MovingCollisionSource",
    "ParkedSource",
    "TagWaveformBank",
    "ResponsePool",
    "TriggerWindow",
    "CityCorridor",
    "CorridorResult",
    "CorridorStation",
    "IdentityDirectory",
    "SightingFix",
    "CityMesh",
    "MeshEdge",
    "MeshNode",
    "MeshResult",
    "downtown_grid",
    "run_sharded",
]
