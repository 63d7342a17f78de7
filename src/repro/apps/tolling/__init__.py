"""The billing plane: from sighting stream to settled toll charges (§1).

Caraoke's pitch is that e-toll transponders already on cars can power
city services, tolling first among them — yet everything below this
package stops at the radio/identity layer: sightings resolve to
accounts and then evaporate. This package is the backend that turns the
city-wide sighting stream into money:

* :mod:`~repro.apps.tolling.events` — the records: one raw read, one
  deduplicated toll event;
* :mod:`~repro.apps.tolling.dedup` — the windowed dedup stage: a car
  crossing one gantry produces many reads (own-cache hits, pushes,
  handoffs, decode and overheard combinations across poles); exactly
  one toll event per ``(account, zone, window)`` survives;
* :mod:`~repro.apps.tolling.accounts` — the sharded account store the
  charges post against, bounded by settling cold accounts into
  per-shard aggregates (conservation is checkable at any instant);
* :mod:`~repro.apps.tolling.backend` — the latency-modeled directory
  link: a ``resolve`` submitted now is answered ``k`` backend rounds
  later, which is what makes push vs directory-pull vs blind re-decode
  three *measured* points on one latency/air-time curve instead of a
  slogan;
* :mod:`~repro.apps.tolling.service` — :class:`TollingService`, the
  sighting tap that ties the stages together. Attach it to a mesh via
  ``mesh.add_sighting_tap(service)``: the engine's coordinator replays
  the merged sighting stream through taps in canonical order, so
  billing is identical for any worker count;
* :mod:`~repro.apps.tolling.replay` — seeded synthetic sighting
  streams (no radio synthesis), for load tests at account populations
  no simulated radio could reach.

``python -m repro.apps.tolling --smoke`` runs a small end-to-end
replay and checks the invariants (CI fast tier).
"""

from .accounts import ShardedAccountStore
from .backend import BackendAnswer, DirectoryBackend
from .dedup import TollDedup
from .events import TollEvent, TollRead
from .replay import synthetic_reads
from .service import POLICIES, TollingService

__all__ = [
    "BackendAnswer",
    "DirectoryBackend",
    "POLICIES",
    "ShardedAccountStore",
    "TollDedup",
    "TollEvent",
    "TollRead",
    "TollingService",
    "synthetic_reads",
]
