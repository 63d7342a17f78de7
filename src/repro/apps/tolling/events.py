"""Billing-plane records: raw reads in, deduplicated toll events out."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TollRead", "TollEvent"]

#: Charge lifecycle states. A toll event is born CHARGED under the
#: immediate policies (push / re-decode / as-sighted), or PENDING under
#: directory pull — the backend's answer arrives k rounds later and
#: either charges it or, when even the directory has no account for the
#: fingerprint, marks it UNRESOLVED after the fallback decode's account
#: recovery is charged instead.
CHARGED = "charged"
PENDING = "pending"
UNRESOLVED = "unresolved"


@dataclass(frozen=True)
class TollRead:
    """One raw sighting as the billing plane receives it from the mesh.

    Field-for-field the sighting-tap payload (see
    ``CityMesh.add_sighting_tap``): names, not objects, so a read can
    cross a process boundary and a synthetic replay can mint them
    without a radio.

    Attributes:
        t_s: sim time of the read.
        zone: toll zone name — the mesh edge (one gantry) it happened
            on.
        station: reader pole that resolved the spike.
        tag_id: the radio identity (decoded account id, §8).
        cfo_hz: the CFO fingerprint the spike carried.
        x_m: along-city coordinate (§6 fix, or pole stand-in).
        localized: whether ``x_m`` is a real §6 fix.
        kind: resolution provenance — a
            :mod:`~repro.sim.city.handoff` kind (``own`` / ``push`` /
            ``handoff`` / ``decode`` / ``redecode``).
        n_queries: decode queries this read itself put on the air
            (zero for cache hits).
        delivered_s: when the read reached the billing plane, for reads
            that rode a batched backhaul link (see
            :mod:`repro.sim.city.backhaul`); None means delivered at
            ``t_s`` (wired). Dedup windows key on the emit time ``t_s``
            (the crossing), while watermarks, sweeps and charge
            latency run on delivery time (when billing could act).
    """

    t_s: float
    zone: str
    station: str
    tag_id: int
    cfo_hz: float
    x_m: float = 0.0
    localized: bool = False
    kind: str = "own"
    n_queries: int = 0
    delivered_s: float | None = None


@dataclass
class TollEvent:
    """One deduplicated crossing: the unit that gets charged.

    Attributes:
        tag_id: radio identity of the crossing car.
        zone: the gantry's toll zone.
        window_index: dedup window ordinal (``floor(t / window_s)``).
        first_read_s: when the zone first read the car this window.
        kind: provenance of that first read.
        n_reads: how many raw reads the window collapsed into this one
            event (own/push/handoff/decode mixed).
        account_id: the account the charge posted to, once resolved.
        amount_cents: the toll posted (integer cents — conservation is
            checked exactly, never to within float epsilon).
        air_queries: decode queries identification cost *under the
            service's policy* (0 for push, backend-miss fallback for
            pull, a full burst for blind re-decode).
        latency_s: first read -> charge posted. The curve the policies
            are compared on.
        charged_s: sim time the charge posted (None while pending).
        status: ``charged`` / ``pending`` / ``unresolved``.
    """

    tag_id: int
    zone: str
    window_index: int
    first_read_s: float
    kind: str = "own"
    n_reads: int = 1
    account_id: int | None = None
    amount_cents: int = 0
    air_queries: int = 0
    latency_s: float = 0.0
    charged_s: float | None = None
    status: str = PENDING
