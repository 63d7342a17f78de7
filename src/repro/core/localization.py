"""Localizing tags from collision phase differences (§6, Fig 5-7).

Pipeline: for each tag's CFO spike, read the complex channel at two
antennas (Eq 5 per antenna); their phase ratio gives the spatial angle
``alpha`` via ``cos(alpha) = delta_phi * lambda / (2 pi d)`` (Eq 10). The
three-antenna triangle measures alpha on all three baselines and trusts
the one nearest broadside (§6). One reader constrains the tag to a cone;
its road-plane section is a conic (hyperbola untilted, ellipse at 60°
tilt); two readers intersect their conics and the on-road solution is the
car (Fig 7, footnote 10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..channel.antenna import AntennaPair, TriangleArray
from ..channel.collision import ReceivedCollision
from ..channel.geometry import RoadSegment, aoa_cone_conic, intersect_conics
from ..constants import PAIR_USABLE_MAX_DEG, PAIR_USABLE_MIN_DEG, TAG_HEIGHT_M, WAVELENGTH_M
from ..dsp.spectrum import tone_factors
from ..errors import GeometryError, LocalizationError
from ..utils import wrap_angle
from .cfo import estimate_channel, extract_collision_peaks

__all__ = [
    "aoa_from_phase",
    "phase_from_aoa",
    "AoAEstimate",
    "AoAEstimator",
    "ReaderGeometry",
    "TwoReaderLocalizer",
    "LaneProjectionLocalizer",
]

#: Spike detection threshold over the local (CFAR) floor when
#: :meth:`AoAEstimator.estimate_all` finds a collision's spikes itself.
_PEAK_SNR_DB = 15.0

#: How far outside the road edge a fix may fall and still count as on
#: the road (footnote 10: candidates beyond it are "on the sidewalk").
_ROAD_MARGIN_M = 1.5

#: A lane candidate's per-baseline tolerance between the phase it would
#: produce and the measured one. Phase noise is roughly uniform across
#: pairs (unlike angle noise, which blows up toward end-fire), so the
#: gate is applied in phase space: a candidate past it on any baseline is
#: a ghost (e.g. a tag that is really outside this reader's road segment)
#: and is rejected rather than reported.
_MAX_PHASE_ERROR_DEG = 15.0
_MAX_PHASE_ERROR_RAD = float(np.deg2rad(_MAX_PHASE_ERROR_DEG))


def aoa_from_phase(
    delta_phi_rad: float,
    spacing_m: float,
    wavelength_m: float = WAVELENGTH_M,
    strict: bool = False,
) -> float:
    """Invert Eq 10: ``alpha = arccos(delta_phi * lambda / (2 pi d))``.

    Noise can push the implied cosine slightly outside [-1, 1]; by default
    it is clamped (the estimate saturates at end-fire), with ``strict``
    such measurements raise :class:`LocalizationError` instead.
    """
    if spacing_m <= 0:
        raise LocalizationError(f"spacing must be positive, got {spacing_m}")
    cos_alpha = delta_phi_rad * wavelength_m / (2.0 * np.pi * spacing_m)
    if abs(cos_alpha) > 1.0:
        if strict:
            raise LocalizationError(
                f"phase {delta_phi_rad:.3f} rad implies |cos(alpha)| = "
                f"{abs(cos_alpha):.3f} > 1"
            )
        cos_alpha = float(np.clip(cos_alpha, -1.0, 1.0))
    return float(np.arccos(cos_alpha))


def phase_from_aoa(
    alpha_rad: float, spacing_m: float, wavelength_m: float = WAVELENGTH_M
) -> float:
    """Forward Eq 10: the phase difference a tag at angle alpha produces."""
    return float(2.0 * np.pi * spacing_m / wavelength_m * np.cos(alpha_rad))


def _spike_channels(waves, outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """(S, A) Eq 5 channels of S probes at antennas sharing one time base.

    Each (spike, antenna) block sum is the single-row product
    :func:`~repro.dsp.spectrum.tone_block_sums` takes for one probe:
    stacking the rows into one (S, L) product lets BLAS block them
    differently, which moves the last bits. The block scaling, the
    window sums and the Eq 5 factor then run over every readout at once.
    """
    n_samples = waves[0].n_samples
    length = inner.shape[1]
    n_full = n_samples // length
    sums = np.empty((len(inner), len(waves), outer.shape[1]), dtype=np.complex128)
    for a, wave in enumerate(waves):
        head = wave.samples[: n_full * length].reshape(n_full, length).T
        tail = wave.samples[n_full * length :]
        for s in range(len(inner)):
            row = inner[s : s + 1]
            sums[s, a, :n_full] = row @ head
            if tail.size:
                sums[s, a, n_full:] = row[:, : tail.size] @ tail
    return 2.0 * ((outer[:, None, :] * sums).sum(axis=-1) / n_samples)


@dataclass
class AoAEstimate:
    """Per-tag AoA measurement from one reader.

    Attributes:
        cfo_hz: the tag's spike frequency (its identity within the capture).
        alphas_rad: spatial angle per antenna pair.
        best_pair_index: the pair whose angle is nearest 90° (§6).
        channels: per-antenna channel estimates at the spike.
    """

    cfo_hz: float
    alphas_rad: tuple[float, ...]
    best_pair_index: int
    channels: np.ndarray = field(default_factory=lambda: np.zeros(0, complex))

    @property
    def alpha_rad(self) -> float:
        """The selected pair's spatial angle."""
        return self.alphas_rad[self.best_pair_index]

    @property
    def alpha_deg(self) -> float:
        return float(np.rad2deg(self.alpha_rad))

    def in_usable_band(self) -> bool:
        """Whether the selected angle is within the 60-120° sweet spot."""
        return PAIR_USABLE_MIN_DEG <= self.alpha_deg <= PAIR_USABLE_MAX_DEG


@dataclass
class AoAEstimator:
    """Measures spatial angles for every tag in a collision (§6), at the
    carrier wavelength :data:`~repro.constants.WAVELENGTH_M`.

    Attributes:
        array: the reader's antenna triangle.
        obs: nullable observability hook (see :mod:`repro.obs`): counts
            one readout per spike :meth:`estimate_for_cfos` reads, by
            where its probe came from (``aoa.readout{probe=basis|built}``).
            Never affects the estimate.
    """

    array: TriangleArray
    obs: object = None

    def estimate_from_channels(
        self, cfo_hz: float, channels: np.ndarray
    ) -> AoAEstimate:
        """AoA from per-antenna channel estimates at one spike.

        The channels may come from any Eq 5 readout of the same capture —
        a direct spectral read, the shared
        :func:`~repro.core.cfo.extract_collision_peaks` pass, or the
        decoder's per-antenna accumulators
        (:attr:`~repro.core.decoding.DecodeResult.channels`): only the
        cross-antenna *ratios* enter Eq 10, and any per-response or
        reference phase common to all entries cancels there.
        """
        channels = np.asarray(channels, dtype=np.complex128)
        if channels.size < 3:
            raise LocalizationError(
                f"triangle AoA needs 3 antenna channels, got {channels.size}"
            )
        return self._estimates([float(cfo_hz)], channels[None, :3])[0]

    def estimate_for_cfo(
        self,
        collision: ReceivedCollision,
        cfo_hz: float,
        probe: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> AoAEstimate:
        """AoA of the tag whose spike sits at (or near) ``cfo_hz``: the
        one-spike case of :meth:`estimate_for_cfos`."""
        return self.estimate_for_cfos(collision, [cfo_hz], probe)[0]

    def estimate_for_cfos(
        self,
        collision: ReceivedCollision,
        cfos_hz,
        probe: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> list[AoAEstimate]:
        """AoA of every tag whose spike sits at (or near) one of ``cfos_hz``.

        Reads each spike's channel at each antenna, then forms the phase
        difference per pair. All three pairs are computed; the one
        nearest broadside is selected, emulating the antenna switch of
        Fig 6. The S x 3 pair ratios, angles and broadside picks are one
        array pass, equal bit for bit to estimating each spike alone.

        Args:
            probe: the factors ``(outer, inner)`` of ``exp(-j 2 pi f t)``
                on the first antenna's time base, one row per spike
                (:func:`~repro.dsp.spectrum.tone_factors`), when the
                caller already holds them (rows of the counter's fit
                factors, :attr:`~repro.core.counting.CountEstimate.basis`);
                built here when omitted.
        """
        cfos = [float(cfo) for cfo in cfos_hz]
        if not cfos:
            return []
        if collision.n_antennas < 3:
            raise LocalizationError(
                f"triangle AoA needs 3 antenna captures, got {collision.n_antennas}"
            )
        waves = collision.antennas[:3]
        first = waves[0]
        shared = all(
            wave.n_samples == first.n_samples
            and wave.sample_rate_hz == first.sample_rate_hz
            and wave.t0_s == first.t0_s
            for wave in waves[1:]
        )
        if self.obs is not None:
            self.obs.count(
                "aoa.readout",
                len(cfos),
                probe="basis" if shared and probe is not None else "built",
            )
        if shared:
            # One time base: the three Eq 5 readouts share each spike's
            # probe factors, the ones estimate_channel builds per antenna.
            if probe is None:
                probe = tone_factors(
                    cfos, first.t0_s, first.sample_rate_hz, first.n_samples
                )
            channels = _spike_channels(waves, *probe)
        else:
            channels = np.array(
                [[estimate_channel(wave, cfo) for wave in waves] for cfo in cfos]
            )
        return self._estimates(cfos, channels)

    def _estimates(self, cfos_hz: list[float], channels: np.ndarray) -> list[AoAEstimate]:
        """Eq 10 on every pair of every (S, 3) channel row at once.

        Elementwise, this is :func:`aoa_from_phase` per pair (clamped) and
        the broadside pick per spike, rounded as they round.
        """
        if (channels == 0.0).any():
            raise LocalizationError("zero channel estimate; no signal at the CFO")
        first, second = zip(*self.array.pair_indices())
        spacings = self.array.baselines[2]
        delta_phi = np.angle(channels[:, list(second)] / channels[:, list(first)])
        cos_alpha = delta_phi * WAVELENGTH_M / (2.0 * np.pi * spacings)
        alphas = np.arccos(np.minimum(np.maximum(cos_alpha, -1.0), 1.0))
        best = np.argmin(np.abs(alphas - np.pi / 2.0), axis=1)
        return [
            AoAEstimate(
                cfo_hz=cfo,
                alphas_rad=tuple(row),
                best_pair_index=pick,
                channels=spike_channels,
            )
            for cfo, row, pick, spike_channels in zip(
                cfos_hz, alphas.tolist(), best.tolist(), channels
            )
        ]

    def estimate_all(self, collision: ReceivedCollision) -> list[AoAEstimate]:
        """Measure each tag's AoA via the shared collision readout.

        Spikes are detected on the average magnitude spectrum across
        every antenna (no element is privileged) and each spike's channel
        is read per antenna at one refined frequency — the same Eq 5 pass
        the rest of the chain uses.
        """
        peaks = extract_collision_peaks(collision, min_snr_db=_PEAK_SNR_DB)
        return [
            self.estimate_from_channels(p.cfo_hz, p.channels) for p in peaks
        ]

    def best_pair(self, estimate: AoAEstimate) -> AntennaPair:
        """The physical pair selected for an estimate."""
        return self.array.pairs()[estimate.best_pair_index]


@dataclass
class ReaderGeometry:
    """Where a reader sits relative to the road it watches."""

    array: TriangleArray
    road: RoadSegment

    @property
    def pole_position_m(self) -> np.ndarray:
        return self.array.center_m

    @property
    def pole_height_m(self) -> float:
        return float(self.array.center_m[2] - self.road.z_m)


@dataclass
class TwoReaderLocalizer:
    """Intersects AoA conics from two readers into an (x, y) on the road.

    §6: one AoA confines the car to a conic on the road plane; a second
    reader (typically across the street) adds another; their intersection
    points are computed numerically and candidates off the pavement are
    rejected (they are "on the sidewalk", footnote 10). The AoA cones are
    intersected with the *transponder* plane, :data:`~repro.constants.TAG_HEIGHT_M`
    above the road (footnote 14: pole, antennas and tag are treated as
    coplanar geometry), then the (x, y) is reported on the road.
    """

    first: ReaderGeometry
    second: ReaderGeometry

    def locate(
        self,
        estimate_a: AoAEstimate,
        estimate_b: AoAEstimate,
        estimator_a: AoAEstimator,
        estimator_b: AoAEstimator,
        hint_xy: np.ndarray | None = None,
    ) -> np.ndarray:
        """Locate one tag from its AoA at both readers.

        Args:
            hint_xy: optional prior (x, y); when several candidates
                survive the road filter, the one nearest the hint wins
                (e.g. a coarse position from timing, or the previous fix
                of a tracked car).

        Returns:
            (x, y) world coordinates on the road plane.

        Raises:
            GeometryError: if the conics do not intersect on the road.
        """
        road = self.first.road
        pair_a = estimator_a.best_pair(estimate_a)
        pair_b = estimator_b.best_pair(estimate_b)
        plane_z = road.z_m + TAG_HEIGHT_M
        conic_a = aoa_cone_conic(
            pair_a.midpoint_m, pair_a.axis, estimate_a.alpha_rad, plane_z
        )
        conic_b = aoa_cone_conic(
            pair_b.midpoint_m, pair_b.axis, estimate_b.alpha_rad, plane_z
        )
        x_range = (road.x_min_m - _ROAD_MARGIN_M, road.x_max_m + _ROAD_MARGIN_M)
        points = intersect_conics(conic_a, conic_b, x_range)
        on_road = [p for p in points if road.contains(p, margin_m=_ROAD_MARGIN_M)]
        if not on_road:
            raise GeometryError(
                f"no conic intersection on the road (found {len(points)} points total)"
            )
        # If several candidates survive (grazing geometries), prefer the
        # hint when given, otherwise keep the one closest to the road
        # centerline — farther ones are curb-side mirror artifacts.
        if hint_xy is not None and len(on_road) > 1:
            hint = np.asarray(hint_xy, dtype=np.float64)
            best = min(on_road, key=lambda p: float(np.linalg.norm(p - hint)))
        else:
            best = min(on_road, key=lambda p: abs(p[1] - road.y_center_m))
        return np.asarray(best, dtype=np.float64)


@dataclass
class LaneProjectionLocalizer:
    """Single-reader road fix: intersect the AoA cone with known lanes.

    One reader's AoA confines a tag to a cone around the measured antenna
    baseline; a full 2-D fix normally takes a second reader's conic
    (:class:`TwoReaderLocalizer`, Fig 7). On an instrumented road the
    unknown is effectively one-dimensional, though: cars sit in known
    lanes (or marked parking spots), so intersecting the cone with each
    lane line ``y = lane, z = tag height`` (the road's plus
    :data:`~repro.constants.TAG_HEIGHT_M`) reduces localization to a
    quadratic in the along-road coordinate x. At most two candidates
    survive per lane; road limits, the cone's half-space, the phase gate
    (:data:`_MAX_PHASE_ERROR_DEG` on every baseline) and an optional
    hint (e.g. the car's previous fix) disambiguate.

    This is what lets a corridor station (each
    :class:`~repro.sim.city.StationCell` builds one over its own road
    slice) mint positioned observations from a *single* pole per
    approach.

    Attributes:
        road: the road segment the lanes belong to.
        lane_ys_m: cross-road coordinates of the lane centers to try.
        obs: nullable observability hook (see :mod:`repro.obs`): counts
            the lane candidates :meth:`locate` scores, by whether the
            phase gate kept them (``locate.candidates{outcome=kept|gated}``).
            Never affects the fix.
    """

    road: RoadSegment
    lane_ys_m: tuple[float, ...]
    obs: object = None

    def locate(
        self,
        estimate: AoAEstimate,
        estimator: AoAEstimator,
        hint_xy: np.ndarray | None = None,
    ) -> np.ndarray:
        """Locate one tag from its AoA at this reader alone: the one-spike
        case of :meth:`locate_all`.

        Returns:
            (x, y) world coordinates on the road plane.

        Raises:
            GeometryError: if the cone misses every lane on the road.
        """
        fix = self.locate_all([estimate], estimator, [hint_xy])[0]
        if fix is None:
            raise GeometryError(
                f"AoA cone (alpha={estimate.alpha_deg:.1f} deg) intersects "
                f"no lane of {self.lane_ys_m} on the road consistently "
                f"with all baselines"
            )
        return fix

    def locate_all(
        self,
        estimates: list[AoAEstimate],
        estimator: AoAEstimator,
        hints: list[np.ndarray | None] | None = None,
    ) -> list[np.ndarray | None]:
        """Locate several tags, each from its own AoA at this reader alone.

        Each spike's lane roots are found as :meth:`locate` finds them;
        then every root of every spike is scored in one array expression,
        and each spike keeps its best, equal bit for bit to locating the
        tags one at a time.

        Args:
            estimates: the tags' AoA measurements.
            estimator: the estimator that produced them (provides the
                physical pair geometry behind ``best_pair_index``).
            hints: optional prior (x, y) per estimate, or None; the
                candidate nearest its hint wins. Without a hint, candidates
                are scored by consistency with *all three* measured
                baselines (the selected pair fixes a cone; the other two
                pairs vote between its lane intersections).

        Returns:
            Per estimate, its (x, y) world coordinates on the road plane,
            or None when its cone misses every lane on the road (or a
            candidate sits on a baseline's midpoint, which has no
            direction to score).
        """
        n_spikes = len(estimates)
        fixes: list[np.ndarray | None] = [None] * n_spikes
        if not n_spikes:
            return fixes
        if hints is None:
            hints = [None] * n_spikes
        pairs = estimator.array.pairs()
        z = self.road.z_m + TAG_HEIGHT_M
        cosines = np.cos([estimate.alphas_rad for estimate in estimates])
        # Candidates spike by spike: owners ascend, and ``starts`` holds
        # where each spike with a candidate begins.
        owners, roots, starts = [], [], []
        for spike, (estimate, row) in enumerate(zip(estimates, cosines.tolist())):
            best = estimate.best_pair_index
            found = self._lane_roots(pairs[best], row[best], z)
            if found:
                starts.append(len(owners))
                owners.extend([spike] * len(found))
                roots.extend(found)
        if not owners:
            return fixes
        owner = np.array(owners)
        points = np.array(roots)
        gains = 2.0 * np.pi * estimator.array.baselines[2] / WAVELENGTH_M
        errors, pointless = self._phase_errors_rad(
            points, z, (gains * cosines)[owner], estimator
        )
        # A real tag matches all three measured baselines to within phase
        # noise; a ghost (wrong lane, or a tag outside this road segment
        # whose cone happens to graze it) only matches the selected one.
        kept = errors.max(axis=1) <= _MAX_PHASE_ERROR_RAD
        n_scored = len(owners)
        if pointless.any():
            # A candidate on a baseline's midpoint fails its whole spike.
            failed = np.zeros(n_spikes, dtype=bool)
            failed[owner[pointless]] = True
            scored = ~failed[owner]
            kept &= scored
            n_scored = int(np.count_nonzero(scored))
        if self.obs is not None:
            n_kept = int(np.count_nonzero(kept))
            n_gated = n_scored - n_kept
            if n_kept:
                self.obs.count("locate.candidates", n_kept, outcome="kept")
            if n_gated:
                self.obs.count("locate.candidates", n_gated, outcome="gated")
        score = (errors**2).sum(axis=1)
        hinted = [hint is not None for hint in hints]
        if any(hinted):
            anchors = np.array(
                [hint if hint is not None else (0.0, 0.0) for hint in hints],
                dtype=np.float64,
            )
            delta = points - anchors[owner]
            # Stacked 1x2 @ 2x1 products are the dot np.linalg.norm takes.
            distance = np.sqrt((delta[:, None, :] @ delta[:, :, None])[:, 0, 0])
            score = np.where(np.array(hinted)[owner], distance, score)
        score[~kept] = np.inf
        # Each spike's first lowest score: sorted by spike, then score
        # (stably), each spike's candidates keep their block, which
        # begins at the spike's ``starts`` entry.
        firsts = np.lexsort((score, owner))[starts]
        for index in firsts[kept[firsts]].tolist():
            fixes[owners[index]] = points[index].copy()
        return fixes

    def _lane_roots(self, pair, cos_a: float, z: float) -> list[tuple[float, float]]:
        """Where one cone meets the lanes on the road, lane by lane.

        ``|(p - apex) . axis| = |p - apex| cos(alpha)`` with ``p = (x,
        lane, z)`` becomes a quadratic in ``X = x - apex_x``; at most two
        roots per lane survive the cone's nappe and the road limits.
        """
        apex_x, apex_y, apex_z = pair.midpoint_m.tolist()
        axis_x, axis_y, axis_z = pair.axis.tolist()
        # Squares by pow, which rounds apart from x * x now and then.
        a = axis_x**2 - cos_a**2
        dz = z - apex_z
        margin = _ROAD_MARGIN_M
        x_lo, x_hi = self.road.x_min_m - margin, self.road.x_max_m + margin
        y_lo, y_hi = self.road.y_min_m - margin, self.road.y_max_m + margin
        found = []
        for lane_y in self.lane_ys_m:
            dy = lane_y - apex_y
            c1 = axis_y * dy + axis_z * dz
            c2 = dy * dy + dz * dz
            b = 2.0 * axis_x * c1
            c = c1 * c1 - c2 * cos_a**2
            if abs(a) < 1e-12:
                if abs(b) < 1e-12:
                    continue
                roots = [-c / b]
            else:
                disc = b * b - 4.0 * a * c
                if disc < 0:
                    continue
                sq = math.sqrt(disc)
                roots = [(-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)]
            for x_rel in roots:
                # The measured alpha fixes which nappe of the double cone.
                if cos_a * (axis_x * x_rel + c1) < -1e-9:
                    continue
                x = apex_x + x_rel
                if x_lo <= x <= x_hi and y_lo <= lane_y <= y_hi:
                    found.append((x, lane_y))
        return found

    @staticmethod
    def _phase_errors_rad(
        points: np.ndarray, z: float, measured: np.ndarray, estimator: AoAEstimator
    ) -> tuple[np.ndarray, np.ndarray]:
        """(C, 3) wrapped phase error of each candidate on each baseline.

        The phase a tag at the candidate would produce on a baseline,
        ``phase_from_aoa`` of its true spatial angle, against the measured
        one (``measured``, one row per candidate). One array expression
        over every candidate and baseline, equal bit for bit to scoring
        them one at a time: the norms and direction cosines are stacked
        ``1x3 @ 3x1`` products, the same BLAS dot ``np.linalg.norm`` and
        ``np.dot`` of a 3-vector take (a row sum or ``einsum`` rounds
        differently).

        Returns:
            ``(errors, pointless)``: the errors, and whether each candidate
            sits on a baseline's midpoint (a zero direction; its errors
            are meaningless).
        """
        midpoints, unit_axes, spacings = estimator.array.baselines
        tags = np.empty((len(points), 3))
        tags[:, :2] = points
        tags[:, 2] = z
        directions = tags[:, None, :] - midpoints
        norms = np.sqrt((directions[..., None, :] @ directions[..., :, None])[..., 0, 0])
        pointless = (norms == 0.0).any(axis=1)
        if pointless.any():
            norms[pointless] = 1.0
        cosines = (
            (directions / norms[..., None])[..., None, :] @ unit_axes[None, :, :, None]
        )[..., 0, 0]
        true_alphas = np.arccos(np.minimum(np.maximum(cosines, -1.0), 1.0))
        gains = 2.0 * np.pi * spacings / WAVELENGTH_M
        # Wrap each difference into (-pi, pi]: near end-fire the true
        # phase sits next to +-pi and noise can flip the measured sign —
        # a tiny physical error that would otherwise read ~2pi.
        return np.abs(wrap_angle(measured - gains * np.cos(true_alphas))), pointless
