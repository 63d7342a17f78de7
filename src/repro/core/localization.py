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

from dataclasses import dataclass, field

import numpy as np

from ..channel.antenna import AntennaPair, TriangleArray
from ..channel.collision import ReceivedCollision
from ..channel.geometry import RoadSegment, aoa_cone_conic, intersect_conics, unit
from ..constants import PAIR_USABLE_MAX_DEG, PAIR_USABLE_MIN_DEG, WAVELENGTH_M
from ..dsp.spectrum import tone_block_sums, tone_factors
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
    """Measures spatial angles for every tag in a collision (§6).

    Attributes:
        array: the reader's antenna triangle.
        wavelength_m: carrier wavelength.
        min_snr_db: spike detection threshold (forwarded to peak search).
        obs: nullable observability hook (see :mod:`repro.obs`): counts
            each :meth:`estimate_for_cfo` readout by where its probe came
            from (``aoa.readout{probe=basis|built}``). Never affects the
            estimate.
    """

    array: TriangleArray
    wavelength_m: float = WAVELENGTH_M
    min_snr_db: float = 15.0
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
        channels = channels[:3]
        if np.any(np.abs(channels) == 0.0):
            raise LocalizationError("zero channel estimate; no signal at the CFO")
        alphas = []
        for pair, (i, j) in zip(self.array.pairs(), self.array.pair_indices()):
            delta_phi = float(np.angle(channels[j] / channels[i]))
            alphas.append(aoa_from_phase(delta_phi, pair.spacing_m, self.wavelength_m))
        best = int(np.argmin([abs(a - np.pi / 2.0) for a in alphas]))
        return AoAEstimate(
            cfo_hz=float(cfo_hz),
            alphas_rad=tuple(alphas),
            best_pair_index=best,
            channels=channels,
        )

    def estimate_for_cfo(
        self,
        collision: ReceivedCollision,
        cfo_hz: float,
        probe: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> AoAEstimate:
        """AoA of the tag whose spike sits at (or near) ``cfo_hz``.

        Reads the channel at each antenna, then forms the phase difference
        per pair. All three pairs are computed; the one nearest broadside
        is selected, emulating the antenna switch of Fig 6.

        Args:
            probe: the factors ``(outer, inner)`` of ``exp(-j 2 pi cfo_hz
                t)`` on the first antenna's time base, one row each
                (:func:`~repro.dsp.spectrum.tone_factors`), when the
                caller already holds them (the counter's fit factors,
                :attr:`~repro.core.counting.CountEstimate.basis`); built
                here when omitted.
        """
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
                "aoa.readout", probe="basis" if shared and probe is not None else "built"
            )
        if shared:
            # One time base: the three Eq 5 readouts share one probe's
            # factors, the ones estimate_channel builds per antenna.
            if probe is None:
                probe = tone_factors(
                    [cfo_hz], first.t0_s, first.sample_rate_hz, first.n_samples
                )
            channels = np.array(
                [
                    2.0 * complex(tone_block_sums(*probe, wave.samples).sum() / wave.n_samples)
                    for wave in waves
                ]
            )
        else:
            channels = np.array([estimate_channel(wave, cfo_hz) for wave in waves])
        return self.estimate_from_channels(cfo_hz, channels)

    def estimate_from_decode(self, result) -> AoAEstimate:
        """AoA straight from a decode outcome — no extra spectral pass.

        The decoder already read every antenna's channel (Eq 5) for each
        capture it combined; a
        :attr:`~repro.core.decoding.DecodeResult.channels` vector carries
        that evidence coherently summed across captures, so its phase
        differences *are* the AoA measurement, averaged over the whole
        decode burst (§8 meets §6: localization falls out of decoding).
        """
        if result.channels is None:
            raise LocalizationError("decode result carries no channel estimates")
        return self.estimate_from_channels(result.cfo_hz, result.channels)

    def estimate_all(
        self, collision: ReceivedCollision, cfos_hz: list[float] | None = None
    ) -> list[AoAEstimate]:
        """Measure each tag's AoA via the shared collision readout.

        Spikes are detected on the average magnitude spectrum across
        every antenna (no element is privileged) and each spike's channel
        is read per antenna at one refined frequency — the same Eq 5 pass
        the rest of the chain uses.  Passing ``cfos_hz`` (e.g. the
        counting pass's accepted spikes) skips detection entirely.
        """
        if cfos_hz is not None:
            return [self.estimate_for_cfo(collision, float(f)) for f in cfos_hz]
        peaks = extract_collision_peaks(collision, min_snr_db=self.min_snr_db)
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
    rejected (they are "on the sidewalk", footnote 10).
    """

    first: ReaderGeometry
    second: ReaderGeometry
    road_margin_m: float = 1.5
    #: Height of the windshield-mounted transponder above the road. The
    #: AoA cone is intersected with the *transponder* plane (footnote 14:
    #: pole, antennas and tag are treated as coplanar geometry), then the
    #: (x, y) is reported on the road.
    tag_height_m: float = 1.0

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
        plane_z = road.z_m + self.tag_height_m
        conic_a = aoa_cone_conic(
            pair_a.midpoint_m, pair_a.axis, estimate_a.alpha_rad, plane_z
        )
        conic_b = aoa_cone_conic(
            pair_b.midpoint_m, pair_b.axis, estimate_b.alpha_rad, plane_z
        )
        x_range = (road.x_min_m - self.road_margin_m, road.x_max_m + self.road_margin_m)
        points = intersect_conics(conic_a, conic_b, x_range)
        on_road = [p for p in points if road.contains(p, margin_m=self.road_margin_m)]
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
    lane line ``y = lane, z = tag height`` reduces localization to a
    quadratic in the along-road coordinate x. At most two candidates
    survive per lane; road limits, the cone's half-space, and an optional
    hint (e.g. the car's previous fix) disambiguate.

    This is what lets a :class:`~repro.core.network.ReaderNetwork` station
    mint positioned observations from a *single* pole per approach.

    Attributes:
        road: the road segment the lanes belong to.
        lane_ys_m: cross-road coordinates of the lane centers to try.
        tag_height_m: windshield transponder height above the road.
        road_margin_m: tolerance outside the road edge (footnote 10).
        max_phase_error_deg: per-baseline tolerance between the phase a
            candidate would produce and the measured one. Phase noise is
            roughly uniform across pairs (unlike angle noise, which blows
            up toward end-fire), so the gate is applied in phase space: a
            candidate exceeding it on any baseline is a ghost (e.g. a tag
            that is really outside this reader's road segment) and is
            rejected rather than reported.
        obs: nullable observability hook (see :mod:`repro.obs`): counts
            the lane candidates :meth:`locate` scores, by whether the
            phase gate kept them (``locate.candidates{outcome=kept|gated}``).
            Never affects the fix.
    """

    road: RoadSegment
    lane_ys_m: tuple[float, ...]
    tag_height_m: float = 1.0
    road_margin_m: float = 1.5
    max_phase_error_deg: float = 15.0
    obs: object = None

    def locate(
        self,
        estimate: AoAEstimate,
        estimator: AoAEstimator,
        hint_xy: np.ndarray | None = None,
    ) -> np.ndarray:
        """Locate one tag from its AoA at this reader alone.

        Args:
            estimate: the tag's AoA measurement.
            estimator: the estimator that produced it (provides the
                physical pair geometry behind ``best_pair_index``).
            hint_xy: optional prior (x, y); the candidate nearest the
                hint wins. Without a hint, candidates are scored by
                consistency with *all three* measured baselines (the
                selected pair fixes a cone; the other two pairs vote
                between its lane intersections).

        Returns:
            (x, y) world coordinates on the road plane.

        Raises:
            GeometryError: if the cone misses every lane on the road.
        """
        pair = estimator.best_pair(estimate)
        apex = pair.midpoint_m
        axis = pair.axis
        cos_a = float(np.cos(estimate.alpha_rad))
        z = self.road.z_m + self.tag_height_m
        candidates: list[np.ndarray] = []
        for lane_y in self.lane_ys_m:
            dy = lane_y - apex[1]
            dz = z - apex[2]
            # |(p - apex) . axis| = |p - apex| cos(alpha) with p = (x, y, z)
            # becomes a quadratic in X = x - apex_x.
            c1 = axis[1] * dy + axis[2] * dz
            c2 = dy * dy + dz * dz
            a = axis[0] ** 2 - cos_a**2
            b = 2.0 * axis[0] * c1
            c = c1 * c1 - c2 * cos_a**2
            if abs(a) < 1e-12:
                if abs(b) < 1e-12:
                    continue
                roots = [-c / b]
            else:
                disc = b * b - 4.0 * a * c
                if disc < 0:
                    continue
                sq = float(np.sqrt(disc))
                roots = [(-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)]
            for x_rel in roots:
                # The measured alpha fixes which nappe of the double cone.
                along = axis[0] * x_rel + c1
                if cos_a * along < -1e-9:
                    continue
                point = np.array([apex[0] + x_rel, lane_y])
                if self.road.contains(point, margin_m=self.road_margin_m):
                    candidates.append(point)
        # A real tag matches all three measured baselines to within phase
        # noise; a ghost (wrong lane, or a tag outside this road segment
        # whose cone happens to graze it) only matches the selected one.
        ceiling = float(np.deg2rad(self.max_phase_error_deg))
        points = np.array(candidates, dtype=np.float64).reshape(-1, 2)
        errors = self._phase_errors_rad(points, z, estimate, estimator)
        kept = errors.max(axis=1) <= ceiling
        n_kept = int(np.count_nonzero(kept))
        if self.obs is not None:
            if n_kept:
                self.obs.count("locate.candidates", n_kept, outcome="kept")
            if n_kept < kept.size:
                self.obs.count("locate.candidates", kept.size - n_kept, outcome="gated")
        if not n_kept:
            raise GeometryError(
                f"AoA cone (alpha={estimate.alpha_deg:.1f} deg) intersects "
                f"no lane of {self.lane_ys_m} on the road consistently "
                f"with all baselines"
            )
        points, errors = points[kept], errors[kept]
        if hint_xy is not None:
            delta = points - np.asarray(hint_xy, dtype=np.float64)
            # Stacked 1x2 @ 2x1 products are the dot np.linalg.norm takes.
            score = np.sqrt((delta[:, None, :] @ delta[:, :, None])[:, 0, 0])
        else:
            score = np.sum(errors**2, axis=1)
        return points[int(np.argmin(score))].copy()

    @staticmethod
    def _phase_errors_rad(
        points: np.ndarray, z: float, estimate: AoAEstimate, estimator: AoAEstimator
    ) -> np.ndarray:
        """(C, 3) wrapped phase error of each candidate on each baseline.

        The phase a tag at the candidate would produce on a baseline,
        ``phase_from_aoa`` of its true spatial angle, against the measured
        one. One array expression over every candidate and baseline,
        equal bit for bit to scoring them one at a time: the norms and
        direction cosines are stacked ``1x3 @ 3x1`` products, the same
        BLAS dot ``np.linalg.norm`` and ``np.dot`` of a 3-vector take (a
        row sum or ``einsum`` rounds differently).
        """
        pairs = estimator.array.pairs()
        wavelength_m = estimator.wavelength_m
        tags = np.column_stack([points, np.full(len(points), z)])
        directions = tags[:, None, :] - np.array([pair.midpoint_m for pair in pairs])
        norms = np.sqrt((directions[..., None, :] @ directions[..., :, None])[..., 0, 0])
        if np.any(norms == 0.0):
            raise GeometryError("cannot normalize the zero vector")
        axes = np.array([unit(pair.axis) for pair in pairs])
        cosines = (
            (directions / norms[..., None])[..., None, :] @ axes[None, :, :, None]
        )[..., 0, 0]
        true_alphas = np.arccos(np.clip(cosines, -1.0, 1.0))
        gains = np.array([2.0 * np.pi * pair.spacing_m / wavelength_m for pair in pairs])
        measured = np.array(
            [
                phase_from_aoa(alpha, pair.spacing_m, wavelength_m)
                for alpha, pair in zip(estimate.alphas_rad, pairs)
            ]
        )
        # Wrap each difference into (-pi, pi]: near end-fire the true
        # phase sits next to +-pi and noise can flip the measured sign —
        # a tiny physical error that would otherwise read ~2pi.
        return np.abs(wrap_angle(measured - gains * np.cos(true_alphas)))
