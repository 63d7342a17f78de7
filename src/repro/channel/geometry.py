"""Deployment geometry: spatial angles, AoA cones and their road sections.

Coordinate frame (matching Fig 7): the origin sits at a reader's antenna
center on top of its pole; **x** runs along the road, **y** across it, and
**z** points up. The road surface is the plane ``z = -pole_height``.

An AoA measurement constrains the tag to a *cone* around the antenna-pair
axis (Eq 14). Intersected with the road plane this yields a conic curve —
a hyperbola for a road-parallel axis (Eq 15), an ellipse when the pair is
tilted 60° (§6). Two readers yield two conics whose intersection, filtered
to points on the road rather than the sidewalk (footnote 10), localizes
the car.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import ConfigurationError, GeometryError

__all__ = [
    "unit",
    "spatial_angle_rad",
    "hyperbola_y",
    "Conic",
    "aoa_cone_conic",
    "intersect_conics",
    "RoadSegment",
]


def unit(v: np.ndarray) -> np.ndarray:
    """Normalize a vector, raising on zero length."""
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise GeometryError("cannot normalize the zero vector")
    return v / norm


def spatial_angle_rad(direction: np.ndarray, axis: np.ndarray) -> float:
    """The spatial angle between a direction and an antenna-pair axis.

    This is the alpha of Eq 10/Fig 5: the angle whose cosine the phase
    difference between two antennas measures.
    """
    cos_a = float(np.clip(np.dot(unit(direction), unit(axis)), -1.0, 1.0))
    return float(np.arccos(cos_a))


def hyperbola_y(alpha_rad: float, pole_height_m: float, x_m: np.ndarray) -> np.ndarray:
    """Solve Eq 15 for |y|: ``(tan(alpha) x)^2 - y^2 = b^2``.

    Returns NaN where the hyperbola does not exist (inside the vertex gap).
    Only valid for a road-parallel (untilted) pair axis.
    """
    x_m = np.asarray(x_m, dtype=np.float64)
    value = (np.tan(alpha_rad) * x_m) ** 2 - pole_height_m**2
    return np.sqrt(np.where(value >= 0.0, value, np.nan))


@dataclass(frozen=True)
class Conic:
    """Implicit conic ``A x^2 + B x y + C y^2 + D x + E y + F = 0`` on the road.

    Produced by intersecting an AoA cone with the road plane. Coordinates
    are *world* (x, y) on the road surface, not reader-relative. The conic
    additionally remembers the half-space sign needed to reject the mirror
    cone (a cone constraint squared admits both alpha and pi - alpha).
    """

    a: float
    b: float
    c: float
    d: float
    e: float
    f: float
    apex: np.ndarray
    axis: np.ndarray
    cos_alpha: float
    plane_z: float

    def evaluate(self, x: float | np.ndarray, y: float | np.ndarray) -> float | np.ndarray:
        """The implicit function; zero on the conic."""
        return (
            self.a * x * x
            + self.b * x * y
            + self.c * y * y
            + self.d * x
            + self.e * y
            + self.f
        )

    def y_roots(self, x: float) -> list[float]:
        """Solve the conic for y at a given x (0, 1 or 2 real roots)."""
        qa = self.c
        qb = self.b * x + self.e
        qc = self.a * x * x + self.d * x + self.f
        if abs(qa) < 1e-15:
            if abs(qb) < 1e-15:
                return []
            return [-qc / qb]
        disc = qb * qb - 4.0 * qa * qc
        if disc < 0.0:
            return []
        root = float(np.sqrt(disc))
        return sorted(((-qb - root) / (2 * qa), (-qb + root) / (2 * qa)))

    def on_correct_nappe(self, x: float, y: float) -> bool:
        """True if (x, y) lies on the cone's correct half (signed alpha)."""
        p = np.array([x, y, self.plane_z]) - self.apex
        proj = float(np.dot(p, self.axis))
        if abs(self.cos_alpha) < 1e-12:
            return True
        return np.sign(proj) == np.sign(self.cos_alpha) or proj == 0.0


def aoa_cone_conic(
    apex_m: np.ndarray,
    axis: np.ndarray,
    alpha_rad: float,
    road_z_m: float,
) -> Conic:
    """Intersect the AoA cone ``cos(angle(p, axis)) = cos(alpha)`` with the road.

    Args:
        apex_m: world position of the antenna-pair midpoint (cone apex).
        axis: pair axis direction (need not be normalized).
        alpha_rad: measured spatial angle.
        road_z_m: z of the road plane in world coordinates.

    Returns:
        The implicit :class:`Conic` in world road coordinates.
    """
    apex_m = np.asarray(apex_m, dtype=np.float64)
    u = unit(axis)
    cos_a = float(np.cos(alpha_rad))
    c2 = cos_a * cos_a
    zc = road_z_m - apex_m[2]
    ux, uy, uz = (float(component) for component in u)
    # (ux X + uy Y + uz Z)^2 = c2 (X^2 + Y^2 + Z^2), X = x - apex_x etc.
    a = ux * ux - c2
    b = 2.0 * ux * uy
    c = uy * uy - c2
    d_x = 2.0 * ux * uz * zc
    e_y = 2.0 * uy * uz * zc
    f0 = (uz * uz - c2) * zc * zc
    # Shift from reader-relative (X, Y) to world (x, y).
    ax0, ay0 = float(apex_m[0]), float(apex_m[1])
    d = d_x - 2.0 * a * ax0 - b * ay0
    e = e_y - 2.0 * c * ay0 - b * ax0
    f = (
        f0
        + a * ax0 * ax0
        + b * ax0 * ay0
        + c * ay0 * ay0
        - d_x * ax0
        - e_y * ay0
    )
    return Conic(a, b, c, d, e, f, apex_m, u, cos_a, road_z_m)


def intersect_conics(
    first: Conic,
    second: Conic,
    x_range_m: tuple[float, float],
    n_scan: int = 400,
    tolerance_m: float = 1e-6,
) -> list[np.ndarray]:
    """Numerically intersect two road-plane conics.

    Walks x across ``x_range_m``; at each x the first conic gives up to two
    y branches; sign changes of the second conic along each branch are
    refined with Brent's method. Points on the wrong cone nappe of either
    conic are discarded (mirror-image rejection).

    Returns:
        List of (x, y) road points, deduplicated.
    """
    lo, hi = x_range_m
    if hi <= lo:
        raise ConfigurationError(f"empty x range: {x_range_m}")
    xs = np.linspace(lo, hi, n_scan)

    def branch_values(branch: int) -> np.ndarray:
        values = np.full(xs.size, np.nan)
        for i, x in enumerate(xs):
            roots = first.y_roots(float(x))
            if len(roots) > branch:
                values[i] = second.evaluate(float(x), roots[branch])
        return values

    def y_on_branch(x: float, branch: int) -> float | None:
        roots = first.y_roots(x)
        return roots[branch] if len(roots) > branch else None

    points: list[np.ndarray] = []
    for branch in (0, 1):
        g = branch_values(branch)
        for i in range(xs.size - 1):
            g0, g1 = g[i], g[i + 1]
            if np.isnan(g0) or np.isnan(g1):
                continue
            if g0 == 0.0:
                crossing_x = float(xs[i])
            elif g0 * g1 < 0.0:
                crossing_x = _brentq(
                    lambda x: second.evaluate(x, y_on_branch(x, branch))
                    if y_on_branch(x, branch) is not None
                    else np.nan,
                    float(xs[i]),
                    float(xs[i + 1]),
                    tolerance_m,
                )
            else:
                continue
            y = y_on_branch(float(crossing_x), branch)
            if y is None:
                continue
            candidate = np.array([crossing_x, y])
            if not first.on_correct_nappe(*candidate):
                continue
            if not second.on_correct_nappe(*candidate):
                continue
            if all(np.linalg.norm(candidate - p) > 10 * tolerance_m for p in points):
                points.append(candidate)
    return points


#: Brent's relative tolerance and iteration cap: SciPy's ``brentq``
#: defaults (``4 * eps`` is the smallest ``rtol`` SciPy accepts).
_BRENT_RTOL = 4.0 * float(np.finfo(np.float64).eps)
_BRENT_MAXITER = 100


def _brentq(f: Callable[[float], float], xa: float, xb: float, xtol: float) -> float:
    """Root of ``f`` in the bracket ``[xa, xb]`` by Brent's method.

    A line-for-line port of SciPy's C ``brentq`` (``scipy/optimize/Zeros/
    brentq.c``) with its Python wrapper's checks, so it returns the same
    float: an endpoint where ``f`` is exactly zero is returned before any
    iteration, a same-sign bracket raises ``ValueError``, a NaN value of
    ``f`` raises ``ValueError`` and no convergence within
    ``_BRENT_MAXITER`` iterations raises ``RuntimeError``. (``f`` is never
    zero or NaN where C tests ``signbit``, so ``< 0`` stands in for it.)
    """

    def call(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"f({x}) is NaN; Brent's method cannot continue")
        return float(fx)

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        # The tolerance is 2 * delta.
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # Interpolate.
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # Extrapolate.
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (
                    -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                )
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # Good short step.
                spre, scur = scur, stry
            else:
                # Bisect.
                spre = scur = sbis
        else:
            # Bisect.
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"no convergence in {_BRENT_MAXITER} iterations, at {xcur}")


@dataclass(frozen=True)
class RoadSegment:
    """A straight road: centerline along x, finite width, on plane z.

    Attributes:
        x_min_m, x_max_m: extent along the road.
        y_center_m: centerline y.
        width_m: total paved width.
        z_m: road surface height in world coordinates.
    """

    x_min_m: float
    x_max_m: float
    y_center_m: float
    width_m: float
    z_m: float = 0.0

    def __post_init__(self) -> None:
        if self.x_max_m <= self.x_min_m or self.width_m <= 0:
            raise ConfigurationError("degenerate road segment")

    @property
    def y_min_m(self) -> float:
        return self.y_center_m - self.width_m / 2.0

    @property
    def y_max_m(self) -> float:
        return self.y_center_m + self.width_m / 2.0

    def contains(self, point_xy: np.ndarray, margin_m: float = 0.0) -> bool:
        """Whether a road-plane point lies on the pavement (footnote 10)."""
        x, y = float(point_xy[0]), float(point_xy[1])
        return (
            self.x_min_m - margin_m <= x <= self.x_max_m + margin_m
            and self.y_min_m - margin_m <= y <= self.y_max_m + margin_m
        )

    def surface_point(self, x_m: float, y_m: float) -> np.ndarray:
        """A 3D point on the road surface."""
        return np.array([x_m, y_m, self.z_m])
