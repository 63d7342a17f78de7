"""Unit tests for repro.channel.geometry."""

import math

import numpy as np
import pytest

from repro.channel import geometry
from repro.channel.geometry import (
    RoadSegment,
    _brentq,
    aoa_cone_conic,
    hyperbola_y,
    intersect_conics,
    spatial_angle_rad,
    unit,
)
from repro.errors import ConfigurationError, GeometryError


class TestBasics:
    def test_unit_normalizes(self):
        assert np.allclose(unit(np.array([3.0, 0.0, 4.0])), [0.6, 0.0, 0.8])

    def test_unit_zero_raises(self):
        with pytest.raises(GeometryError):
            unit(np.zeros(3))

    def test_spatial_angle_broadside(self):
        angle = spatial_angle_rad(np.array([0.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0]))
        assert angle == pytest.approx(np.pi / 2)

    def test_spatial_angle_endfire(self):
        angle = spatial_angle_rad(np.array([2.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
        assert angle == pytest.approx(0.0)


class TestHyperbola:
    def test_eq15_identity(self):
        """(tan(alpha) x)^2 - y^2 = b^2 must hold on the returned curve."""
        alpha, b = np.deg2rad(70.0), 4.0
        x = np.array([3.0, 5.0, 8.0])
        y = hyperbola_y(alpha, b, x)
        assert np.allclose((np.tan(alpha) * x) ** 2 - y**2, b**2)

    def test_nan_inside_vertex_gap(self):
        y = hyperbola_y(np.deg2rad(45.0), 10.0, np.array([1.0]))
        assert np.isnan(y[0])


class TestAoAConic:
    def test_true_point_lies_on_conic(self):
        """Build the cone from a known tag and verify it passes through it."""
        apex = np.array([0.0, 0.0, 4.0])
        axis = np.array([1.0, 0.0, 0.0])
        tag = np.array([7.0, -4.0, 0.5])
        alpha = spatial_angle_rad(tag - apex, axis)
        conic = aoa_cone_conic(apex, axis, alpha, road_z_m=0.5)
        assert conic.evaluate(tag[0], tag[1]) == pytest.approx(0.0, abs=1e-9)

    def test_tilted_axis_conic(self):
        apex = np.array([1.0, 2.0, 5.0])
        axis = unit(np.array([1.0, 0.3, -0.5]))
        tag = np.array([9.0, -3.0, 1.0])
        alpha = spatial_angle_rad(tag - apex, axis)
        conic = aoa_cone_conic(apex, axis, alpha, road_z_m=1.0)
        assert conic.evaluate(tag[0], tag[1]) == pytest.approx(0.0, abs=1e-9)

    def test_untilted_matches_eq15(self):
        """With a road-parallel axis at the origin the conic reduces to
        the paper's hyperbola (Eq 15)."""
        b = 4.0
        apex = np.array([0.0, 0.0, b])
        alpha = np.deg2rad(75.0)
        conic = aoa_cone_conic(apex, np.array([1.0, 0.0, 0.0]), alpha, road_z_m=0.0)
        x = 6.0
        y_expected = hyperbola_y(alpha, b, np.array([x]))[0]
        roots = conic.y_roots(x)
        assert any(abs(abs(r) - y_expected) < 1e-9 for r in roots)

    def test_y_roots_count(self):
        apex = np.array([0.0, 0.0, 4.0])
        conic = aoa_cone_conic(apex, np.array([1.0, 0.0, 0.0]), np.deg2rad(80.0), 0.0)
        assert len(conic.y_roots(10.0)) == 2
        assert len(conic.y_roots(0.0)) == 0  # inside the vertex gap

    def test_nappe_sign_rejects_mirror(self):
        apex = np.array([0.0, 0.0, 4.0])
        axis = np.array([1.0, 0.0, 0.0])
        tag = np.array([7.0, -4.0, 0.0])
        alpha = spatial_angle_rad(tag - apex, axis)  # < 90 deg: +x side
        conic = aoa_cone_conic(apex, axis, alpha, 0.0)
        assert conic.on_correct_nappe(7.0, -4.0)
        assert not conic.on_correct_nappe(-7.0, -4.0)


class TestIntersectConics:
    def test_two_readers_localize_known_tag(self):
        tag = np.array([12.0, -3.0, 1.0])
        apex_a = np.array([0.0, 5.0, 4.0])
        apex_b = np.array([20.0, -5.0, 4.0])
        axis = np.array([1.0, 0.0, 0.0])
        conic_a = aoa_cone_conic(apex_a, axis, spatial_angle_rad(tag - apex_a, axis), 1.0)
        conic_b = aoa_cone_conic(apex_b, axis, spatial_angle_rad(tag - apex_b, axis), 1.0)
        points = intersect_conics(conic_a, conic_b, (-5.0, 30.0))
        assert any(np.allclose(p, tag[:2], atol=1e-3) for p in points)

    def test_empty_range_rejected(self):
        apex = np.array([0.0, 0.0, 4.0])
        conic = aoa_cone_conic(apex, np.array([1.0, 0.0, 0.0]), 1.0, 0.0)
        with pytest.raises(ConfigurationError):
            intersect_conics(conic, conic, (5.0, 5.0))


@pytest.fixture
def scipy_brentq():
    """SciPy's ``brentq``: the oracle the port must match bit for bit."""
    return pytest.importorskip("scipy.optimize").brentq


def _seeded_brackets(n_cases: int = 600):
    """(f, a, b, xtol) cases whose endpoints differ in sign: cubics,
    shifted sines, exponentials and steep arctangents, both bracket
    orders, xtol log-uniform in [1e-12, 1e-3]."""
    rng = np.random.default_rng(2015)
    families = (
        lambda c: lambda x: c[0] * x**3 + c[1] * x**2 + c[2] * x + c[3],
        lambda c: lambda x: math.sin(3.0 * c[0] * x + c[1]) - 0.3 * c[2],
        lambda c: lambda x: math.exp(c[0] * x) - 1.5 - c[1],
        lambda c: lambda x: math.atan(5.0 * c[0] * (x - c[1])) + 0.01 * c[2],
    )
    cases = []
    while len(cases) < n_cases:
        f = families[len(cases) % len(families)](rng.normal(size=4))
        a, b = rng.uniform(-3.0, 3.0, size=2)
        xtol = 10.0 ** rng.uniform(-12.0, -3.0)
        if f(a) * f(b) < 0.0:
            cases.append((f, float(a), float(b), float(xtol)))
    return cases


class TestBrentPort:
    def test_matches_scipy_bit_for_bit(self, scipy_brentq):
        cases = _seeded_brackets()
        assert {a < b for _, a, b, _ in cases} == {True, False}
        for f, a, b, xtol in cases:
            expected = scipy_brentq(f, a, b, xtol=xtol)
            got = _brentq(f, a, b, xtol)
            assert type(got) is float
            assert got == expected, (a, b, xtol)

    def test_callable_nan_off_its_branch(self, scipy_brentq):
        """Like ``intersect_conics``' callable: NaN where the first
        conic has no y root, finite on the bracketed branch."""

        def on_branch(x):
            return math.sqrt(1.0 - x * x) - 0.6 if abs(x) <= 1.0 else math.nan

        for a, b in ((0.0, 1.0), (1.0, 0.0), (-1.0, -0.2), (-0.2, -1.0)):
            for xtol in (1e-12, 1e-6, 1e-3):
                assert _brentq(on_branch, a, b, xtol) == scipy_brentq(
                    on_branch, a, b, xtol=xtol
                )
        # A NaN the iteration reaches stops both with a ValueError.
        holed = lambda x: math.nan if 0.4 < x < 0.9 else x**3 - 0.5  # noqa: E731
        with pytest.raises(ValueError, match="NaN"):
            scipy_brentq(holed, 0.0, 1.0)
        with pytest.raises(ValueError, match="NaN"):
            _brentq(holed, 0.0, 1.0, 1e-6)

    def test_zero_endpoint_returned_before_any_step(self, scipy_brentq):
        calls = []

        def f(x):
            calls.append(x)
            return x * (x - 2.0)

        # An endpoint where f is exactly zero is the root: both endpoints
        # are evaluated, then no step is taken.
        assert _brentq(f, 0.0, 1.0, 1e-9) == scipy_brentq(f, 0.0, 1.0) == 0.0
        assert _brentq(f, 1.0, 2.0, 1e-9) == scipy_brentq(f, 1.0, 2.0) == 2.0
        assert _brentq(f, 3.0, 0.0, 1e-9) == 0.0
        calls.clear()
        _brentq(f, 2.0, 3.0, 1e-9)
        assert calls == [2.0, 3.0]

    def test_same_sign_bracket_raises(self, scipy_brentq):
        f = lambda x: x * x + 1.0  # noqa: E731
        with pytest.raises(ValueError, match="different signs"):
            scipy_brentq(f, -1.0, 1.0)
        with pytest.raises(ValueError, match="different signs"):
            _brentq(f, -1.0, 1.0, 1e-6)

    def test_conic_fix_identical_to_scipy(self, scipy_brentq, monkeypatch):
        tag = np.array([12.0, -3.0, 1.0])
        apex_a = np.array([0.0, 5.0, 4.0])
        apex_b = np.array([20.0, -5.0, 4.0])
        axis = np.array([1.0, 0.0, 0.0])
        conic_a = aoa_cone_conic(apex_a, axis, spatial_angle_rad(tag - apex_a, axis), 1.0)
        conic_b = aoa_cone_conic(apex_b, axis, spatial_angle_rad(tag - apex_b, axis), 1.0)
        ported = intersect_conics(conic_a, conic_b, (-5.0, 30.0))
        monkeypatch.setattr(
            geometry, "_brentq", lambda f, a, b, xtol: scipy_brentq(f, a, b, xtol=xtol)
        )
        oracle = intersect_conics(conic_a, conic_b, (-5.0, 30.0))
        assert len(ported) == len(oracle) >= 1
        for got, expected in zip(ported, oracle):
            assert np.array_equal(got, expected)


class TestRoadSegment:
    def test_contains(self):
        road = RoadSegment(0.0, 100.0, y_center_m=0.0, width_m=8.0)
        assert road.contains(np.array([50.0, 3.0]))
        assert not road.contains(np.array([50.0, 5.0]))
        assert road.contains(np.array([50.0, 5.0]), margin_m=2.0)

    def test_bounds(self):
        road = RoadSegment(0.0, 10.0, y_center_m=2.0, width_m=4.0)
        assert road.y_min_m == pytest.approx(0.0)
        assert road.y_max_m == pytest.approx(4.0)

    def test_surface_point(self):
        road = RoadSegment(0.0, 10.0, 0.0, 4.0, z_m=1.5)
        assert np.allclose(road.surface_point(3.0, 1.0), [3.0, 1.0, 1.5])

    def test_degenerate_rejected(self):
        with pytest.raises(ConfigurationError):
            RoadSegment(5.0, 5.0, 0.0, 4.0)
