"""Unit tests for repro.channel.antenna."""

import numpy as np
import pytest

from repro.channel.antenna import AntennaPair, TriangleArray
from repro.constants import ANTENNA_SPACING_M, WAVELENGTH_M
from repro.errors import ConfigurationError


class TestAntennaPair:
    def test_spacing(self):
        pair = AntennaPair(np.zeros(3), np.array([0.1, 0.0, 0.0]))
        assert pair.spacing_m == pytest.approx(0.1)

    def test_axis_is_unit(self):
        pair = AntennaPair(np.zeros(3), np.array([0.0, 2.0, 0.0]))
        assert np.allclose(pair.axis, [0.0, 1.0, 0.0])

    def test_midpoint(self):
        pair = AntennaPair(np.zeros(3), np.array([2.0, 0.0, 0.0]))
        assert np.allclose(pair.midpoint_m, [1.0, 0.0, 0.0])

    def test_true_spatial_angle(self):
        pair = AntennaPair(np.array([-0.1, 0.0, 0.0]), np.array([0.1, 0.0, 0.0]))
        assert pair.true_spatial_angle_rad(np.array([0.0, 5.0, 0.0])) == pytest.approx(
            np.pi / 2
        )

    def test_coincident_elements_rejected(self):
        with pytest.raises(ConfigurationError):
            AntennaPair(np.zeros(3), np.zeros(3))


class TestTriangleArray:
    @pytest.fixture
    def array(self):
        return TriangleArray.street_pole(np.array([0.0, 0.0, 4.0]))

    def test_three_elements(self, array):
        assert array.positions_m.shape == (3, 3)

    def test_equilateral_with_half_wavelength_sides(self, array):
        positions = array.positions_m
        for i, j in ((0, 1), (1, 2), (2, 0)):
            side = np.linalg.norm(positions[i] - positions[j])
            assert side == pytest.approx(ANTENNA_SPACING_M, rel=1e-9)
            assert side == pytest.approx(WAVELENGTH_M / 2.0, rel=1e-9)

    def test_centroid_is_center(self, array):
        assert np.allclose(array.positions_m.mean(axis=0), [0.0, 0.0, 4.0])

    def test_pair_axes_mutually_60_degrees(self, array):
        pairs = array.pairs()
        for i in range(3):
            a = pairs[i].axis
            b = pairs[(i + 1) % 3].axis
            angle = np.rad2deg(np.arccos(np.clip(abs(np.dot(a, b)), -1, 1)))
            assert angle == pytest.approx(60.0, abs=1e-6)

    def test_street_pole_tilt(self):
        """Baselines lie in a plane tilted 60 degrees from the road."""
        array = TriangleArray.street_pole(np.array([0.0, 0.0, 4.0]), tilt_deg=60.0)
        # Plane normal: cross of the two basis vectors.
        normal = np.cross(array.e1, array.e2)
        # Angle between plane and horizontal = 90 - angle(normal, z).
        cos_nz = abs(normal[2]) / np.linalg.norm(normal)
        plane_tilt = 90.0 - np.rad2deg(np.arccos(cos_nz))
        assert plane_tilt == pytest.approx(90.0 - 60.0, abs=1e-6)

    def test_pair_indices_align_with_pairs(self, array):
        positions = array.positions_m
        for pair, (i, j) in zip(array.pairs(), array.pair_indices()):
            assert np.allclose(pair.first_m, positions[i])
            assert np.allclose(pair.second_m, positions[j])

    def test_non_orthogonal_basis_rejected(self):
        with pytest.raises(ConfigurationError):
            TriangleArray(
                center_m=np.zeros(3),
                e1=np.array([1.0, 0.0, 0.0]),
                e2=np.array([1.0, 1.0, 0.0]),
            )

    def test_returned_geometry_cannot_change_later_calls(self, array):
        """Positions and baselines are computed once and shared; what a
        caller gets back is read-only, and the pair list is its own."""
        positions = array.positions_m.copy()
        pairs = array.pairs()
        baselines = [(p.first_m.copy(), p.second_m.copy(), p.spacing_m,
                      p.axis.copy(), p.midpoint_m.copy()) for p in pairs]
        with pytest.raises(ValueError):
            array.positions_m[0, 0] = 99.0
        with pytest.raises(ValueError):
            array.element(1)[2] += 1.0
        for pair in pairs:
            for values in (pair.first_m, pair.second_m, pair.axis, pair.midpoint_m):
                with pytest.raises(ValueError):
                    values[0] = 99.0
        pairs.reverse()
        pairs.append(pairs[0])
        assert np.array_equal(array.positions_m, positions)
        again = array.pairs()
        assert len(again) == 3
        for pair, (first, second, spacing, axis, midpoint) in zip(again, baselines):
            assert np.array_equal(pair.first_m, first)
            assert np.array_equal(pair.second_m, second)
            assert pair.spacing_m == spacing
            assert np.array_equal(pair.axis, axis)
            assert np.array_equal(pair.midpoint_m, midpoint)

    def test_pair_copies_its_positions(self):
        """A pair does not alias the caller's arrays, so its cached
        baseline can never go stale."""
        first, second = np.zeros(3), np.array([0.0, 2.0, 0.0])
        pair = AntennaPair(first, second)
        assert pair.spacing_m == 2.0
        second[1] = 5.0
        assert pair.second_m[1] == 2.0
        assert pair.spacing_m == 2.0
        assert np.array_equal(pair.midpoint_m, [0.0, 1.0, 0.0])

    def test_element_accessor(self, array):
        assert np.allclose(array.element(1), array.positions_m[1])

    def test_custom_side(self):
        array = TriangleArray.street_pole(np.zeros(3), side_m=0.3)
        d = np.linalg.norm(array.positions_m[0] - array.positions_m[1])
        assert d == pytest.approx(0.3)
