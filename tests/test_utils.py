"""Unit tests for repro.utils."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.utils import (
    amplitude_to_db,
    as_rng,
    bits_to_int,
    db_to_amplitude,
    db_to_power,
    dbm_to_watts,
    int_to_bits,
    pack_bits,
    power_to_db,
    prbs_bits,
    unpack_bits,
    watts_to_dbm,
    wrap_angle,
)


class TestRng:
    def test_seed_gives_generator(self):
        rng = as_rng(42)
        assert isinstance(rng, np.random.Generator)

    def test_same_seed_same_stream(self):
        assert as_rng(7).integers(0, 1000) == as_rng(7).integers(0, 1000)

    def test_generator_passthrough(self):
        rng = np.random.default_rng(1)
        assert as_rng(rng) is rng

    def test_none_gives_fresh_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)


class TestDbConversions:
    def test_power_roundtrip(self):
        assert power_to_db(db_to_power(13.0)) == pytest.approx(13.0)

    def test_amplitude_roundtrip(self):
        assert amplitude_to_db(db_to_amplitude(-4.5)) == pytest.approx(-4.5)

    def test_3db_doubles_power(self):
        assert db_to_power(3.0103) == pytest.approx(2.0, rel=1e-4)

    def test_6db_doubles_amplitude(self):
        assert db_to_amplitude(6.0206) == pytest.approx(2.0, rel=1e-4)

    def test_dbm_zero_is_milliwatt(self):
        assert dbm_to_watts(0.0) == pytest.approx(1e-3)

    def test_dbm_roundtrip(self):
        assert watts_to_dbm(dbm_to_watts(-51.7)) == pytest.approx(-51.7)

    def test_negative_power_rejected(self):
        with pytest.raises(ConfigurationError):
            power_to_db(-1.0)

    def test_zero_amplitude_rejected(self):
        with pytest.raises(ConfigurationError):
            amplitude_to_db(0.0)


class TestBitPacking:
    def test_known_value(self):
        assert bits_to_int([1, 0, 1, 1]) == 0b1011

    def test_int_to_bits_msb_first(self):
        assert list(int_to_bits(0b1011, 4)) == [1, 0, 1, 1]

    def test_width_padding(self):
        assert list(int_to_bits(1, 5)) == [0, 0, 0, 0, 1]

    def test_overflow_rejected(self):
        with pytest.raises(ConfigurationError):
            int_to_bits(16, 4)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            int_to_bits(-1, 4)

    def test_pack_unpack_fields(self):
        bits = pack_bits([(5, 4), (200, 8), (1, 1)])
        assert bits.size == 13
        assert unpack_bits(bits, [4, 8, 1]) == [5, 200, 1]

    def test_unpack_width_mismatch(self):
        with pytest.raises(ConfigurationError):
            unpack_bits(np.zeros(5, dtype=np.uint8), [4, 4])

    def test_invalid_bit_value_rejected(self):
        with pytest.raises(ConfigurationError):
            bits_to_int([0, 2, 1])

    @given(st.integers(min_value=0, max_value=2**40 - 1))
    def test_roundtrip_property(self, value):
        assert bits_to_int(int_to_bits(value, 40)) == value


class TestPrbs:
    def test_deterministic(self):
        assert np.array_equal(prbs_bits(64, seed=123), prbs_bits(64, seed=123))

    def test_different_seeds_differ(self):
        assert not np.array_equal(prbs_bits(64, seed=1), prbs_bits(64, seed=2))

    def test_zero_seed_is_valid(self):
        bits = prbs_bits(32, seed=0)
        assert bits.size == 32

    def test_balanced_ish(self):
        bits = prbs_bits(4096, seed=99)
        assert 0.4 < bits.mean() < 0.6

    def test_equals_the_one_bit_loop_for_every_seed(self):
        """The eleven-bit stepping is the one-bit LFSR loop, bit for bit,
        for all 65,536 seeds at lengths around the register width and
        the packet's 130 factory bits (a dropped or misplaced tap, or an
        off-by-one in the stream, fails here)."""
        reference = _reference_prbs(130)
        for seed in range(1 << 16):
            for n_bits in (1, 15, 16, 17, 130):
                bits = prbs_bits(n_bits, seed)
                assert bits.dtype == np.uint8 and bits.shape == (n_bits,)
                assert bits.tobytes() == reference[seed, :n_bits].tobytes(), (seed, n_bits)
        assert prbs_bits(0, 5).shape == (0,)


def _reference_prbs(n_bits: int) -> np.ndarray:
    """The x^16 + x^14 + x^13 + x^11 + 1 LFSR stepped one bit per
    iteration, as ``prbs_bits`` stepped it per seed, for every 16-bit
    seed at once: row ``seed`` holds that seed's first ``n_bits`` bits."""
    state = np.arange(1 << 16, dtype=np.int64)
    state[0] = 0xACE1
    out = np.empty((state.size, n_bits), dtype=np.uint8)
    for i in range(n_bits):
        bit = ((state >> 0) ^ (state >> 2) ^ (state >> 3) ^ (state >> 5)) & 1
        state = (state >> 1) | (bit << 15)
        out[:, i] = state & 1
    return out


class TestWrapAngle:
    def test_identity_inside(self):
        assert wrap_angle(1.0) == pytest.approx(1.0)

    def test_wraps_above_pi(self):
        assert wrap_angle(np.pi + 0.5) == pytest.approx(-np.pi + 0.5)

    def test_wraps_below_minus_pi(self):
        assert wrap_angle(-np.pi - 0.5) == pytest.approx(np.pi - 0.5)

    def test_array_input(self):
        out = wrap_angle(np.array([0.0, 2 * np.pi]))
        assert np.allclose(out, [0.0, 0.0])

    @given(st.floats(min_value=-100.0, max_value=100.0))
    def test_always_in_range(self, angle):
        wrapped = wrap_angle(angle)
        assert -np.pi - 1e-9 <= wrapped <= np.pi + 1e-9
