"""Shared numeric helpers: RNG normalization, dB math, bit packing."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "as_rng",
    "db_to_power",
    "power_to_db",
    "db_to_amplitude",
    "amplitude_to_db",
    "dbm_to_watts",
    "watts_to_dbm",
    "bits_to_int",
    "int_to_bits",
    "pack_bits",
    "unpack_bits",
    "prbs_bits",
    "wrap_angle",
]


def as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a numpy Generator from a seed, an existing Generator, or None.

    Every stochastic component in the library accepts ``rng=`` and funnels it
    through this helper so experiments are reproducible end to end.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def db_to_power(db: float) -> float:
    """Convert a power ratio in dB to a linear ratio."""
    return float(10.0 ** (db / 10.0))


def power_to_db(ratio: float) -> float:
    """Convert a linear power ratio to dB."""
    if ratio <= 0:
        raise ConfigurationError(f"power ratio must be positive, got {ratio}")
    return float(10.0 * np.log10(ratio))


def db_to_amplitude(db: float) -> float:
    """Convert an amplitude ratio in dB to a linear ratio."""
    return float(10.0 ** (db / 20.0))


def amplitude_to_db(ratio: float) -> float:
    """Convert a linear amplitude ratio to dB."""
    if ratio <= 0:
        raise ConfigurationError(f"amplitude ratio must be positive, got {ratio}")
    return float(20.0 * np.log10(ratio))


def dbm_to_watts(dbm: float) -> float:
    """Convert dBm to watts."""
    return float(10.0 ** ((dbm - 30.0) / 10.0))


def watts_to_dbm(watts: float) -> float:
    """Convert watts to dBm."""
    if watts <= 0:
        raise ConfigurationError(f"power must be positive, got {watts}")
    return float(10.0 * np.log10(watts) + 30.0)


def bits_to_int(bits: Sequence[int] | np.ndarray) -> int:
    """Interpret a most-significant-bit-first bit sequence as an integer."""
    array = np.asarray(bits, dtype=np.uint8)
    if array.size == 0:
        return 0
    if array.size <= 64:
        value = 0
        for bit in array.tolist():
            if bit > 1:
                raise ConfigurationError(f"bit values must be 0 or 1, got {bit}")
            value = (value << 1) | bit
        return value
    if np.any(array > 1):
        bad = array[array > 1][0]
        raise ConfigurationError(f"bit values must be 0 or 1, got {bad}")
    padded = np.concatenate([np.zeros((-array.size) % 8, dtype=np.uint8), array])
    return int.from_bytes(np.packbits(padded).tobytes(), "big")


def int_to_bits(value: int, width: int) -> np.ndarray:
    """Encode ``value`` as ``width`` bits, most significant bit first."""
    value = int(value)  # numpy integers have no to_bytes
    if value < 0:
        raise ConfigurationError(f"value must be non-negative, got {value}")
    if value >= (1 << width):
        raise ConfigurationError(f"value {value} does not fit in {width} bits")
    n_bytes = (width + 7) // 8
    unpacked = np.unpackbits(np.frombuffer(value.to_bytes(n_bytes, "big"), dtype=np.uint8))
    return unpacked[8 * n_bytes - width :]


def pack_bits(fields: Iterable[tuple[int, int]]) -> np.ndarray:
    """Concatenate ``(value, width)`` fields into one MSB-first bit array."""
    parts = [int_to_bits(value, width) for value, width in fields]
    if not parts:
        return np.zeros(0, dtype=np.uint8)
    return np.concatenate(parts)


def unpack_bits(bits: np.ndarray, widths: Sequence[int]) -> list[int]:
    """Split an MSB-first bit array into integers of the given widths."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size != sum(widths):
        raise ConfigurationError(
            f"bit array has {bits.size} bits but widths sum to {sum(widths)}"
        )
    values = []
    offset = 0
    for width in widths:
        values.append(bits_to_int(bits[offset : offset + width]))
        offset += width
    return values


def prbs_bits(n_bits: int, seed: int) -> np.ndarray:
    """Deterministic pseudo-random bit sequence from a 16-bit LFSR.

    Used to fill the factory-fixed packet field so two tags with different
    serial numbers never share payload bits. The LFSR is the maximal-length
    Fibonacci x^16 + x^14 + x^13 + x^11 + 1.
    """
    state = (seed & 0xFFFF) or 0xACE1
    # The register holds b_t .. b_{t+15} (bit j is b_{t+j}) and shifts in
    # b_{t+16} = b_t ^ b_{t+2} ^ b_{t+3} ^ b_{t+5}; output bit i is b_{i+1}.
    # The taps reach at most five bits deep, so the register fixes its next
    # eleven feedback bits at once: step eleven at a time, collecting the
    # stream b_0 b_1 ... as one integer, and unpack it once.
    stream, width = state, 16
    while width <= n_bits:
        feedback = (state ^ (state >> 2) ^ (state >> 3) ^ (state >> 5)) & 0x7FF
        state = (state >> 11) | (feedback << 5)
        stream |= feedback << width
        width += 11
    packed = np.frombuffer(stream.to_bytes((width + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(packed, bitorder="little")[1 : n_bits + 1]


def wrap_angle(radians: float | np.ndarray) -> float | np.ndarray:
    """Wrap an angle (or array of angles) to the interval (-pi, pi]."""
    wrapped = np.mod(np.asarray(radians) + np.pi, 2.0 * np.pi) - np.pi
    if np.isscalar(radians) or np.asarray(radians).ndim == 0:
        return float(wrapped)
    return wrapped
