"""Table-driven cyclic redundancy checks over bit arrays.

The transponder response ends in a CRC (Fig 2b); the decoder of §8 keeps
combining collisions "until the decoded id passes the checksum test"
(§12.4), so the CRC is the decoder's stopping rule. The IAG CRC parameters
are proprietary; we use CRC-16-CCITT (poly 0x1021, init 0xFFFF), a standard
16-bit code with the same detection budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import ConfigurationError, CrcError
from ..utils import bits_to_int, int_to_bits

__all__ = ["Crc", "CRC16_CCITT", "CRC8_ATM", "CRC32_IEEE"]


@lru_cache(maxsize=None)
def _byte_table(width: int, poly: int) -> tuple[int, ...]:
    """The 256-entry table that advances a CRC register by one byte.

    ``table[b]`` equals eight bit-steps of the shift register seeded with
    ``b`` in its top byte, so byte-at-a-time processing is exactly
    equivalent to the bit loop (width >= 8 only).
    """
    mask = (1 << width) - 1
    top = 1 << (width - 1)
    table = []
    for byte in range(256):
        register = (byte << (width - 8)) & mask
        for _ in range(8):
            if register & top:
                register = ((register << 1) ^ poly) & mask
            else:
                register = (register << 1) & mask
        table.append(register)
    return tuple(table)


@dataclass(frozen=True)
class Crc:
    """A CRC specification operating on MSB-first bit arrays.

    Attributes:
        width: register width in bits.
        poly: generator polynomial (without the leading 1 term).
        init: initial register value.
        xorout: value XORed into the register at the end.
        name: human-readable identifier.
    """

    width: int
    poly: int
    init: int
    xorout: int = 0
    name: str = "crc"

    def __post_init__(self) -> None:
        if not 1 <= self.width <= 64:
            raise ConfigurationError(f"CRC width must be in [1, 64], got {self.width}")
        mask = (1 << self.width) - 1
        if self.poly & ~mask:
            raise ConfigurationError(
                f"polynomial 0x{self.poly:x} does not fit in {self.width} bits"
            )

    @property
    def _mask(self) -> int:
        return (1 << self.width) - 1

    @property
    def _top_bit(self) -> int:
        return 1 << (self.width - 1)

    def compute(self, bits: np.ndarray) -> int:
        """Compute the CRC of an MSB-first bit array.

        Whole bytes go through the byte table (8 bit-steps per lookup);
        any trailing partial byte falls back to the bit loop, so arbitrary
        bit lengths remain supported.
        """
        bits = np.asarray(bits, dtype=np.uint8)
        register = self.init
        top, mask, poly = self._top_bit, self._mask, self.poly
        n_bytes = bits.size // 8
        if n_bytes and self.width >= 8:
            table = _byte_table(self.width, self.poly)
            shift = self.width - 8
            for byte in np.packbits(bits[: n_bytes * 8]).tolist():
                register = ((register << 8) & mask) ^ table[((register >> shift) ^ byte) & 0xFF]
            bits = bits[n_bytes * 8 :]
        for bit in bits:
            register ^= int(bit) << (self.width - 1)
            if register & top:
                register = ((register << 1) ^ poly) & mask
            else:
                register = (register << 1) & mask
        return register ^ self.xorout

    def compute_bytes(self, data: bytes) -> int:
        """Compute the CRC of a byte string (MSB-first within each byte)."""
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        return self.compute(bits)

    def append(self, bits: np.ndarray) -> np.ndarray:
        """Return ``bits`` with the CRC appended as ``width`` MSB-first bits."""
        crc = self.compute(bits)
        return np.concatenate([np.asarray(bits, dtype=np.uint8), int_to_bits(crc, self.width)])

    def check(self, bits_with_crc: np.ndarray) -> bool:
        """True iff the trailing ``width`` bits are the CRC of the rest."""
        bits_with_crc = np.asarray(bits_with_crc, dtype=np.uint8)
        if bits_with_crc.size < self.width:
            return False
        payload = bits_with_crc[: -self.width]
        tail = bits_with_crc[-self.width :]
        if np.any(tail > 1):
            return False
        return self.compute(payload) == bits_to_int(tail)

    def verify(self, bits_with_crc: np.ndarray) -> np.ndarray:
        """Return the payload bits, raising :class:`CrcError` on mismatch."""
        bits_with_crc = np.asarray(bits_with_crc, dtype=np.uint8)
        if not self.check(bits_with_crc):
            raise CrcError(f"{self.name}: checksum mismatch")
        return bits_with_crc[: -self.width]


#: CRC-16/CCITT-FALSE: the packet checksum used throughout this library.
CRC16_CCITT = Crc(width=16, poly=0x1021, init=0xFFFF, xorout=0x0000, name="crc16-ccitt")

#: CRC-8/ATM (HEC) — exposed for completeness and tests.
CRC8_ATM = Crc(width=8, poly=0x07, init=0x00, xorout=0x00, name="crc8-atm")

#: CRC-32 in its non-reflected form — exposed for completeness and tests.
CRC32_IEEE = Crc(width=32, poly=0x04C11DB7, init=0xFFFFFFFF, xorout=0xFFFFFFFF, name="crc32")
