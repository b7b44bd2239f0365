"""Internet addressing: 32-bit addresses and prefixes.

The 1988 architecture used classful 32-bit addresses whose network part
identified the attached network — the paper notes that "addresses should
reflect connectivity".  We implement a small, self-contained address type
(deliberately not :mod:`ipaddress` — the whole substrate is built from
scratch) with prefix/netmask arithmetic sufficient for forwarding,
aggregation in the EGP, and subnetted LANs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
from typing import Iterator, Union

__all__ = ["Address", "Prefix", "AddressError", "BROADCAST", "UNSPECIFIED"]


class AddressError(ValueError):
    """Raised for malformed address or prefix literals."""


@total_ordering
class Address:
    """A 32-bit internet address.

    Accepts dotted-quad strings or raw integers::

        >>> Address("10.0.1.2")
        Address('10.0.1.2')
        >>> int(Address("0.0.0.10"))
        10
    """

    __slots__ = ("_value",)

    def __init__(self, value: Union[str, int, "Address"]):
        if isinstance(value, Address):
            self._value = value._value
        elif isinstance(value, int):
            if not 0 <= value <= 0xFFFFFFFF:
                raise AddressError(f"address out of range: {value}")
            self._value = value
        elif isinstance(value, str):
            self._value = self._parse(value)
        else:
            raise AddressError(f"cannot make Address from {type(value).__name__}")

    @staticmethod
    def _parse(text: str) -> int:
        parts = text.strip().split(".")
        if len(parts) != 4:
            raise AddressError(f"malformed address {text!r}")
        value = 0
        for part in parts:
            if not part.isdigit():
                raise AddressError(f"malformed address {text!r}")
            octet = int(part)
            if octet > 255:
                raise AddressError(f"octet out of range in {text!r}")
            value = (value << 8) | octet
        return value

    # ------------------------------------------------------------------
    def __int__(self) -> int:
        return self._value

    def __index__(self) -> int:
        return self._value

    def __str__(self) -> str:
        v = self._value
        return f"{(v >> 24) & 0xFF}.{(v >> 16) & 0xFF}.{(v >> 8) & 0xFF}.{v & 0xFF}"

    def __repr__(self) -> str:
        return f"Address('{self}')"

    def __eq__(self, other: object) -> bool:
        if type(other) is Address:
            return self._value == other._value
        if isinstance(other, (Address, int)):
            return self._value == int(other)
        if isinstance(other, str):
            try:
                return self._value == Address(other)._value
            except AddressError:
                return NotImplemented
        return NotImplemented

    def __lt__(self, other: "Address") -> bool:
        return self._value < int(other)

    def __hash__(self) -> int:
        return hash(self._value)

    def __add__(self, offset: int) -> "Address":
        return Address(self._value + offset)

    def to_bytes(self) -> bytes:
        """Serialize to 4 big-endian bytes (wire format)."""
        return self._value.to_bytes(4, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Address":
        if len(data) != 4:
            raise AddressError(f"address needs 4 bytes, got {len(data)}")
        return cls(int.from_bytes(data, "big"))

    @property
    def is_broadcast(self) -> bool:
        return self._value == 0xFFFFFFFF

    @property
    def is_unspecified(self) -> bool:
        return self._value == 0


BROADCAST = Address(0xFFFFFFFF)
UNSPECIFIED = Address(0)


@dataclass(frozen=True)
class Prefix:
    """An address prefix ``network/len`` — the unit of routing.

    >>> p = Prefix.parse("10.1.0.0/16")
    >>> p.contains(Address("10.1.2.3"))
    True
    """

    network: Address
    length: int

    def __post_init__(self):
        if not 0 <= self.length <= 32:
            raise AddressError(f"prefix length out of range: {self.length}")
        if int(self.network) & ~self._mask_int():
            raise AddressError(
                f"network {self.network} has host bits set for /{self.length}"
            )

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``a.b.c.d/len``; a bare address parses as a /32."""
        if "/" in text:
            addr_text, _, len_text = text.partition("/")
            if not len_text.isdigit():
                raise AddressError(f"malformed prefix {text!r}")
            return cls(Address(addr_text), int(len_text))
        return cls(Address(text), 32)

    @classmethod
    def of(cls, address: Union[str, Address], length: int) -> "Prefix":
        """Build the prefix of ``length`` covering ``address`` (masks host bits)."""
        value = (address if type(address) is Address else Address(address))._value
        mask = 0 if length == 0 else (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
        return cls(Address(value & mask), length)

    def _mask_int(self) -> int:
        if self.length == 0:
            return 0
        return (0xFFFFFFFF << (32 - self.length)) & 0xFFFFFFFF

    @property
    def netmask(self) -> Address:
        return Address(self._mask_int())

    def contains(self, address: Union[str, Address]) -> bool:
        value = (address if type(address) is Address else Address(address))._value
        return (value & self._mask_int()) == self.network._value

    def covers(self, other: "Prefix") -> bool:
        """True if ``other`` is equal to or more specific than this prefix."""
        return other.length >= self.length and self.contains(other.network)

    @property
    def broadcast(self) -> Address:
        """Directed-broadcast address of the prefix."""
        return Address(int(self.network) | (~self._mask_int() & 0xFFFFFFFF))

    def hosts(self) -> Iterator[Address]:
        """Iterate usable host addresses (skips network & broadcast for <31)."""
        lo = int(self.network)
        hi = int(self.broadcast)
        if self.length >= 31:
            for v in range(lo, hi + 1):
                yield Address(v)
            return
        for v in range(lo + 1, hi):
            yield Address(v)

    def host(self, index: int) -> Address:
        """Return the ``index``-th usable host address (1-based host part)."""
        addr = Address(int(self.network) + index)
        if not self.contains(addr):
            raise AddressError(f"host index {index} outside {self}")
        return addr

    def __str__(self) -> str:
        return f"{self.network}/{self.length}"

    def __repr__(self) -> str:
        return f"Prefix.parse('{self}')"
