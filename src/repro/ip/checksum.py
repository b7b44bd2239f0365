"""The Internet checksum (one's-complement 16-bit sum).

Shared by the IP header, TCP, UDP, ICMP and distance-vector adverts.  The
paper's goal 5 (cost effectiveness) notes the processing cost of headers;
the checksum is the main per-byte cost of the datagram fast path, so this
module provides two implementations:

* A **vectorized** one (:func:`internet_checksum` / :func:`verify_checksum`)
  that reads the whole buffer as one big integer via :func:`int.from_bytes`
  and reduces it with a single division.  Because ``2**16 == 1 (mod
  0xFFFF)``, the integer is congruent to the sum of its 16-bit words, so one
  ``% 0xFFFF`` (linear in C) replaces the per-word Python loop.
* The original per-word **reference** loop
  (:func:`internet_checksum_reference` / :func:`verify_checksum_reference`),
  kept for differential testing and as the baseline in
  ``benchmarks/bench_fastpath.py``.

Both return bit-identical results on every input (see
``tests/test_fastpath.py`` for the property test, including the odd-length
padding, all-zero and word-sum-a-multiple-of-0xFFFF cases).
"""

from __future__ import annotations

__all__ = [
    "internet_checksum",
    "verify_checksum",
    "internet_checksum_reference",
    "verify_checksum_reference",
    "ones_complement_sum",
]


def ones_complement_sum(data: bytes) -> int:
    """One's-complement 16-bit sum of ``data`` folded into [0, 0xFFFF].

    Odd-length input is treated as padded with a trailing zero byte, per
    RFC 1071.  This is the shared kernel of :func:`internet_checksum` and
    :func:`verify_checksum`.

    Implementation: interpret the buffer as one big-endian integer and
    reduce it mod 0xFFFF.  Since ``2**(16k) ≡ 1 (mod 0xFFFF)``, that is the
    word sum mod 0xFFFF, which the end-around-carry loop also preserves.
    The residue alone cannot tell 0 from 0xFFFF; the loop's answer is 0
    only when every word is 0, and otherwise lies in [1, 0xFFFF].
    """
    if len(data) & 1:
        data = data + b"\x00"
    total = int.from_bytes(data, "big")
    if not total:
        return 0
    return total % 0xFFFF or 0xFFFF


def internet_checksum(data: bytes) -> int:
    """Compute the 16-bit one's-complement Internet checksum of ``data``.

    Odd-length input is padded with a zero byte, per RFC 1071.
    Returns a value in [0, 0xFFFF]; per convention an all-zero computed
    checksum is transmitted as 0xFFFF in UDP (handled by the caller).
    """
    return ~ones_complement_sum(data) & 0xFFFF


def verify_checksum(data: bytes) -> bool:
    """True when ``data`` (checksum field included) sums to zero."""
    return ones_complement_sum(data) == 0xFFFF


# ----------------------------------------------------------------------
# Reference implementations (the seed's per-word loops).
#
# Kept verbatim so the vectorized versions above can be differentially
# tested against them and so the fast-path benchmark has a baseline.
# ----------------------------------------------------------------------
def internet_checksum_reference(data: bytes) -> int:
    """Per-word reference implementation of :func:`internet_checksum`."""
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    # Sum 16-bit big-endian words.
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    # Fold carries (end-around carry).
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def verify_checksum_reference(data: bytes) -> bool:
    """Per-word reference implementation of :func:`verify_checksum`."""
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total == 0xFFFF
