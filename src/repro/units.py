"""The blessed home of unit constants and conversions.

Swift's claims are quantity arithmetic: §4's tables mix bits/s (wire
rates) with bytes/s (file rates), §5's simulation mixes milliseconds of
seek and rotation with seconds of simulated time, and the striping layer
must conserve every byte it scatters.  Every inline ``* 8``, ``/ 1000``
or ``* 1e6`` is an opportunity to corrupt a reported rate by a factor
the reader cannot see — so this module is the single place such factors
are allowed to live.  The ``units`` pass of ``repro check`` enforces
that: raw bit/byte factors and magic scale constants anywhere else in
``src/`` are findings (see docs/CHECKING.md).

Conventions, repo-wide:

* simulated time is **seconds** (``env.now``); device datasheet times
  arrive in ms/µs and are converted here, at the boundary;
* data sizes are **bytes**; wire signalling rates are **bits/second**
  and are converted to bytes/second before mixing with sizes;
* names carry their unit: ``_s``, ``_ms``, ``_us``, ``_bytes``,
  ``_bps``/``_bits_per_s``, ``_bytes_per_s`` (the analyzer's dimension
  inference keys off these suffixes).
"""

from __future__ import annotations

__all__ = [
    "BITS_PER_BYTE",
    "KIB",
    "MIB",
    "KB",
    "MB",
    "MS_PER_S",
    "US_PER_S",
    "ms",
    "us",
    "s_to_ms",
    "kb_per_s",
    "mb_per_s",
    "to_bits",
    "to_bytes",
    "to_bytes_per_s",
    "to_bits_per_s",
    "seconds_to_send",
]

#: Bits per byte — the factor behind every Mb/s vs MB/s confusion.
BITS_PER_BYTE = 8

#: Binary size prefixes (what memories and striping units use).
KIB = 1024
MIB = 1 << 20

#: Decimal size prefixes (what datasheets and wire rates use).
KB = 1_000
MB = 1_000_000

#: Sub-second time scales.
MS_PER_S = 1_000.0
US_PER_S = 1_000_000.0


# -- converters (plain floats for the hot paths) ------------------------------


def ms(value_ms: float) -> float:
    """Milliseconds -> seconds (datasheet seek/rotation times)."""
    return value_ms / MS_PER_S


def us(value_us: float) -> float:
    """Microseconds -> seconds (inter-frame gaps, slot times)."""
    return value_us / US_PER_S


def s_to_ms(value_s: float) -> float:
    """Seconds -> milliseconds (the figures plot ms on their y-axes)."""
    return value_s * MS_PER_S


def kb_per_s(rate_kb_s: float) -> float:
    """KB/s -> bytes/second (Table 2's sequential rates)."""
    return rate_kb_s * KB


def mb_per_s(rate_mb_s: float) -> float:
    """MB/s -> bytes/second (datasheet media rates)."""
    return rate_mb_s * MB


def to_bits(nbytes: float) -> float:
    """Bytes -> bits (what actually crosses the wire)."""
    return nbytes * BITS_PER_BYTE


def to_bytes(nbits: float) -> float:
    """Bits -> bytes."""
    return nbits / BITS_PER_BYTE


def to_bytes_per_s(bits_per_s: float) -> float:
    """A wire signalling rate (bits/s) -> bytes/second."""
    return bits_per_s / BITS_PER_BYTE


def to_bits_per_s(bytes_per_s: float) -> float:
    """Bytes/second -> bits/second."""
    return bytes_per_s * BITS_PER_BYTE


def seconds_to_send(nbytes: float, bits_per_s: float) -> float:
    """Wire time for ``nbytes`` at a ``bits_per_s`` signalling rate."""
    if bits_per_s <= 0:
        raise ValueError("bits_per_s must be positive")
    return to_bits(nbytes) / bits_per_s

