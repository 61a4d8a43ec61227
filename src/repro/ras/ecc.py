"""Error-correcting-code math for memory protection.

Section II-A5: ECC handles regular arrays (DRAM, SRAM) but costs area —
a real constraint in the space-limited EHP. This module provides the
standard schemes' storage overheads and coverage, plus the Hamming-bound
arithmetic behind SEC-DED sizing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["ecc_overhead_bits", "EccScheme", "SECDED", "Chipkill", "NoEcc"]


def ecc_overhead_bits(data_bits: int) -> int:
    """Check bits for SEC-DED over *data_bits* (Hamming + parity).

    Smallest ``r`` with ``2**r >= data_bits + r + 1``, plus one
    double-error-detect parity bit.
    """
    if data_bits <= 0:
        raise ValueError("data_bits must be positive")
    r = 1
    while (1 << r) < data_bits + r + 1:
        r += 1
    return r + 1


@dataclass(frozen=True)
class EccScheme:
    """A memory protection scheme's cost/coverage summary.

    ``coverage_transient`` is the fraction of transient memory faults
    corrected or safely detected; ``coverage_hard`` the fraction of
    permanent device faults survived without intervention (chipkill's
    raison d'etre); ``storage_overhead`` the extra capacity fraction;
    ``latency_penalty`` the relative access-time cost of encode/decode.
    """

    name: str
    storage_overhead: float
    coverage_transient: float
    latency_penalty: float
    coverage_hard: float = 0.0

    def __post_init__(self) -> None:
        if self.storage_overhead < 0:
            raise ValueError("storage overhead must be non-negative")
        if not 0.0 <= self.coverage_transient <= 1.0:
            raise ValueError("coverage must be in [0, 1]")
        if not 0.0 <= self.coverage_hard <= 1.0:
            raise ValueError("coverage_hard must be in [0, 1]")
        if self.latency_penalty < 0:
            raise ValueError("latency penalty must be non-negative")

    def effective_capacity(self, raw_bytes: float) -> float:
        """Usable capacity once check bits are carved out."""
        if raw_bytes < 0:
            raise ValueError("raw_bytes must be non-negative")
        return raw_bytes / (1.0 + self.storage_overhead)


def _secded_overhead(word_bits: int = 64) -> float:
    return ecc_overhead_bits(word_bits) / word_bits


NoEcc = EccScheme(
    name="none", storage_overhead=0.0, coverage_transient=0.0,
    latency_penalty=0.0,
)

SECDED = EccScheme(
    name="SEC-DED(72,64)",
    storage_overhead=_secded_overhead(64),
    coverage_transient=0.999,
    latency_penalty=0.01,
    coverage_hard=0.30,  # single-bit hard faults look like stuck cells
)

Chipkill = EccScheme(
    name="chipkill",
    storage_overhead=0.1875,  # e.g., 32 data + 6 check symbols per rank
    coverage_transient=0.9995,
    latency_penalty=0.03,
    coverage_hard=0.995,  # tolerates a whole failed device per rank
)


def silent_error_rate(
    transient_fit: float, scheme: EccScheme
) -> float:
    """Residual uncorrected/undetected FIT under *scheme*."""
    if transient_fit < 0:
        raise ValueError("transient_fit must be non-negative")
    return transient_fit * (1.0 - scheme.coverage_transient)


def interleaving_factor_for_rate(
    raw_ber: float, target_word_error: float, word_bits: int = 64
) -> int:
    """How many ways to interleave so multi-bit upsets in one physical
    neighbourhood land in distinct ECC words.

    With raw bit-error probability *raw_ber* per word, SEC-DED fails on
    >= 2 errors; interleaving by ``k`` divides the pairwise probability
    by ``k``. Returns the smallest power-of-two factor achieving the
    target.
    """
    if not 0.0 < raw_ber < 1.0:
        raise ValueError("raw_ber must be in (0, 1)")
    if not 0.0 < target_word_error < 1.0:
        raise ValueError("target_word_error must be in (0, 1)")
    p_multi = 1.0 - (1.0 - raw_ber) ** word_bits - word_bits * raw_ber * (
        1.0 - raw_ber
    ) ** (word_bits - 1)
    if p_multi <= target_word_error:
        return 1
    k = math.ceil(p_multi / target_word_error)
    return 1 << max(0, (k - 1).bit_length())
