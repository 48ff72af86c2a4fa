"""Systematic Reed-Solomon erasure codec over GF(2^16).

Shares are byte strings of equal even length; each big-endian byte pair
is one field symbol, and every lane (symbol position across the share
list) is coded independently. A codeword of k data shares has 2k shares:
the data at evaluation points 0..k-1 and the parity at k..2k-1.

One rule both encodes and decodes: interpolate through the first k given
shares (by position) and evaluate every other position once. Encoding
gives positions 0..k-1. Decoding re-evaluates any present share beyond
its first k, so inconsistent inputs surface as a mismatch between the
reconstruction and whatever the caller committed to.

GF(2^16) keeps codewords of length 2k below the field size for k up to
16384. Arithmetic runs on log/antilog tables built once at import, and
interpolation uses the Lagrange basis.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

FIELD_BITS = 16
FIELD_SIZE = 1 << FIELD_BITS
_PRIMITIVE_POLY = 0x1100B  # x^16 + x^12 + x^3 + x + 1
_ORDER = FIELD_SIZE - 1

MAX_K = 16384


class Unrecoverable(Exception):
    """Fewer shares than needed to reconstruct the codeword."""


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    exp = np.zeros(2 * _ORDER, dtype=np.uint32)
    log = np.zeros(FIELD_SIZE, dtype=np.uint32)
    x = 1
    for i in range(_ORDER):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & FIELD_SIZE:
            x ^= _PRIMITIVE_POLY
    exp[_ORDER:] = exp[:_ORDER]
    return exp, log

_EXP, _LOG = _build_tables()

# Sentinel log for zero: any sum involving it lands in the zero-filled
# tail of _EXP_PAD, so products with zero come out zero without branching.
_ZERO_LOG = 1 << 17
_EXP_PAD = np.zeros(2 * _ZERO_LOG + 1, dtype=np.uint16)
_EXP_PAD[: 2 * _ORDER] = _EXP.astype(np.uint16)
_LOG_PAD = _LOG.astype(np.int64)
_LOG_PAD[0] = _ZERO_LOG


def gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return int(_EXP[int(_LOG[a]) + int(_LOG[b])])


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("inverse of zero in GF(2^16)")
    return int(_EXP[_ORDER - int(_LOG[a])])


def _matmul(matrix: np.ndarray, data: np.ndarray) -> np.ndarray:
    """GF(2^16) matrix product: (m, k) x (k, lanes) -> (m, lanes)."""
    m = matrix.shape[0]
    out = np.zeros((m, data.shape[1]), dtype=np.uint16)
    log_rows = _LOG_PAD[matrix]          # (m, k)
    log_data = _LOG_PAD[data]            # (k, lanes)
    for i in range(matrix.shape[1]):
        out ^= _EXP_PAD[log_rows[:, i, None] + log_data[None, i, :]]
    return out


@lru_cache(maxsize=4096)
def _interpolation_matrix(xs: tuple[int, ...], targets: tuple[int, ...]) -> np.ndarray:
    """Rows evaluate the polynomial through points xs at each target.

    Entry [t, m] is L_m(t) = prod_j (t ^ x_j) / ((t ^ x_m) prod_{j!=m} (x_m ^ x_j)), one
    antilog of a log sum: no target is in xs, and x_m ^ x_m = 0 adds _LOG[0] = 0.
    """
    support = np.array(xs, dtype=np.int64)
    diff_logs = _LOG[np.bitwise_xor.outer(np.array(targets, dtype=np.int64), support)]
    numer = diff_logs.sum(axis=1, dtype=np.int64)
    denom = _LOG[np.bitwise_xor.outer(support, support)].sum(axis=1, dtype=np.int64)
    exponents = (numer[:, None] - diff_logs - denom[None, :]) % _ORDER
    return _EXP[exponents].astype(np.uint16)


def _shares_to_symbols(shares: Sequence[bytes]) -> np.ndarray:
    length = len(shares[0])
    if length == 0 or length % 2:
        raise ValueError("share length must be positive and even")
    for sh in shares:
        if len(sh) != length:
            raise ValueError("shares must all have the same length")
    return np.array([np.frombuffer(sh, dtype=">u2") for sh in shares], dtype=np.uint16)


def _symbols_to_shares(symbols: np.ndarray) -> list[bytes]:
    return [row.astype(">u2").tobytes() for row in symbols]


def _codeword(given: Sequence[tuple[int, bytes]], k: int) -> list[bytes]:
    """The 2k shares through k given (position, share) pairs, those unchanged."""
    symbols = _shares_to_symbols([sh for _, sh in given])
    xs = tuple(pos for pos, _ in given)
    targets = tuple(sorted(set(range(2 * k)).difference(xs)))
    evaluated = _matmul(_interpolation_matrix(xs, targets), symbols)
    codeword = dict(zip(targets, _symbols_to_shares(evaluated)))
    codeword.update((pos, bytes(share)) for pos, share in given)
    return [codeword[pos] for pos in range(2 * k)]


def rs_encode(data: Sequence[bytes]) -> list[bytes]:
    """Extend k equal-length shares to a systematic codeword of 2k shares."""
    k = len(data)
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k must be in 1..{MAX_K}")
    return _codeword(list(enumerate(data)), k)


def rs_decode(present: Sequence[tuple[int, bytes]], k: int) -> list[bytes]:
    """Reconstruct the full 2k-share codeword from any k present shares.

    present holds (position, share) pairs with distinct positions in
    [0, 2k). Raises Unrecoverable when fewer than k shares are given.
    Present shares beyond the first k are re-evaluated, so a corrupted
    one shows up as a difference between input and output.
    """
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k must be in 1..{MAX_K}")
    positions = [pos for pos, _ in present]
    if len(set(positions)) != len(positions):
        raise ValueError("duplicate share positions")
    if any(not 0 <= pos < 2 * k for pos in positions):
        raise ValueError("share position out of range")
    if len(present) < k:
        raise Unrecoverable("unrecoverable: fewer than k shares present")
    return _codeword(sorted(present, key=lambda item: item[0])[:k], k)
