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

The rule has two evaluators. When k is a power of two and the k given
positions are one half of the codeword (0..k-1 or k..2k-1), those points
are the F2-subspace V = {0..k-1} of GF(2^16) or its coset k ^ V, and an
additive FFT in Lin, Chung and Han's novel polynomial basis (FOCS 2014)
interpolates on one half and evaluates on the other in O(k log k) per
lane. Every other pattern, and every k that is not a power of two,
multiplies by a Lagrange interpolation matrix: O(k^2) time per lane and
O(k^2) memory, several k x k arrays, which is over 5 GiB at k = 16384.
Both produce the same bytes, because the polynomial of degree below k
through k points is unique.

GF(2^16) keeps codewords of length 2k below the field size for k up to
16384. Arithmetic runs on log/antilog tables built once at import.
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


def _subspace_table() -> np.ndarray:
    """Row i holds Ŵ_i(2^b) for each bit b, the normalised subspace polynomials.

    W_i(x) = prod_{a < 2^i} (x ^ a) vanishes on the subspace {0..2^i-1}, so
    it is F2-linear and fixed by its values on the bit basis; and
    W_{i+1}(x) = W_i(x) W_i(x ^ 2^i) = W_i(x) (W_i(x) ^ W_i(2^i)).
    Ŵ_i = W_i / W_i(2^i), and 2^i is not a root.
    """
    w = [1 << b for b in range(FIELD_BITS)]
    rows = []
    for i in range(MAX_K.bit_length() - 1):
        inv = gf_inv(w[i])
        rows.append([gf_mul(v, inv) for v in w])
        w = [gf_mul(v, v ^ w[i]) for v in w]
    return np.array(rows, dtype=np.int64)

_W_HAT = _subspace_table()


@lru_cache(maxsize=64)
def _skew_logs(k: int, beta: int) -> tuple[np.ndarray, ...]:
    """Per layer i, log Ŵ_i(beta ^ c) for each block base c in range(0, k, 2^(i+1)).

    Ŵ_i is linear, so each skew is the XOR of its row's values at the set
    bits of beta ^ c.
    """
    layers = []
    for i in range(k.bit_length() - 1):
        points = beta ^ np.arange(0, k, 2 << i)
        bits = (points[:, None] >> np.arange(FIELD_BITS)) & 1
        layers.append(_LOG_PAD[np.bitwise_xor.reduce(bits * _W_HAT[i], axis=1)])
    return tuple(layers)


def _butterflies(symbols: np.ndarray, logs: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the low and high halves of each block of width 2^(i+1)."""
    blocks = symbols.reshape(len(logs), 2, 1 << i, -1)
    return blocks[:, 0], blocks[:, 1]


def _skew_mul(high: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """Each block's high half times its skew: one log gather, one antilog gather."""
    exponents = _LOG_PAD.take(high)
    exponents += logs[:, None, None]
    return _EXP_PAD.take(exponents)


def _fft(coeffs: np.ndarray, beta: int) -> np.ndarray:
    """Evaluate, in place, novel-basis coefficients (k, lanes) at beta ^ j for j < k.

    Layer i splits D = D0 + Ŵ_i D1 on each block; Ŵ_i is the constant s on
    the block's low coset and s ^ 1 on its high one, so the halves become
    D0 + s D1 and that plus D1.
    """
    logs = _skew_logs(coeffs.shape[0], beta)
    for i in reversed(range(len(logs))):
        low, high = _butterflies(coeffs, logs[i], i)
        low ^= _skew_mul(high, logs[i])
        high ^= low
    return coeffs


def _inverse_fft(values: np.ndarray, beta: int) -> np.ndarray:
    """Novel-basis coefficients, in place, of the polynomial through values at beta ^ j."""
    logs = _skew_logs(values.shape[0], beta)
    for i in range(len(logs)):
        low, high = _butterflies(values, logs[i], i)
        high ^= low
        low ^= _skew_mul(high, logs[i])
    return values


def _shares_to_symbols(shares: Sequence[bytes]) -> np.ndarray:
    length = len(shares[0])
    if length == 0 or length % 2:
        raise ValueError("share length must be positive and even")
    if any(len(sh) != length for sh in shares):
        raise ValueError("shares must all have the same length")
    raw = np.frombuffer(b"".join(shares), dtype=">u2")
    return raw.reshape(len(shares), -1).astype(np.uint16)


def _symbols_to_shares(symbols: np.ndarray) -> list[bytes]:
    raw = symbols.astype(">u2").tobytes()
    width = 2 * symbols.shape[1]
    return [raw[i : i + width] for i in range(0, len(raw), width)]


def _codeword(given: Sequence[tuple[int, bytes]], k: int) -> list[bytes]:
    """The 2k shares through k given (position, share) pairs, those unchanged."""
    symbols = _shares_to_symbols([sh for _, sh in given])
    xs = tuple(pos for pos, _ in given)
    if k & (k - 1) == 0 and xs[0] in (0, k) and xs == tuple(range(xs[0], xs[0] + k)):
        other = k - xs[0]
        targets = tuple(range(other, other + k))
        evaluated = _fft(_inverse_fft(symbols, xs[0]), other)
    else:
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
