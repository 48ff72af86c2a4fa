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

The rule has two evaluators, both additive FFTs in Lin, Chung and Han's
novel polynomial basis (FOCS 2014), and both O(n log n) per lane:
- Half to half: when k is a power of two and the k given positions are
  one half of the codeword (0..k-1 or k..2k-1), those points are the
  F2-subspace V = {0..k-1} of GF(2^16) or its coset k ^ V, so an inverse
  FFT on one half and an FFT on the other evaluate it in O(k log k).
- Every other pattern, and every k that is not a power of two: the
  erasure decoder of Lin, Al-Naffouri, Han and Chung (IEEE Trans. IT
  62(11), 2016), as in the leopard codec, on the domain {0..N-1} with N
  the smallest power of two >= 2k. It takes one Walsh-Hadamard
  convolution for the erasure locator's logs, an inverse FFT, a formal
  derivative and an FFT, all of size N, so O(N log N) time and O(N)
  memory per lane; it costs about three times the half-to-half path.
Both produce the same bytes, because the polynomial of degree below k
through k points is unique, and both serve every pattern up to MAX_K.

Batches: both evaluators code every lane on its own, so axes that share
their k given positions xs (a pattern) go through one call as extra
lanes, laid out as a (k, axes * lanes) array, with the bytes each would
get alone. evaluate_axes is that entry point; rs_encode and rs_decode are
its one-axis case. A call's working array is capped at CALL_SYMBOLS
symbols, so a wide batch is cut into runs of consecutive axes, one call
each, and memory stays that of one run whatever the batch's width. Each
run comes back as shares, each axis's k evaluated shares in a list, so the
symbol layout never leaves this module.

GF(2^16) keeps codewords of length 2k below the field size for k up to
MAX_K = 16384. Arithmetic runs on log/antilog tables built once at import.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, islice
from typing import Iterable, Iterator, Sequence

import numpy as np

FIELD_BITS = 16
FIELD_SIZE = 1 << FIELD_BITS
_PRIMITIVE_POLY = 0x1100B  # x^16 + x^12 + x^3 + x + 1
_ORDER = FIELD_SIZE - 1

MAX_K = 16384

# The most symbols one evaluator call's working array holds (rows times
# lanes): evaluate_axes codes as many axes per call as fit, and at least
# one. A call's temporaries take 8 to 20 bytes per symbol, about 0.3 to
# 0.6 MB. With 256-byte shares at k=64 that is four axes per half-to-half
# call and two per general call, whose working array has 2k rows. On the
# k=64 block, half this cap ran an iteration about 13% slower, and twice it
# about 4% faster but with a higher peak memory at k=32.
CALL_SYMBOLS = 1 << 15


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


def _subspace_table() -> np.ndarray:
    """Row i holds Ŵ_i(2^b) for each bit b, the normalised subspace polynomials.

    W_i(x) = prod_{a < 2^i} (x ^ a) vanishes on the subspace {0..2^i-1}, so
    it is F2-linear and fixed by its values on the bit basis; and
    W_{i+1}(x) = W_i(x) W_i(x ^ 2^i) = W_i(x) (W_i(x) ^ W_i(2^i)).
    Ŵ_i = W_i / W_i(2^i), and 2^i is not a root.
    """
    w = [1 << b for b in range(FIELD_BITS)]
    rows = []
    for i in range(FIELD_BITS - 1):
        inv = gf_inv(w[i])
        rows.append([gf_mul(v, inv) for v in w])
        w = [gf_mul(v, v ^ w[i]) for v in w]
    return np.array(rows, dtype=np.int64)

_W_HAT = _subspace_table()


def _derivative_logs() -> np.ndarray:
    """log c_i for each layer i, c_i the coefficient of x in Ŵ_i.

    Ŵ_i is linearised, so c_i is its whole formal derivative: the x
    coefficient of W_i = x prod_{0<a<2^i} (x ^ a) over W_i(2^i) =
    prod_{2^i<=a<2^(i+1)} a.
    """
    sums = [int(_LOG[1 << i : 2 << i].sum(dtype=np.int64)) for i in range(FIELD_BITS - 1)]
    return np.array([(sum(sums[:i]) - sums[i]) % _ORDER for i in range(len(sums))])

_DERIVATIVE_LOGS = _derivative_logs()


@lru_cache(maxsize=64)
def _skew_logs(k: int, beta: int) -> tuple[tuple[int, np.ndarray], ...]:
    """Per layer i, log Ŵ_i(beta ^ c) for each block base c in range(0, k, 2^(i+1)),
    after the first block when its skew is zero.

    Ŵ_i is linear, so each skew is the XOR of its row's values at the set
    bits of beta ^ c. Its roots are {0..2^i-1}, so only the block at c = 0
    can have skew zero, when beta is 0; its butterflies skip the product.
    """
    layers = []
    for i in range(k.bit_length() - 1):
        points = beta ^ np.arange(0, k, 2 << i)
        bits = (points[:, None] >> np.arange(FIELD_BITS)) & 1
        skews = np.bitwise_xor.reduce(bits * _W_HAT[i], axis=1)
        first = int(skews[0] == 0)
        layers.append((first, _LOG_PAD[skews[first:]]))
    return tuple(layers)


def _butterflies(symbols: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the low and high halves of each block of width 2^(i+1)."""
    blocks = symbols.reshape(-1, 2, 1 << i, symbols.shape[1])
    return blocks[:, 0], blocks[:, 1]


def _mul_logs(symbols: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """symbols times field elements given by their logs, one per index of
    the first axis: one log gather, one antilog gather."""
    exponents = _LOG_PAD.take(symbols)
    exponents += logs.reshape((-1,) + (1,) * (symbols.ndim - 1))
    return _EXP_PAD.take(exponents)


def _fft(coeffs: np.ndarray, beta: int) -> np.ndarray:
    """Evaluate, in place, novel-basis coefficients (k, lanes) at beta ^ j for j < k.

    Layer i splits D = D0 + Ŵ_i D1 on each block; Ŵ_i is the constant s on
    the block's low coset and s ^ 1 on its high one, so the halves become
    D0 + s D1 and that plus D1.
    """
    layers = _skew_logs(coeffs.shape[0], beta)
    for i in reversed(range(len(layers))):
        first, logs = layers[i]
        low, high = _butterflies(coeffs, i)
        low[first:] ^= _mul_logs(high[first:], logs)
        high ^= low
    return coeffs


def _inverse_fft(values: np.ndarray, beta: int) -> np.ndarray:
    """Novel-basis coefficients, in place, of the polynomial through values at beta ^ j."""
    layers = _skew_logs(values.shape[0], beta)
    for i in range(len(layers)):
        first, logs = layers[i]
        low, high = _butterflies(values, i)
        high ^= low
        low[first:] ^= _mul_logs(high[first:], logs)
    return values


def _walsh_hadamard(values: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform, in place, of an int64 vector
    of power-of-two length."""
    h = 1
    while h < len(values):
        blocks = values.reshape(-1, 2, h)
        low, high = blocks[:, 0], blocks[:, 1]
        low += high
        high *= -2
        high += low
        h *= 2
    return values


def _locator_logs(erased: np.ndarray) -> np.ndarray:
    """L[x] = sum over erasures e of LOG[x ^ e] mod 2^16 - 1, for every x in the domain.

    erased is the 0/1 indicator of E over the domain {0..N-1}. With
    LOG[0] = 0 this is log l(x) at a known x and log l'(e) at an erasure e,
    for the locator l(x) = prod_{e in E} (x ^ e). It is one XOR convolution
    of the indicator with LOG, so one product of Walsh-Hadamard transforms;
    every term stays below 2^62 in int64 for N <= 2^15.
    """
    n = len(erased)
    spectrum = _walsh_hadamard(erased.copy()) * _walsh_hadamard(_LOG[:n].astype(np.int64))
    return _walsh_hadamard(spectrum) // n % _ORDER


def _formal_derivative(coeffs: np.ndarray) -> np.ndarray:
    """The derivative of novel-basis coefficients (N, lanes).

    The basis polynomial X_j is the product of Ŵ_i over the set bits i of
    j, and each Ŵ_i' is the constant c_i, so coefficient j adds c_i coef[j]
    into j ^ 2^i for every set bit i. Every layer reads the input, so the
    sum goes to a new array.
    """
    out = np.zeros_like(coeffs)
    exponents = _LOG_PAD.take(coeffs)
    for i in range(coeffs.shape[0].bit_length() - 1):
        low = _butterflies(out, i)[0]
        low ^= _EXP_PAD.take(_butterflies(exponents, i)[1] + _DERIVATIVE_LOGS[i])
    return out


def _evaluate_erasures(symbols: np.ndarray, xs: Sequence[int], k: int) -> np.ndarray:
    """The polynomial of degree below k through (xs, symbols) at each
    position of 0..2k-1 outside xs, in order.

    Lin, Al-Naffouri, Han and Chung's erasure decoder on the domain
    {0..N-1}, N the smallest power of two >= 2k; every point outside xs,
    those >= 2k included, is an erasure. g = f l is f times the locator at
    the known points and 0 at the erasures, and has degree below N, so an
    inverse FFT gives its coefficients; at an erasure e, g'(e) = f(e) l'(e).
    """
    n = 1 << (2 * k - 1).bit_length()
    known = list(xs)
    erased = np.ones(n, dtype=np.int64)
    erased[known] = 0
    logs = _locator_logs(erased)
    g = np.zeros((n, symbols.shape[1]), dtype=np.uint16)
    g[known] = _mul_logs(symbols, logs[known])
    derivative = _fft(_formal_derivative(_inverse_fft(g, 0)), 0)
    targets = np.flatnonzero(erased[: 2 * k])
    return _mul_logs(derivative[targets], _ORDER - logs[targets])


def _shares_to_symbols(shares: Sequence[bytes]) -> np.ndarray:
    length = len(shares[0])
    if length == 0 or length % 2:
        raise ValueError("share length must be positive and even")
    if len(set(map(len, shares))) != 1:
        raise ValueError("shares must all have the same length")
    raw = np.frombuffer(b"".join(shares), dtype=">u2")
    return raw.reshape(len(shares), -1).astype(np.uint16)


def symbols_to_shares(symbols: np.ndarray) -> list[bytes]:
    """One share per run of the last axis of symbols, in C order."""
    raw = symbols.astype(">u2").tobytes()
    width = 2 * symbols.shape[-1]
    return [raw[i : i + width] for i in range(0, len(raw), width)]


def erased(xs: Sequence[int], k: int) -> list[int]:
    """The positions of 0..2k-1 outside xs, in order: where evaluate_axes evaluates."""
    given = set(xs)
    return [pos for pos in range(2 * k) if pos not in given]


def evaluate_axes(
    xs: Sequence[int], axes: Iterable[Sequence[bytes]], k: int
) -> Iterator[list[list[bytes]]]:
    """For axes that share the given positions xs (k of them, increasing,
    in [0, 2k)), each given as its k shares at xs, all of one length: the
    polynomial of degree below k through each axis's shares, at every
    position erased(xs, k).

    Yields, for each run of consecutive axes, one list per axis of its k
    evaluated shares, in the order of erased(xs, k), from one evaluator
    call on the run laid out as (k, axes * lanes). A run is as many axes as
    keep that call's working array, k rows on the half-to-half path and N
    on the general one, within CALL_SYMBOLS symbols, and at least one axis.
    axes is read one run at a time, when the run is pulled.
    """
    xs = tuple(xs)
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k must be in 1..{MAX_K}")
    if len(xs) != k or xs[0] < 0 or xs[-1] >= 2 * k or any(
        a >= b for a, b in zip(xs, xs[1:])
    ):
        raise ValueError("xs must be k increasing positions in [0, 2k)")
    axes = iter(axes)
    first = next(axes, None)
    if first is None:
        return
    lanes = len(first[0]) // 2 if first else 0
    half = k & (k - 1) == 0 and xs[0] in (0, k) and xs[-1] == xs[0] + k - 1
    rows = k if half else 1 << (2 * k - 1).bit_length()
    run = max(1, CALL_SYMBOLS // (rows * max(lanes, 1)))
    axes = chain([first], axes)
    while batch := list(islice(axes, run)):
        # the arrays live in _evaluate_run's frame, not this suspended one
        yield _evaluate_run(xs, batch, k, half)


def _evaluate_run(
    xs: tuple[int, ...], axes: Sequence[Sequence[bytes]], k: int, half: bool
) -> list[list[bytes]]:
    """One evaluator call on a run of axes: each axis's k shares at erased(xs, k)."""
    if any(len(shares) != k for shares in axes):
        raise ValueError("each axis needs one share per given position")
    symbols = _shares_to_symbols([shares[i] for i in range(k) for shares in axes])
    symbols = symbols.reshape(k, -1)
    if half:
        values = _fft(_inverse_fft(symbols, xs[0]), k - xs[0])
    else:
        values = _evaluate_erasures(symbols, xs, k)
    shares = symbols_to_shares(values.reshape(k, len(axes), -1).transpose(1, 0, 2))
    return [shares[a : a + k] for a in range(0, len(shares), k)]


def _codeword(given: Sequence[tuple[int, bytes]], k: int) -> list[bytes]:
    """The 2k shares through k given (position, share) pairs, those unchanged."""
    xs = [pos for pos, _ in given]
    ((shares,),) = evaluate_axes(xs, [[sh for _, sh in given]], k)
    codeword = dict(zip(erased(xs, k), shares))
    codeword.update((pos, bytes(share)) for pos, share in given)
    return [codeword[pos] for pos in range(2 * k)]


def rs_encode(data: Sequence[bytes]) -> list[bytes]:
    """Extend k equal-length shares to a systematic codeword of 2k shares:
    evaluate_axes for one axis, given at 0..k-1, which checks k."""
    return _codeword(list(enumerate(data)), len(data))


def rs_decode(present: Sequence[tuple[int, bytes]], k: int) -> list[bytes]:
    """Reconstruct the full 2k-share codeword from any k present shares:
    evaluate_axes for one axis, given at its first k present positions.

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
