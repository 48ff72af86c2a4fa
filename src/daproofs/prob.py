"""Sampling probabilities for the 2k x 2k share matrix.

The quantities, with q unavailable shares out of n = (2k)^2 (q defaults
to the unrecoverability minimum (k+1)^2):

- p1: one client drawing s distinct shares hits at least one unavailable
  share: 1 - prod_{i<s}(1 - q/(n-i)), equivalently the hypergeometric
  complement 1 - C(n-q, s)/C(n, s).
- pc: more than c_hat of c independent clients hit at least one
  unavailable share: binomial upper tail of p1. The tail is computed from
  the full CDF starting at j=0; pc_as_printed drops the j=0 term for
  comparison, which overstates the probability by (1-p1)^c.
- pe: c group drawings of s distinct elements out of n collectively see
  at least n - lam distinct elements. The inclusion-exclusion series is

      pe = 1 + sum_{i>=1} (-1)^i C(lam+i-1, lam) C(n, lam+i) W_i^c,
      W_i = C(n-lam-i, s) / C(n, s).

  (Published statements of this series sometimes carry the opposite sign
  on the sum, which yields values above one; the sign here is fixed by
  exhaustive enumeration at small n.) Terms are astronomically large and
  nearly cancel, so the series is only ever evaluated in big rationals.
  The same probability comes from the distinct-count chain. Drawing a
  group one share at a time, its i-th share (i = 0..s-1) is new with
  probability (n - z)/(n - i) when z distinct shares have been seen, so
  the count of new shares one group brings is hypergeometric and does not
  depend on c. pe_dp_curve advances the chain one group per step with
  that banded kernel, whose entry [m, t] is the probability of going from
  m - s + t to m; the kernel's transitions from each z are the per-draw
  chain run from a point mass at z, computed once. The chain needs no
  weights or logarithms and agrees with the series to float64 rounding;
  pe() evaluates it. A group's rows are summed in np.einsum's order, even
  t then odd, as faster column products for s <= 2; the tail at or above
  n - lam is not summed while it is exactly zero. Only a live window of
  the chain is updated: an edge entry below the smallest normal float64,
  2^-1022, is set to zero and skipped. The window gains at most s entries
  per group, so at most 1 + c*s entries are ever dropped, and in exact
  arithmetic the curve moves by at most (1 + c*s) * 2^-1022, far below
  the rounding the chain already carries.
- px: with d of c*s pooled, unlinkable sample requests denied, one
  client sees at least one of its s requests denied:
  sum_i C(s,i) C(s(c-1), d-i) / C(cs, d) = 1 - C(s(c-1), d)/C(cs, d).

gamma = k(3k-2) = n - (k+1)^2 + 1 is the distinct-share count that makes
the whole matrix recoverable; min_clients inverts pe for it, and
mc_min_clients cross-checks it by Monte Carlo.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

DEFAULT_TARGET = 0.99

_EXACT_N_LIMIT = 4096

# pe_dp_curve drops chain entries below the smallest normal float64.
_LIVE_FLOOR = 2.0 ** -1022

# Sources z whose group transitions one _group_kernel call computes; the
# per-draw steps' fixed cost is shared among them.
_KERNEL_CHUNK = 256


def unavailable_minimum(k: int) -> int:
    return (k + 1) ** 2


def recovery_threshold(k: int) -> int:
    """gamma: distinct shares that force recoverability of the 2k x 2k matrix."""
    return k * (3 * k - 2)


# --- single-client hit probability -------------------------------------------


def p1(k: int, s: int, q: Optional[int] = None) -> float:
    """Probability one client sampling s distinct shares hits an unavailable one.

    With s larger than the available share count the hit is certain (the
    running product passes through zero).
    """
    n = (2 * k) ** 2
    if q is None:
        q = unavailable_minimum(k)
    if not 0 <= q <= n:
        raise ValueError("q out of range")
    if not 0 <= s <= n:
        raise ValueError("s must be in 0..n")
    miss = 1.0
    for i in range(s):
        factor = 1.0 - q / (n - i)
        if factor <= 0.0:
            return 1.0
        miss *= factor
    return 1.0 - miss


# --- multi-client detection ----------------------------------------------------


def _binom_cdf_terms(c: int, p: float, upto: int) -> float:
    """Sum of binomial pmf terms j = 0..upto, evaluated stably by recurrence."""
    if p >= 1.0:
        return 0.0 if upto < c else 1.0
    term = (1.0 - p) ** c
    if term == 0.0:
        # underflow: fall back to log-space accumulation
        log_term = c * math.log1p(-p)
        total = 0.0
        for j in range(upto + 1):
            total += math.exp(log_term)
            if j < c:
                log_term += math.log((c - j) / (j + 1)) + math.log(p) - math.log1p(-p)
        return min(total, 1.0)
    total = term
    for j in range(upto):
        term *= (c - j) / (j + 1) * p / (1.0 - p)
        total += term
    return min(total, 1.0)


def pc(k: int, s: int, c: int, c_hat: int, q: Optional[int] = None) -> float:
    """Probability that more than c_hat of c clients hit an unavailable share."""
    if not 0 <= c_hat <= c:
        raise ValueError("c_hat must be in 0..c")
    hit = p1(k, s, q)
    return 1.0 - _binom_cdf_terms(c, hit, c_hat)


def pc_as_printed(k: int, s: int, c: int, c_hat: int, q: Optional[int] = None) -> float:
    """Tail computed with the j=0 CDF term dropped (for comparison output)."""
    if not 0 <= c_hat <= c:
        raise ValueError("c_hat must be in 0..c")
    hit = p1(k, s, q)
    zero_term = (1.0 - hit) ** c
    return min(1.0, 1.0 - (_binom_cdf_terms(c, hit, c_hat) - zero_term))


# --- collective coverage (group-drawing coupon collection) ----------------------


def _check_pe_params(n: int, s: int, c: int, lam: int) -> None:
    if n < 1 or not 1 <= s <= n:
        raise ValueError("need 1 <= s <= n")
    if c < 1:
        raise ValueError("c must be positive")
    if not 0 <= lam < n:
        raise ValueError("lam must be in 0..n-1")


def _series_terms(n: int, s: int, lam: int):
    """The series' terms as pairs ((-1)^i C(lam+i-1, lam) C(n, lam+i),
    C(n-lam-i, s)) for i = 1, 2, ... while the second is nonzero, so that
    pe = 1 + sum coef * w^c / C(n, s)^c.

    The binomials of term i+1 follow from those of term i by exact integer
    ratios: C(lam+i, lam) = C(lam+i-1, lam)(lam+i)/i, C(n, lam+i+1) =
    C(n, lam+i)(n-lam-i)/(lam+i+1) and C(r-1, s) = C(r, s)(r-s)/r.
    """
    a, b = 1, math.comb(n, lam + 1)  # C(lam+i-1, lam) and C(n, lam+i) at i = 1
    remaining = n - lam - 1
    w_num = math.comb(remaining, s)  # C(n-lam-i, s), zero once remaining < s
    i = 1
    while w_num:
        yield (-a * b if i % 2 else a * b), w_num
        a = a * (lam + i) // i
        b = b * remaining // (lam + i + 1)
        w_num = w_num * (remaining - s) // remaining
        remaining -= 1
        i += 1


def pe_reaches(n: int, s: int, c: int, lam: int, target: Fraction) -> bool:
    """Exact test pe >= target, avoiding any float rounding."""
    _check_pe_params(n, s, c, lam)
    return _reaches_below_and_at(n, s, c, lam, Fraction(target))[1]


def _reaches_below_and_at(
    n: int, s: int, c: int, lam: int, target: Fraction
) -> tuple[bool, bool]:
    """Exact tests pe(c - 1) >= target and pe(c) >= target from one pass
    over the series, compared by integer cross-multiplication. The first
    is meaningless at c = 1."""
    below = at = 0
    for coef, w_num in _series_terms(n, s, lam):
        term = coef * pow(w_num, c - 1)
        below += term
        at += term * w_num
    denom_below = pow(math.comb(n, s), c - 1)
    denom_at = denom_below * math.comb(n, s)
    # 1 + total / denom >= p / q  <=>  (denom + total) * q >= p * denom
    p, q = target.numerator, target.denominator
    return (
        (denom_below + below) * q >= p * denom_below,
        (denom_at + at) * q >= p * denom_at,
    )


def _group_kernel(n: int, s: int, z0: int, rows: int) -> np.ndarray:
    """chain[j, r]: the probability that one group of s distinct draws
    brings j new shares when z0 + r have been seen. Column r is the
    per-draw chain run from a point mass at z0 + r.
    """
    chain = np.zeros((s + 1, rows))
    chain[0] = 1.0
    # unseen[j, r] = n - (z0 + r + j); below 0 only where chain[j, r] is 0
    unseen = (n - z0 - np.arange(rows, dtype=np.float64)) - np.arange(s + 1)[:, None]
    for i in range(s):
        move = chain[: i + 1] * unseen[: i + 1]
        move /= n - i
        chain[: i + 1] -= move
        chain[1 : i + 2] += move
    return chain


def _group_step(windows: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """np.einsum("zt,zt->z", windows, kernel), bit for bit: einsum adds
    the even-t products in order, then the odd ones; up to width 3 that is
    t = 0, then width - 1 down to 1, faster as column products."""
    width = windows.shape[1]
    if width > 3:
        return np.einsum("zt,zt->z", windows, kernel)
    total = windows[:, 0] * kernel[:, 0]
    for t in range(width - 1, 0, -1):
        total += windows[:, t] * kernel[:, t]
    return total


def pe_dp_curve(
    n: int, s: int, lam: int, c_max: int, stop_at: Optional[float] = None
) -> np.ndarray:
    """pe for every c in 1..c_max via the distinct-count chain.

    Entry [c] is the probability; entry [0] is 0. Stops early once the
    value reaches stop_at, leaving later entries at their last value.

    One group of s draws is one product with the group kernel:
    dist'[m] = sum over t = 0..s of dist[m - s + t] * kernel[m, t], where
    kernel[m, t] is the probability of going from m - s + t to m. Each
    group updates only the live window dist[low:high] and the s entries
    above it. After a group, an entry at either edge below _LIVE_FLOOR
    (the smallest normal float64) is set to 0.0 and leaves the window. The
    window gains at most s indices per group, so at most 1 + c*s entries
    are ever dropped, and in exact arithmetic
    |pe(c) - untruncated pe(c)| <= (1 + c*s) * 2^-1022.

    The kernel is held only for the rows m in mbase..built + s - 1, which
    slide up with the window. Rows below `built` are complete; each source
    z's transitions are computed once, by _group_kernel, when the window
    first needs row z. Each product is _group_step: column products for
    s <= 2, np.einsum above, rounded alike. While high <= goal = n - lam,
    dist[goal:] is exactly zero, so pe(c) stays 0.0 without a sum.
    """
    _check_pe_params(n, s, c_max, lam)
    goal = n - lam
    width = s + 1
    padded = np.zeros(n + 1 + s)  # s zeros below z = 0
    dist = padded[s:]
    dist[0] = 1.0
    windows = sliding_window_view(padded, width)  # windows[m, t] = dist[m - s + t]
    kernel = np.zeros((_KERNEL_CHUNK + 2 * s, width))  # row m - mbase
    mbase = built = 0
    out = np.zeros(c_max + 1)
    low, high = 0, 1  # every entry outside dist[low:high] is exactly 0.0
    for c in range(1, c_max + 1):
        top = min(n + 1, high + s)
        if built < top:
            end = min(n + 1, max(top, built + _KERNEL_CHUNK))
            if end + s - mbase > len(kernel):
                # rows below low are done with; rows up to built + s hold data
                held = kernel[low - mbase : built + s - mbase].reshape(-1)
                kernel.reshape(-1)[: held.size] = held  # a 1-D overlapping copy needs no temporary
                del held
                mbase = low
                if end + s - low > len(kernel):
                    # grown in place, so the peak holds one kernel; no view of it is alive
                    kernel.resize((end + s - low, width), refcheck=False)
            # source z = built + r moving up j lands in row z + j, column s - j
            step = kernel.itemsize
            as_strided(
                kernel.reshape(-1)[(built - mbase) * width + s :],
                shape=(width, end - built),
                strides=(s * step, width * step),
            )[...] = _group_kernel(n, s, built, end - built)
            built = end
        dist[low:top] = _group_step(windows[low:top], kernel[low - mbase : top - mbase])
        high = top
        while dist[low] < _LIVE_FLOOR:
            dist[low] = 0.0
            low += 1
        while dist[high - 1] < _LIVE_FLOOR:
            high -= 1
            dist[high] = 0.0
        if high > goal:  # else dist[goal:] is exactly zero
            out[c] = dist[goal:].sum()
        if stop_at is not None and out[c] >= stop_at:
            out[c:] = out[c]
            break
    return out


def pe(n: int, s: int, c: int, lam: int) -> float:
    """Collective-coverage probability by the distinct-count chain."""
    return float(pe_dp_curve(n, s, lam, c)[c])


# --- minimum client counts ------------------------------------------------------


def _target_fraction(target: float) -> Fraction:
    return Fraction(str(target))


def min_clients(k: int, s: int, target: float = DEFAULT_TARGET) -> int:
    """Smallest c with pe(n=(2k)^2, s, c, lam) >= target, for 0 < target < 1.

    Searches the probability curve with the distinct-count chain. Up to
    n = 4096 the boundary is then pinned exactly: one pass over the
    series decides pe(c - 1) and pe(c) against the target.
    """
    if not 0 < target < 1:
        raise ValueError("target must be strictly between 0 and 1")
    n = (2 * k) ** 2
    lam = n - recovery_threshold(k)
    c_max = max(8, (2 * n) // s)
    while True:
        curve = pe_dp_curve(n, s, lam, c_max, stop_at=target)
        over = np.nonzero(curve >= target)[0]
        if over.size:
            candidate = int(over[0])
            break
        c_max *= 2
        if c_max > 10_000_000:
            raise ArithmeticError("target unreachable within search bounds")
    if n > _EXACT_N_LIMIT:
        return candidate

    goal = _target_fraction(target)
    while True:
        below, at = _reaches_below_and_at(n, s, candidate, lam, goal)
        if not at:
            candidate += 1
        elif candidate > 1 and below:
            candidate -= 1
        else:
            return candidate


def mc_min_clients(
    k: int,
    s: int,
    target: float = DEFAULT_TARGET,
    trials: int = 4000,
    seed: int = 2024,
) -> int:
    """Monte Carlo inversion, a cross-check of min_clients: the target
    quantile of the first draw count at which the trials' distinct-share
    total reaches gamma, for 0 < target < 1 and trials >= 1."""
    if not 0 < target < 1:
        raise ValueError("target must be strictly between 0 and 1")
    if trials < 1:
        raise ValueError("need at least one trial")
    n = (2 * k) ** 2
    gamma = recovery_threshold(k)
    if not 1 <= s <= n:
        raise ValueError("need 1 <= s <= n")
    rng = np.random.default_rng(seed)
    z = np.zeros(trials, dtype=np.int64)
    hit_at = np.zeros(trials, dtype=np.int64)
    active = np.ones(trials, dtype=bool)
    c = 0
    cap = 200 * (n // s + 1) + 10_000
    while active.any():
        c += 1
        if c > cap:
            raise ArithmeticError("hitting-time simulation exceeded its cap")
        za = z[active]
        z[active] = za + rng.hypergeometric(n - za, za, s)
        reached = active & (z >= gamma)
        hit_at[reached] = c
        active &= ~reached
    hit_at.sort()
    rank = math.ceil(target * trials) - 1
    return int(hit_at[min(rank, trials - 1)])


# --- enhanced-model denial probability -------------------------------------------


def _check_px_params(s: int, c: int, d: int) -> None:
    if s < 1 or c < 1:
        raise ValueError("s and c must be positive")
    if not 0 <= d <= c * s:
        raise ValueError("d must be in 0..c*s")


def px(s: int, c: int, d: int) -> float:
    """Probability a client sees >= 1 of its s requests among d denied ones."""
    _check_px_params(s, c, d)
    return float(1 - Fraction(math.comb(s * (c - 1), d), math.comb(c * s, d)))
