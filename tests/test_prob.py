import hashlib
import math
import random
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from daproofs import prob
from daproofs.prob import (
    mc_min_clients,
    min_clients,
    p1,
    pc,
    pc_as_printed,
    pe,
    pe_reaches,
    px,
    recovery_threshold,
)
from tests.oracles import (
    mc_p1,
    mc_pc,
    mc_pe,
    mc_px,
    p1_hypergeom,
    p1_limit,
    pe_group_curve,
    pe_per_draw_curve,
    pe_series_fraction,
    px_sum,
    sample_distinct,
)


def pe_enumeration(n, s, c, lam):
    """Exhaustive oracle over every sequence of c draws of s distinct items."""
    draws = list(combinations(range(n), s))
    hits = 0
    for chosen in product(range(len(draws)), repeat=c):
        seen = set()
        for index in chosen:
            seen.update(draws[index])
        if len(seen) >= n - lam:
            hits += 1
    return Fraction(hits, len(draws) ** c)


def series_terms_fraction(n, s, c, lam):
    """pe from prob's incremental series terms, as an exact fraction."""
    terms = prob._series_terms(n, s, lam)
    return 1 + Fraction(sum(coef * w**c for coef, w in terms), math.comb(n, s) ** c)


def within_3_sigma(estimate, truth, trials):
    sigma = math.sqrt(max(truth * (1 - truth), 1e-12) / trials)
    return abs(estimate - truth) <= 3 * sigma + 1e-12


def test_p1_all_unavailable_certain_hit():
    assert p1(1, 1, q=4) == 1.0


def test_p1_matches_hypergeometric_complement():
    rng = random.Random(0)
    for _ in range(60):
        k = rng.choice([1, 2, 4, 8, 16, 32])
        n = (2 * k) ** 2
        q = rng.randrange(0, n + 1)
        s = rng.randrange(0, n - q + 1)
        assert abs(p1(k, s, q) - p1_hypergeom(k, s, q)) < 1e-12


def test_p1_monotone_in_s_and_q():
    values_s = [p1(8, s) for s in range(0, 30)]
    assert all(a <= b + 1e-15 for a, b in zip(values_s, values_s[1:]))
    values_q = [p1(8, 5, q) for q in range(0, 200, 10)]
    assert all(a <= b + 1e-15 for a, b in zip(values_q, values_q[1:]))


def test_p1_reference_points():
    assert 0.55 <= p1(32, 3) <= 0.65
    assert p1(32, 15) > 0.99


def test_p1_limit_convergence():
    for s in range(1, 21):
        assert abs(p1(256, s) - p1_limit(s)) < 0.01


def test_p1_monte_carlo_agreement():
    truth = p1(8, 6)
    estimate = mc_p1(8, 6, trials=100_000, seed=5)
    assert within_3_sigma(estimate, truth, 100_000)


def test_p1_validation():
    assert p1(2, 14) == 1.0  # more draws than available shares: certain hit
    with pytest.raises(ValueError):
        p1(2, 17)  # s > n
    with pytest.raises(ValueError):
        p1(2, 1, q=17)


def test_pc_boundary_cases():
    assert pc(4, 3, 10, 10) == 0.0
    assert pc(1, 1, 5, 3, q=4) == 1.0  # p1 = 1, every client succeeds
    # the j=0 term matters: dropping it overstates the tail
    assert pc_as_printed(4, 1, 10, 0) > pc(4, 1, 10, 0)
    assert abs(
        pc_as_printed(4, 1, 10, 0) - (pc(4, 1, 10, 0) + (1 - p1(4, 1)) ** 10)
    ) < 1e-12


def test_pc_monte_carlo_crossover():
    """The largest c_hat keeping pc >= 0.99 agrees with simulation within 2."""
    k, s, c = 64, 15, 1000
    closed = 0
    while pc(k, s, c, closed + 1) >= 0.99:
        closed += 1
    simulated = 0
    while mc_pc(k, s, c, simulated + 1, trials=100_000, seed=9) >= 0.99:
        simulated += 1
    assert abs(closed - simulated) <= 2


def test_pe_trivial_single_draw():
    assert series_terms_fraction(2, 1, 1, 1) == 1
    assert pe_reaches(2, 1, 1, 1, Fraction(1))


def test_pe_matches_enumeration():
    for (n, s, c, lam) in [(4, 2, 2, 0), (4, 2, 2, 1), (5, 2, 3, 1), (6, 3, 2, 2), (4, 1, 3, 1)]:
        exact = pe_series_fraction(n, s, c, lam)
        assert exact == pe_enumeration(n, s, c, lam)
        assert abs(pe(n, s, c, lam) - float(exact)) < 1e-12


def test_pe_dp_matches_exact_mid_scale():
    # a mid-scale curve, and the paper's k=16 points (c_min - 1 and c_min)
    lam16 = 1024 - recovery_threshold(16)
    cases = [(64, 3, 20, (5, 15, 40))]
    cases += [(1024, s, lam16, (c - 1, c)) for s, c in ((2, 692), (10, 138), (50, 28))]
    for n, s, lam, cs in cases:
        curve = prob.pe_dp_curve(n, s, lam, max(cs))
        for c in cs:
            assert abs(curve[c] - float(pe_series_fraction(n, s, c, lam))) <= 1e-14, (n, s, c)


def test_pe_dp_curve_lower_window_is_bit_exact():
    lam16 = 1024 - recovery_threshold(16)
    cases = [(64, 3, 20, 60)]
    cases += [(1024, s, lam16, c_max) for s, c_max in ((2, 700), (10, 140), (50, 30))]
    for n, s, lam, c_max in cases:
        curve = prob.pe_dp_curve(n, s, lam, c_max)
        assert np.array_equal(curve, pe_group_curve(n, s, lam, c_max)), (n, s)


@settings(max_examples=150)
@given(
    n=st.integers(1, 1500),
    s_frac=st.floats(0.0, 1.0),
    lam_frac=st.floats(0.0, 1.0),
    c_max=st.integers(1, 400),
)
def test_pe_dp_curve_within_window_bound_of_full_chain(n, s_frac, lam_frac, c_max):
    # at most 1 + c*s entries below 2^-1022 are dropped by group c
    s = 1 + round(s_frac * (min(n, 60) - 1))
    lam = round(lam_frac * (n - 1))
    c_max = min(c_max, 4 * n // s + 2)
    curve = prob.pe_dp_curve(n, s, lam, c_max)
    full = pe_group_curve(n, s, lam, c_max)
    bound = (1 + np.arange(c_max + 1) * s) * 2.0 ** -1022
    assert np.all(np.abs(curve - full) <= bound)


@settings(max_examples=100)
@given(
    n=st.integers(1, 1500),
    s_frac=st.floats(0.0, 1.0),
    lam_frac=st.floats(0.0, 1.0),
    c_max=st.integers(1, 400),
)
def test_pe_dp_curve_groups_match_per_draw_chain(n, s_frac, lam_frac, c_max):
    # both chains round about once per draw, in different orders
    s = 1 + round(s_frac * (min(n, 60) - 1))
    lam = round(lam_frac * (n - 1))
    c_max = min(c_max, 4 * n // s + 2)
    curve = prob.pe_dp_curve(n, s, lam, c_max)
    per_draw = pe_per_draw_curve(n, s, lam, c_max)
    bound = (1 + np.arange(c_max + 1) * s) * 2.0 ** -53
    assert np.all(np.abs(curve - per_draw) <= bound)


def group_chain_work(monkeypatch, n, s, lam, c_max):
    """Group products, their rows in all and at the widest, and the source
    ranges whose kernel columns pe_dp_curve builds, seen by wrapping
    prob._group_step (both of its paths) and prob._group_kernel."""
    work = {"products": 0, "rows": 0, "widest_rows": 0, "built": []}
    group_step, group_kernel = prob._group_step, prob._group_kernel

    def counted_step(windows, kernel):
        result = group_step(windows, kernel)
        work["products"] += 1
        work["rows"] += result.size
        work["widest_rows"] = max(work["widest_rows"], result.size)
        return result

    def counted_kernel(n_, s_, z0, rows):
        work["built"].append((z0, z0 + rows))
        return group_kernel(n_, s_, z0, rows)

    monkeypatch.setattr(prob, "_group_step", counted_step)
    monkeypatch.setattr(prob, "_group_kernel", counted_kernel)
    prob.pe_dp_curve(n, s, lam, c_max)
    return work


def test_pe_dp_curve_work_at_k64_s50(monkeypatch):
    # One product per group, over the live window and the s entries above
    # it. The per-draw chain took 22,550 steps and 50,506,663 updates.
    n = 128 ** 2
    work = group_chain_work(monkeypatch, n, 50, n - recovery_threshold(64), 451)
    assert work["products"] == 451
    assert work["rows"] <= 1_031_926  # 52,628,226 multiply-adds
    assert work["widest_rows"] - 50 <= 3_049
    built = work["built"]
    assert built[0][0] == 0
    assert all(a[1] == b[0] for a, b in zip(built, built[1:]))  # each source once
    assert built[-1][1] <= n + 1


def test_pe_dp_curve_work_at_k64_s2(monkeypatch):
    # the column path: one product per group, as wide as with einsum
    n = 128 ** 2
    work = group_chain_work(monkeypatch, n, 2, n - recovery_threshold(64), 11_289)
    assert work["products"] == 11_289
    assert work["rows"] <= 25_365_606
    assert work["widest_rows"] == 3_051


@pytest.mark.parametrize("s", [1, 2])
def test_group_step_columns_round_as_einsum(s):
    # The column path copies einsum's association; a numpy whose einsum
    # sums in another order must fail here, not shift the curves.
    rng = np.random.default_rng(s)
    width = s + 1
    for rows in (1, 2, 7, 8, 999, 1000, 3051):
        for low in (0, 1, 5):
            size = low + rows + s
            padded = rng.random(size) * 10.0 ** rng.integers(-300, 1, size)
            windows = sliding_window_view(padded, width)[low : low + rows]
            kernel = rng.random((low + rows + 3, width))[low : low + rows]
            expected = np.einsum("zt,zt->z", windows, kernel)
            assert np.array_equal(prob._group_step(windows, kernel), expected), (
                f"numpy {np.__version__}: column step differs from einsum",
                s, rows, low,
            )


@pytest.mark.parametrize(
    "k, c_max, digest",
    [
        (16, 692, "48fa122a0640f04830a1ca065e29e83e63f926089e703db16675a794fd8bd5df"),
        (64, 11_289, "763302ea5782dff42df3fd24b494a5ed6680998c0ef3d2bcc5d4ded15b7b1ce2"),
    ],
)
def test_pe_dp_curve_s2_table_scale_is_pinned(k, c_max, digest):
    # SHA-256 of the curve as the einsum step computed it, to the last bit
    n = (2 * k) ** 2
    curve = prob.pe_dp_curve(n, 2, n - recovery_threshold(k), c_max)
    assert hashlib.sha256(curve.tobytes()).hexdigest() == digest


@settings(max_examples=200)
@given(
    n=st.integers(1, 40),
    s_frac=st.floats(0.0, 1.0),
    lam_frac=st.floats(0.0, 1.0),
    c=st.integers(1, 30),
)
def test_series_terms_match_per_term_series(n, s_frac, lam_frac, c):
    s = 1 + round(s_frac * (n - 1))
    lam = round(lam_frac * (n - 1))
    assert series_terms_fraction(n, s, c, lam) == pe_series_fraction(n, s, c, lam)


def test_series_terms_match_per_term_series_at_k16_table():
    lam = 1024 - recovery_threshold(16)
    for s, c in ((2, 692), (10, 138), (50, 28)):
        for at in (c - 1, c):
            assert series_terms_fraction(1024, s, at, lam) == pe_series_fraction(1024, s, at, lam)


def test_pe_monotone_in_c_and_s():
    n, lam = 100, 30
    curve = prob.pe_dp_curve(n, 4, lam, 60)
    assert all(a <= b + 1e-12 for a, b in zip(curve[1:], curve[2:]))
    by_s = [pe(n, s, 10, lam) for s in (2, 4, 8, 16)]
    assert all(a <= b + 1e-12 for a, b in zip(by_s, by_s[1:]))


def test_pe_monte_carlo_agreement():
    n, s, c, lam = 100, 4, 30, 30
    truth = float(pe_series_fraction(n, s, c, lam))
    estimate = mc_pe(n, s, c, lam, trials=100_000, seed=3)
    assert within_3_sigma(estimate, truth, 100_000)


def test_pe_validation():
    with pytest.raises(ValueError):
        pe_reaches(4, 5, 1, 0, Fraction(1, 2))
    with pytest.raises(ValueError):
        pe_reaches(4, 2, 0, 0, Fraction(1, 2))
    with pytest.raises(ValueError):
        pe_reaches(4, 2, 1, 4, Fraction(1, 2))
    with pytest.raises(ValueError):
        pe(16, 2, 0, 8)
    with pytest.raises(ValueError):
        prob.pe_dp_curve(16, 2, 8, 0)


def test_min_clients_small_case_boundary():
    # tiny instance verifiable with the exact series directly
    c = min_clients(2, 3)  # n=16, gamma=8, lam=8
    target = Fraction(99, 100)
    n, lam = 16, 16 - recovery_threshold(2)
    assert pe_reaches(n, 3, c, lam, target)
    assert c == 1 or not pe_reaches(n, 3, c - 1, lam, target)


def test_min_clients_pins_the_boundary_in_one_series_pass(monkeypatch):
    passes = []
    series_terms = prob._series_terms

    def counted(*args):
        passes.append(args)
        return series_terms(*args)

    monkeypatch.setattr(prob, "_series_terms", counted)
    assert [min_clients(16, s) for s in (2, 10, 50)] == [692, 138, 28]
    assert len(passes) == 3


@settings(max_examples=100)
@given(
    n=st.integers(2, 40),
    s_frac=st.floats(0.0, 1.0),
    lam_frac=st.floats(0.0, 1.0),
    c=st.integers(2, 30),
    target=st.fractions(0, 1),
)
def test_reaches_below_and_at_matches_pe_reaches(n, s_frac, lam_frac, c, target):
    s = 1 + round(s_frac * (n - 1))
    lam = round(lam_frac * (n - 1))
    truth = tuple(pe_series_fraction(n, s, at, lam) >= target for at in (c - 1, c))
    assert prob._reaches_below_and_at(n, s, c, lam, target) == truth
    assert (pe_reaches(n, s, c - 1, lam, target), pe_reaches(n, s, c, lam, target)) == truth
    # a float target is compared exactly, as its binary value
    assert pe_reaches(n, s, c, lam, float(target)) == (
        pe_series_fraction(n, s, c, lam) >= float(target)
    )


@pytest.mark.parametrize("k", [2, 16, 64])
@pytest.mark.parametrize("target", [0.0, 1.0, 1.5, -0.5])
def test_min_clients_rejects_target_outside_open_unit_interval(k, target):
    for invert in (min_clients, mc_min_clients):
        with pytest.raises(ValueError, match="target"):
            invert(k, 3, target=target)


@pytest.mark.parametrize("trials", [0, -1])
def test_mc_min_clients_rejects_fewer_than_one_trial(trials):
    with pytest.raises(ValueError, match="trial"):
        mc_min_clients(4, 2, trials=trials)


def test_min_clients_k64_row_matches_paper():
    assert [min_clients(64, s) for s in (2, 10, 50)] == [11289, 2258, 451]


def test_mc_min_clients_tracks_exact():
    exact = min_clients(4, 2)
    estimate = mc_min_clients(4, 2, trials=4000, seed=1)
    assert abs(estimate - exact) <= max(2, 0.05 * exact)


def test_px_boundaries():
    assert px(3, 5, 15) == 1.0
    assert px(3, 5, 0) == 0.0
    assert px_sum(3, 5, 15) == 1.0
    assert px_sum(3, 5, 0) == 0.0


def test_px_identity_sample():
    rng = random.Random(21)
    for _ in range(100):
        s = rng.randrange(1, 8)
        c = rng.randrange(2, 30)
        d = rng.randrange(0, s * c + 1)
        assert abs(px(s, c, d) - px_sum(s, c, d)) < 1e-12


def test_px_monte_carlo_agreement():
    truth = px(5, 20, 30)
    estimate = mc_px(5, 20, 30, trials=100_000, seed=8)
    assert within_3_sigma(estimate, truth, 100_000)


def test_px_validation():
    with pytest.raises(ValueError):
        px(3, 5, 16)
    with pytest.raises(ValueError):
        px(0, 5, 1)


def test_recovery_threshold_identities():
    for k in (1, 2, 16, 64):
        n = (2 * k) ** 2
        assert recovery_threshold(k) == n - prob.unavailable_minimum(k) + 1
    assert recovery_threshold(16) == 16 * 46 == 736


def test_sample_distinct_rows_are_distinct():
    rng = np.random.default_rng(0)
    draws = sample_distinct(rng, 10, 7, 500)
    assert draws.shape == (500, 7)
    for row in draws:
        assert len(set(row.tolist())) == 7
