import random
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daproofs import erasure
from daproofs.erasure import Unrecoverable, gf_inv, gf_mul, rs_decode, rs_encode
from tests.oracles import gf_matmul, interpolation_matrix, lagrange_codeword


def slow_gf_mul(a, b):
    """Carryless multiply-and-reduce, independent of the module's tables."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        if a & 0x10000:
            a ^= 0x1100B
        b >>= 1
    return result


def test_generator_has_full_order():
    # alpha = 2 must enumerate every non-zero element exactly once
    seen = set()
    x = 1
    for _ in range(65535):
        assert x not in seen
        seen.add(x)
        x = slow_gf_mul(x, 2)
    assert x == 1 and len(seen) == 65535


def test_table_mul_matches_slow_mul():
    rng = random.Random(1)
    for _ in range(500):
        a, b = rng.randrange(65536), rng.randrange(65536)
        assert gf_mul(a, b) == slow_gf_mul(a, b)
    for a in (1, 2, 255, 65535):
        assert gf_mul(a, gf_inv(a)) == 1


def test_k1_duplicates_share():
    assert rs_encode([b"\x12\x34"]) == [b"\x12\x34", b"\x12\x34"]


def test_k2_matches_hand_lagrange():
    # P through (0, a) and (1, b): P(x) = a*(x^1)/(0^1) + b*(x^0)/(1^0)
    # over the carryless field, so P(2) = a*slow(3)/1... computed per lane
    a, b = 0x1234, 0xBEEF
    shares = [a.to_bytes(2, "big"), b.to_bytes(2, "big")]
    extended = rs_encode(shares)

    def hand_eval(x):
        la = slow_gf_mul(x ^ 1, gf_inv(0 ^ 1))
        lb = slow_gf_mul(x ^ 0, gf_inv(1 ^ 0))
        return slow_gf_mul(a, la) ^ slow_gf_mul(b, lb)

    assert int.from_bytes(extended[2], "big") == hand_eval(2)
    assert int.from_bytes(extended[3], "big") == hand_eval(3)


@pytest.mark.parametrize("k", range(1, 9))
def test_exhaustive_erasure_patterns(k):
    """Every presence pattern with at least k shares reconstructs the codeword."""
    data = [bytes([7 * k + i, 13 + i]) for i in range(k)]
    codeword = rs_encode(data)
    n = 2 * k
    for present_count in range(k, n + 1):
        for kept in combinations(range(n), present_count):
            recovered = rs_decode([(pos, codeword[pos]) for pos in kept], k)
            assert recovered == codeword


@pytest.mark.parametrize("k", [1, 2, 5, 8])
def test_below_threshold_unrecoverable(k):
    data = [bytes([i, i]) for i in range(k)]
    codeword = rs_encode(data)
    with pytest.raises(Unrecoverable):
        rs_decode([(pos, codeword[pos]) for pos in range(k - 1)], k)


def test_corruption_surfaces_as_reencode_mismatch():
    k = 4
    data = [bytes([i, 2 * i, 3 * i, 100 + i]) for i in range(k)]
    codeword = rs_encode(data)
    tampered = list(codeword)
    tampered[5] = tampered[5][:-1] + bytes([tampered[5][-1] ^ 0xFF])
    # decode interpolates from the first k positions (0..3, untampered),
    # so the reconstruction disagrees with the tampered input at 5
    recovered = rs_decode(list(enumerate(tampered)), k)
    assert recovered[5] != tampered[5]
    assert recovered == codeword


def test_linearity_per_lane():
    rng = random.Random(9)
    k = 6
    length = 8
    a = [bytes(rng.randrange(256) for _ in range(length)) for _ in range(k)]
    b = [bytes(rng.randrange(256) for _ in range(length)) for _ in range(k)]
    xor = [bytes(x ^ y for x, y in zip(sa, sb)) for sa, sb in zip(a, b)]
    enc_a, enc_b, enc_xor = rs_encode(a), rs_encode(b), rs_encode(xor)
    for sa, sb, sx in zip(enc_a, enc_b, enc_xor):
        assert bytes(x ^ y for x, y in zip(sa, sb)) == sx


def test_validation_errors():
    with pytest.raises(ValueError):
        rs_encode([])
    with pytest.raises(ValueError):
        rs_encode([b"\x00\x01", b"\x00"])
    with pytest.raises(ValueError):
        rs_encode([b"\x01"])  # odd length
    with pytest.raises(ValueError):
        rs_decode([(0, b"\x00\x00"), (0, b"\x00\x00")], 2)
    with pytest.raises(ValueError):
        rs_decode([(5, b"\x00\x00")], 2)
    with pytest.raises(ValueError):
        rs_encode([b"\x00\x00"] * (erasure.MAX_K + 1))


def test_systematic_prefix_preserved():
    rng = random.Random(4)
    data = [bytes(rng.randrange(256) for _ in range(6)) for _ in range(5)]
    assert rs_encode(data)[:5] == data


# --- Oracle: evaluate at all 2k points from a scalar-built matrix. ----------
#
# The reference evaluates the interpolating polynomial at every position,
# the given ones included (unit rows), from a matrix built with one scalar
# field operation per factor. The codec's closed-form matrix and its
# evaluation of only the missing positions must match it byte for byte.


@lru_cache(maxsize=None)
def oracle_matrix(xs, targets):
    """Lagrange basis L_m(target_t) over xs, with unit rows for targets in xs."""
    denoms = []
    for m, xm in enumerate(xs):
        d = 1
        for j, xj in enumerate(xs):
            if j != m:
                d = gf_mul(d, xm ^ xj)
        denoms.append(d)
    matrix = np.zeros((len(targets), len(xs)), dtype=np.uint16)
    support = {x: m for m, x in enumerate(xs)}
    for t, target in enumerate(targets):
        if target in support:
            matrix[t, support[target]] = 1
            continue
        numer = 1
        for xj in xs:
            numer = gf_mul(numer, target ^ xj)
        for m, xm in enumerate(xs):
            matrix[t, m] = gf_mul(numer, gf_inv(gf_mul(target ^ xm, denoms[m])))
    return matrix


def oracle_decode(present, k):
    chosen = sorted(present, key=lambda item: item[0])[:k]
    xs = tuple(pos for pos, _ in chosen)
    symbols = erasure._shares_to_symbols([sh for _, sh in chosen])
    evaluated = gf_matmul(oracle_matrix(xs, tuple(range(2 * k))), symbols)
    return erasure.symbols_to_shares(evaluated)


def oracle_encode(data):
    k = len(data)
    symbols = erasure._shares_to_symbols(data)
    parity = gf_matmul(oracle_matrix(tuple(range(k)), tuple(range(k, 2 * k))), symbols)
    return list(data) + erasure.symbols_to_shares(parity)


CODEC_KS = st.one_of(st.integers(min_value=1, max_value=24), st.sampled_from([32, 64]))


@settings(max_examples=60)
@given(CODEC_KS, st.integers(min_value=1, max_value=5), st.randoms(use_true_random=False))
def test_codec_matches_all_points_oracle(k, lanes, rng):
    data = [rng.randbytes(2 * lanes) for _ in range(k)]
    codeword = rs_encode(data)
    assert codeword == oracle_encode(data)
    present = [(pos, codeword[pos]) for pos in rng.sample(range(2 * k), rng.randint(k, 2 * k))]
    extras = sorted(pos for pos, _ in present)[k:]
    corrupted = rng.choice(extras) if extras and rng.random() < 0.5 else None
    if corrupted is not None:
        present = [
            (pos, bytes([sh[0] ^ 0x80]) + sh[1:] if pos == corrupted else sh)
            for pos, sh in present
        ]
    decoded = rs_decode(present, k)
    assert decoded == oracle_decode(present, k)
    assert decoded == codeword
    if corrupted is not None:
        assert decoded[corrupted] != dict(present)[corrupted]


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=128), st.randoms(use_true_random=False))
def test_closed_form_matrix_matches_scalar_builder(k, rng):
    xs = tuple(rng.sample(range(2 * k), k))
    targets = tuple(pos for pos in range(2 * k) if pos not in xs)
    assert np.array_equal(interpolation_matrix(xs, targets), oracle_matrix(xs, targets))


# --- The additive FFT: the two half-to-half patterns at power-of-two k. ----


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1 << m for m in range(9)]),
    st.integers(min_value=1, max_value=5),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_half_to_half_fft_matches_oracle(k, lanes, from_parity, rng):
    data = [rng.randbytes(2 * lanes) for _ in range(k)]
    codeword = rs_encode(data)
    assert codeword == oracle_encode(data)
    if from_parity:
        present = [(pos, codeword[pos]) for pos in range(k, 2 * k)]
        corrupted = None
    else:
        # Extras come after the data half by position, so 0..k-1 stay the given shares.
        extras = rng.sample(range(k, 2 * k), rng.randint(0, k))
        present = [(pos, codeword[pos]) for pos in [*range(k), *extras]]
        corrupted = rng.choice(extras) if extras and rng.random() < 0.5 else None
        if corrupted is not None:
            present = [
                (pos, sh[:-1] + bytes([sh[-1] ^ 0x01]) if pos == corrupted else sh)
                for pos, sh in present
            ]
    rng.shuffle(present)
    decoded = rs_decode(present, k)
    assert decoded == oracle_decode(present, k)
    assert decoded == codeword
    if corrupted is not None:
        assert decoded[corrupted] != dict(present)[corrupted]


def test_half_to_half_patterns_skip_general_evaluator(monkeypatch):
    general = erasure._evaluate_erasures
    calls = []

    def counted(*args):
        calls.append(args[1])
        return general(*args)

    monkeypatch.setattr(erasure, "_evaluate_erasures", counted)
    rng = random.Random(3)
    k = 64
    data = [rng.randbytes(16) for _ in range(k)]
    codeword = rs_encode(data)
    assert rs_decode(list(enumerate(codeword))[k:], k) == codeword
    assert rs_decode(list(enumerate(codeword))[: k + 3], k) == codeword
    assert calls == []
    # the general evaluator serves every other pattern, and every k that is
    # not a power of two
    assert rs_decode(list(enumerate(codeword))[1 : k + 1], k) == codeword
    rs_encode(data[:-1])
    assert calls == [tuple(range(1, k + 1)), tuple(range(k - 1))]


def subspace_lagrange_at(values, target):
    """P(target) for P through (j, values[j]), j < k, with k a power of two and target >= k.

    The points form a subspace V, so every Lagrange denominator
    prod_{j != m} (m ^ j) is the same product of V's non-zero elements.
    """
    k = len(values)
    points = np.arange(k)
    diff_logs = erasure._LOG[target ^ points].astype(np.int64)
    log_denom = int(erasure._LOG[points[1:]].sum(dtype=np.int64))
    exponents = (int(diff_logs.sum()) - diff_logs - log_denom) % 65535
    terms = erasure._EXP_PAD[erasure._LOG_PAD[values] + exponents]
    return int(np.bitwise_xor.reduce(terms))


def test_max_k_encode_and_decode_from_parity():
    k = erasure.MAX_K
    rng = random.Random(11)
    data = [rng.randbytes(2) for _ in range(k)]
    codeword = rs_encode(data)
    assert codeword[:k] == data
    values = np.array([int.from_bytes(sh, "big") for sh in data], dtype=np.int64)
    for target in [k, k + 1, *rng.sample(range(k, 2 * k), 4), 2 * k - 1]:
        assert int.from_bytes(codeword[target], "big") == subspace_lagrange_at(values, target)
    assert rs_decode(list(enumerate(codeword))[k:], k) == codeword


# --- The general evaluator: every other pattern, against Lagrange. ---------


@settings(max_examples=80)
@given(
    st.one_of(st.integers(min_value=1, max_value=24), st.sampled_from([32, 64, 100, 128])),
    st.integers(min_value=1, max_value=4),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_fft_evaluator_matches_lagrange_oracle(k, lanes, arbitrary, rng):
    """Random patterns of k..2k shares: from a codeword with some extras
    corrupted, or arbitrary symbols, as a codec fraud proof may carry."""
    data = [rng.randbytes(2 * lanes) for _ in range(k)]
    codeword = rs_encode(data)
    positions = rng.sample(range(2 * k), rng.randint(k, 2 * k))
    extras = sorted(positions)[k:]
    corrupted = set(rng.sample(extras, rng.randint(0, len(extras))))
    if arbitrary:
        present = [(pos, rng.randbytes(2 * lanes)) for pos in positions]
    else:
        present = [
            (pos, bytes([codeword[pos][0] ^ 0x40]) + codeword[pos][1:] if pos in corrupted
             else codeword[pos])
            for pos in positions
        ]
    decoded = rs_decode(present, k)
    assert decoded == lagrange_codeword(present, k)
    if not arbitrary:
        assert decoded == codeword
        assert all(decoded[pos] != share for pos, share in present if pos in corrupted)


def lagrange_at(xs, values, target):
    """P(target) for P of degree below len(xs) through (xs[m], values[m]),
    as the Lagrange sum in logs; the denominators in chunks of 256 rows."""
    xs = np.asarray(xs, dtype=np.int64)
    log_denoms = np.concatenate([
        erasure._LOG[xs[start : start + 256, None] ^ xs[None, :]].sum(axis=1, dtype=np.int64)
        for start in range(0, len(xs), 256)
    ])
    diff_logs = erasure._LOG[target ^ xs].astype(np.int64)
    exponents = (int(diff_logs.sum()) - diff_logs - log_denoms) % 65535
    terms = erasure._EXP_PAD[erasure._LOG_PAD[np.asarray(values)] + exponents]
    return int(np.bitwise_xor.reduce(terms))


def test_random_pattern_at_k4096():
    k = 4096
    rng = random.Random(21)
    codeword = rs_encode([rng.randbytes(4) for _ in range(k)])
    positions = rng.sample(range(2 * k), k)
    assert rs_decode([(pos, codeword[pos]) for pos in positions], k) == codeword
    given_shares = [(pos, rng.randbytes(2)) for pos in positions]
    decoded = rs_decode(given_shares, k)
    assert all(decoded[pos] == share for pos, share in given_shares)
    xs = [pos for pos, _ in given_shares]
    values = [int.from_bytes(share, "big") for _, share in given_shares]
    missing = sorted(set(range(2 * k)).difference(xs))
    for target in [missing[0], missing[-1], *rng.sample(missing, 3)]:
        assert int.from_bytes(decoded[target], "big") == lagrange_at(xs, values, target)


# --- The batch entry point: axes that share their given positions. --------


@settings(max_examples=80)
@given(st.data())
def test_batch_codec_matches_per_axis_decode_and_lagrange(data):
    """evaluate_axes against rs_decode and the Lagrange oracle, axis by
    axis: half-to-half and general patterns, k not a power of two, given
    shares from codewords or arbitrary, corrupted extra shares beyond the
    given ones, and caps that cut the axes into several calls."""
    k = data.draw(st.one_of(st.integers(1, 20), st.sampled_from([32, 64])), label="k")
    lanes = data.draw(st.integers(1, 3), label="lanes")
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    pattern = data.draw(st.sampled_from(["data", "parity", "random"]), label="pattern")
    if pattern == "random":
        present = sorted(rng.sample(range(2 * k), rng.randint(k, 2 * k)))
    else:
        start = 0 if pattern == "data" else k
        extras = rng.sample(range(k - start, 2 * k - start), rng.randint(0, k))
        present = sorted([*range(start, start + k), *extras])
    xs = present[:k]
    count = data.draw(st.integers(1, 9), label="axes")
    axes = []
    for _ in range(count):
        if rng.random() < 0.5:
            shares = dict(enumerate(rs_encode([rng.randbytes(2 * lanes) for _ in range(k)])))
        else:
            shares = {pos: rng.randbytes(2 * lanes) for pos in range(2 * k)}
        for pos in present[k:]:
            if rng.random() < 0.3:
                shares[pos] = bytes([shares[pos][0] ^ 0x10]) + shares[pos][1:]
        axes.append([(pos, shares[pos]) for pos in present])
    # the working array: k rows half to half, N >= 2k on the general path
    half = k & (k - 1) == 0 and xs in (list(range(k)), list(range(k, 2 * k)))
    rows = k if half else 1 << (2 * k - 1).bit_length()
    run = data.draw(st.sampled_from([1, 2, 3, erasure.CALL_SYMBOLS // (rows * lanes)]))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(erasure, "CALL_SYMBOLS", run * rows * lanes)
        calls = list(erasure.evaluate_axes(xs, [[sh for _, sh in axis[:k]] for axis in axes], k))
    assert [len(values) for values in calls] == [
        min(run, count - start) for start in range(0, count, run)
    ]
    targets = erasure.erased(xs, k)
    batch = [evaluated for values in calls for evaluated in values]
    for axis, evaluated in zip(axes, batch):
        decoded = rs_decode(axis, k)
        assert decoded == lagrange_codeword(axis, k)
        assert evaluated == [decoded[pos] for pos in targets]
        assert all(decoded[pos] == share for pos, share in axis[:k])


def test_batch_codec_rejects_bad_positions_and_shares():
    shares = [[b"ab", b"cd"]]
    for xs in ([0], [1, 0], [0, 0], [0, 4], [-1, 0]):
        with pytest.raises(ValueError):
            list(erasure.evaluate_axes(xs, shares, 2))
    for bad in ([[b"ab", b"c"]], [[b"ab"]], [[b"a", b"c"]]):
        with pytest.raises(ValueError):
            list(erasure.evaluate_axes([0, 1], bad, 2))
    assert list(erasure.evaluate_axes([0, 1], [], 2)) == []


def test_batch_codec_reads_axes_one_run_at_a_time(monkeypatch):
    """A run of two axes per call: the first yield has read exactly those
    two axes, and holds each one's k evaluated shares at the input length."""
    k, size = 4, 6
    monkeypatch.setattr(erasure, "CALL_SYMBOLS", 2 * k * (size // 2))  # half to half: k rows
    rng = random.Random(9)
    data = [[rng.randbytes(size) for _ in range(k)] for _ in range(5)]
    consumed = []

    def axes():
        for shares in data:
            consumed.append(shares)
            yield shares

    runs = erasure.evaluate_axes(range(k), axes(), k)
    first = next(runs)
    assert len(consumed) == 2
    assert [[len(share) for share in shares] for shares in first] == [[size] * k] * 2
    assert first == [rs_encode(shares)[k:] for shares in data[:2]]
    assert [len(run) for run in runs] == [2, 1]
    assert len(consumed) == 5
