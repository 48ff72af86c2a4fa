"""Reference implementations that check daproofs: slow or random ones
that have no place at run time.

- interpolation_matrix, gf_matmul, lagrange_codeword: the closed-form
  Lagrange matrix and its GF(2^16) product, O(k^2) per pattern, the
  oracle for erasure's FFT evaluators.
- recover_every_axis: recover_matrix without the digest grid or the 3k
  rule, decoding every axis and leaf-hashing every decoded share.
- merkle_proof_verifies, share_proof_verifies: one proof at a time, with
  no memo and hashlib spelled out, the oracles for the batched
  merkle.verify_merkle_proofs and rs2d.verify_share_merkle_proofs.
- pe_series_fraction: the inclusion-exclusion series with a fresh
  math.comb per binomial in every term, the oracle for the incremental
  binomials of prob._series_terms and the exact tests built on them.
- pe_per_draw_curve: the distinct-count chain one draw at a time over
  every index, the oracle for the group kernel of prob.pe_dp_curve.
- pe_group_curve: the group chain over every index with the kernel of
  every source at once, the oracle for pe_dp_curve's live window and its
  sliding kernel.
- p1_hypergeom: p1 as the hypergeometric complement, in big rationals.
- mc_pe, mc_p1, mc_pc, mc_px: Monte Carlo estimates of pe, p1, pc and px.
- sample_distinct, recovery_experiment: uniform draws without replacement,
  and the seeded frequency of c clients jointly drawing enough distinct
  shares to recover, a Monte Carlo check of pe.
- p1_limit: the large-k limit of p1, the closed form that checks prob.p1.
- px_sum: px as the Vandermonde sum over how many of the client's s
  requests are denied, the oracle of prob.px's one complement.
- transition, valid, collect_fees, total_supply: the paper's pure state
  definitions (a new tree per transfer, ERR absorbing), the oracle of the
  in-place replay.
- is_accepted: a header a client holds and has not rejected.
- predicted_deceived_prefix: the selective adversary's request budget
  replayed on the clients' sample draws, the simulator's expected
  deceived clients.
- HeapEngine: the simulator's event loop as one heap of (tick, sequence)
  entries, the oracle of sim._Engine's per-tick FIFO lists.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from daproofs import erasure, merkle, rs2d
from daproofs.fraud import HeaderStore
from daproofs.merkle import DIGEST_SIZE, MerkleProof
from daproofs.rs2d import ShareProof, matrix_width_for
from daproofs.prob import (
    _check_pe_params,
    _check_px_params,
    p1,
    recovery_threshold,
    unavailable_minimum,
)
from daproofs.sim import SimConfig, draw_coordinates
from daproofs.smt import StateTree
from daproofs.state import (
    ERR,
    AccountValue,
    Transaction,
    _apply_rules,
    _ErrType,
    apply_fee_payout,
)


def gf_matmul(matrix: np.ndarray, data: np.ndarray) -> np.ndarray:
    """GF(2^16) matrix product: (m, k) x (k, lanes) -> (m, lanes)."""
    out = np.zeros((matrix.shape[0], data.shape[1]), dtype=np.uint16)
    log_rows = erasure._LOG_PAD[matrix]  # (m, k)
    log_data = erasure._LOG_PAD[data]  # (k, lanes)
    for i in range(matrix.shape[1]):
        out ^= erasure._EXP_PAD[log_rows[:, i, None] + log_data[None, i, :]]
    return out


def interpolation_matrix(xs: tuple[int, ...], targets: tuple[int, ...]) -> np.ndarray:
    """Rows evaluate the polynomial through points xs at each target.

    Entry [t, m] is L_m(t) = prod_j (t ^ x_j) / ((t ^ x_m) prod_{j!=m} (x_m ^ x_j)), one
    antilog of a log sum: no target is in xs, and x_m ^ x_m = 0 adds LOG[0] = 0.
    """
    support = np.array(xs, dtype=np.int64)
    diff_logs = erasure._LOG[np.bitwise_xor.outer(np.array(targets, dtype=np.int64), support)]
    numer = diff_logs.sum(axis=1, dtype=np.int64)
    denom = erasure._LOG[np.bitwise_xor.outer(support, support)].sum(axis=1, dtype=np.int64)
    exponents = (numer[:, None] - diff_logs - denom[None, :]) % 65535
    return erasure._EXP[exponents].astype(np.uint16)


def lagrange_codeword(present: list[tuple[int, bytes]], k: int) -> list[bytes]:
    """rs_decode through the Lagrange matrix: interpolate through the first
    k shares by position and evaluate every other position."""
    chosen = sorted(present)[:k]
    xs = tuple(pos for pos, _ in chosen)
    targets = tuple(pos for pos in range(2 * k) if pos not in xs)
    symbols = erasure._shares_to_symbols([sh for _, sh in chosen])
    codeword = dict(zip(targets, erasure.symbols_to_shares(
        gf_matmul(interpolation_matrix(xs, targets), symbols)
    )))
    codeword.update(chosen)
    return [codeword[pos] for pos in range(2 * k)]


def merkle_proof_verifies(
    element: bytes, proof: MerkleProof, root_digest: bytes, tree_size: int, index: int
) -> bool:
    """The per-proof fold: True iff proof binds element to position index
    in a tree of tree_size leaves under root_digest."""
    if tree_size < 1 or not 0 <= index < tree_size:
        return False
    if proof.tree_size != tree_size or proof.leaf_index != index:
        return False
    if any(len(sib) != DIGEST_SIZE for sib in proof.siblings):
        return False
    siblings = iter(proof.siblings)
    node = hashlib.sha256(b"\x00" + element).digest()
    while tree_size > 1:
        if index ^ 1 < tree_size:
            sib = next(siblings, None)
            if sib is None:
                return False
            pair = sib + node if index & 1 else node + sib
            node = hashlib.sha256(b"\x01" + pair).digest()
        index >>= 1
        tree_size = (tree_size + 1) >> 1
    return next(siblings, None) is None and node == root_digest


def share_proof_verifies(
    share: bytes, proof: ShareProof, data_root: bytes, data_length: int, index: int
) -> bool:
    """One share against the data root at a virtual-tree index: its root
    path, then its axis path."""
    try:
        w = matrix_width_for(data_length)
    except ValueError:
        return False
    if not 0 <= index < data_length:
        return False
    top, pos = divmod(index, w)
    return merkle_proof_verifies(
        proof.axis_root, proof.root_proof, data_root, 2 * w, top
    ) and merkle_proof_verifies(share, proof.axis_proof, proof.axis_root, w, pos)


def pe_series_fraction(n: int, s: int, c: int, lam: int) -> Fraction:
    """pe as an exact fraction: the series, every binomial from math.comb."""
    _check_pe_params(n, s, c, lam)
    denom_base = math.comb(n, s)
    total = 0
    for i in range(1, n - lam + 1):
        remaining = n - lam - i
        w_num = math.comb(remaining, s) if remaining >= s else 0
        if w_num == 0:
            break
        term = math.comb(lam + i - 1, lam) * math.comb(n, lam + i) * pow(w_num, c)
        total += -term if i % 2 else term
    return 1 + Fraction(total, pow(denom_base, c))


def pe_per_draw_curve(n: int, s: int, lam: int, c_max: int) -> np.ndarray:
    """pe for c = 0..c_max, drawing each group one share at a time: its
    i-th share is new with probability (n - z)/(n - i) when z are seen."""
    goal = n - lam
    unseen = np.arange(n, 0, -1, dtype=np.float64)
    dist = np.zeros(n + 1)
    dist[0] = 1.0
    out = np.zeros(c_max + 1)
    for c in range(1, c_max + 1):
        for i in range(s):
            top = min(n, (c - 1) * s + i + 1)
            move = dist[:top] * unseen[:top] / (n - i)
            dist[:top] -= move
            dist[1 : top + 1] += move
        out[c] = dist[goal:].sum()
    return out


def pe_group_curve(n: int, s: int, lam: int, c_max: int) -> np.ndarray:
    """pe for c = 0..c_max, one group kernel product per c over all n + 1
    entries. kernel[m, t] is the probability of m - s + t -> m in one
    group, from the per-draw chain run from a point mass at every z."""
    width = s + 1
    chain = np.zeros((width, n + 1))  # chain[j, z]: j new shares from z
    chain[0] = 1.0
    unseen = (n - np.arange(n + 1, dtype=np.float64)) - np.arange(width)[:, None]
    for i in range(s):
        move = chain[: i + 1] * unseen[: i + 1]
        move /= n - i
        chain[: i + 1] -= move
        chain[1 : i + 2] += move
    kernel = np.zeros((n + 1, width))
    for j in range(width):
        kernel[j:, s - j] = chain[j, : n + 1 - j]
    padded = np.zeros(n + 1 + s)
    dist = padded[s:]
    dist[0] = 1.0
    windows = sliding_window_view(padded, width)  # windows[m, t] = dist[m - s + t]
    out = np.zeros(c_max + 1)
    for c in range(1, c_max + 1):
        dist[:] = np.einsum("zt,zt->z", windows, kernel)
        out[c] = dist[n - lam :].sum()
    return out


def p1_hypergeom(k: int, s: int, q: Optional[int] = None) -> float:
    """Same probability as p1: 1 - C(n-q, s)/C(n, s), evaluated exactly."""
    n = (2 * k) ** 2
    if q is None:
        q = unavailable_minimum(k)
    if not 0 <= q <= n or not 0 <= s <= n:
        raise ValueError("parameters out of range")
    return float(1 - Fraction(math.comb(n - q, s), math.comb(n, s)))


def sample_distinct(rng: np.random.Generator, n: int, s: int, trials: int) -> np.ndarray:
    """(trials, s) matrix of uniform draws without replacement per row."""
    if not 0 <= s <= n:
        raise ValueError("need 0 <= s <= n")
    if s == 0:
        return np.empty((trials, 0), dtype=np.int64)
    draws = rng.integers(0, n, size=(trials, s))
    for _ in range(64):
        ordered = np.sort(draws, axis=1)
        dup = (np.diff(ordered, axis=1) == 0).any(axis=1)
        if not dup.any():
            return draws
        draws[dup] = rng.integers(0, n, size=(int(dup.sum()), s))
    # dense regime: draw by shuffling explicit index rows
    bad = np.nonzero(dup)[0]
    for row in bad:
        draws[row] = rng.permutation(n)[:s]
    return draws


def recovery_experiment(k: int, s: int, c: int, seeds: Sequence[int]) -> float:
    """Fraction of seeded runs whose c clients collectively draw at least
    gamma distinct shares (each client draws s without replacement)."""
    n = (2 * k) ** 2
    gamma = recovery_threshold(k)
    hits = 0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        draws = sample_distinct(rng, n, s, c)
        if np.unique(draws).size >= gamma:
            hits += 1
    return hits / len(seeds)


def mc_pe(n: int, s: int, c: int, lam: int, trials: int = 100_000, seed: int = 0) -> float:
    """Monte Carlo estimate of pe by simulating the distinct-count chain."""
    _check_pe_params(n, s, c, lam)
    rng = np.random.default_rng(seed)
    z = np.full(trials, s, dtype=np.int64)
    for _ in range(c - 1):
        z += rng.hypergeometric(n - z, z, s)
    return float(np.mean(z >= n - lam))


def mc_px(s: int, c: int, d: int, trials: int = 100_000, seed: int = 0) -> float:
    """Monte Carlo: deny d uniformly random requests of c*s, watch one client."""
    _check_px_params(s, c, d)
    rng = np.random.default_rng(seed)
    hits = rng.hypergeometric(s, s * (c - 1), d, size=trials)
    return float(np.mean(hits > 0))


def mc_p1(
    k: int, s: int, q: Optional[int] = None, trials: int = 100_000, seed: int = 0
) -> float:
    """Monte Carlo p1: which trials touch the q withheld cells (the first q,
    by symmetry of uniform sampling)."""
    n = (2 * k) ** 2
    if q is None:
        q = unavailable_minimum(k)
    if not 0 <= q <= n or not 0 <= s <= n:
        raise ValueError("parameters out of range")
    rng = np.random.default_rng(seed)
    draws = sample_distinct(rng, n, s, trials)
    return float(np.mean((draws < q).any(axis=1)))


def mc_pc(
    k: int,
    s: int,
    c: int,
    c_hat: int,
    q: Optional[int] = None,
    trials: int = 100_000,
    seed: int = 0,
) -> float:
    """Monte Carlo pc: binomial draws of per-client successes at rate p1."""
    if not 0 <= c_hat <= c:
        raise ValueError("c_hat must be in 0..c")
    hit = p1(k, s, q)
    rng = np.random.default_rng(seed)
    successes = rng.binomial(c, hit, size=trials)
    return float(np.mean(successes > c_hat))


def recover_every_axis(
    partial: rs2d.PartialMatrix, commitment: rs2d.DataCommitment
) -> rs2d.ExtendedMatrix | rs2d.CodecFault:
    """recover_matrix as the plain rule: peel axis by axis, then decode
    every axis peeling left undecoded, each through the Lagrange oracle,
    with every root built from the decoded shares' own leaf hashes."""
    k, w = partial.k, partial.width

    def at(axis: int, j: int, pos: int) -> tuple[int, int]:
        return (j, pos) if axis == rs2d.ROW else (pos, j)

    def axis_cells(axis: int, j: int) -> list[Optional[bytes]]:
        return [partial.cells[x][y] for x, y in (at(axis, j, pos) for pos in range(w))]

    def received(axis: int, j: int, pos: int) -> bool:
        x, y = at(axis, j, pos)
        return partial.origins[x][y] is not None

    filled_by: dict[tuple[int, int], tuple[int, list[bytes]]] = {}

    def decode(axis: int, j: int) -> tuple[list[bytes], Optional[rs2d.CodecFault]]:
        cells = axis_cells(axis, j)
        present = [pos for pos in range(w) if cells[pos] is not None]
        present.sort(key=lambda pos: (not received(axis, j, pos), pos))
        chosen = sorted(present[:k])
        decoded = lagrange_codeword([(pos, cells[pos]) for pos in chosen], k)
        root = commitment.axis_root(axis, j)
        if merkle.MerkleTree(decoded).root == root:
            return decoded, None
        shares, proofs = [], []
        for pos in chosen:
            x, y = at(axis, j, pos)
            origin, proof = partial.origins[x][y], partial.proofs[x][y]
            if origin is None and (x, y) in filled_by:
                origin, content = filled_by[(x, y)]
                fill_j, fill_pos = (x, y) if origin == rs2d.ROW else (y, x)
                proof = commitment.share_proof(
                    origin, fill_j, merkle.MerkleTree(content).prove(fill_pos)
                )
            shares.append((cells[pos], pos, rs2d.ROW if origin is None else origin))
            proofs.append(proof)
        return decoded, rs2d.CodecFault(axis, j, root, tuple(shares), tuple(proofs))

    decoded_axes = set()
    changed = True
    while changed:
        changed = False
        for axis in (rs2d.ROW, rs2d.COLUMN):
            for j in range(w):
                holes = [pos for pos, cell in enumerate(axis_cells(axis, j)) if cell is None]
                if (axis, j) in decoded_axes or not holes or w - len(holes) < k:
                    continue
                decoded, fault = decode(axis, j)
                if fault is not None:
                    return fault
                for pos in holes:
                    x, y = at(axis, j, pos)
                    partial.cells[x][y] = decoded[pos]
                    filled_by[(x, y)] = (axis, decoded)
                decoded_axes.add((axis, j))
                changed = True
    if partial.missing():
        raise erasure.Unrecoverable("peeling stalled with cells absent")
    for axis in (rs2d.ROW, rs2d.COLUMN):
        for j in range(w):
            if (axis, j) not in decoded_axes:
                _, fault = decode(axis, j)
                if fault is not None:
                    return fault
    return rs2d.ExtendedMatrix(k, partial.share_size, [list(row) for row in partial.cells])


def p1_limit(s: int) -> float:
    """Large-k limit of p1 at the unrecoverability minimum: 1 - (3/4)^s."""
    return 1.0 - 0.75 ** s


def px_sum(s: int, c: int, d: int) -> float:
    """px summed over i >= 1 of the client's requests among the d denied:
    C(s, i) C(s(c-1), d-i) / C(cs, d)."""
    _check_px_params(s, c, d)
    total = math.comb(c * s, d)
    others = s * (c - 1)
    acc = Fraction(0)
    for i in range(1, min(s, d) + 1):
        acc += Fraction(math.comb(s, i) * math.comb(others, d - i), total)
    return float(acc)


def transition(state: Union[StateTree, _ErrType], tx: Transaction) -> Union[StateTree, _ErrType]:
    """Pure transfer: returns a new tree, or the absorbing ERR."""
    if state is ERR:
        return ERR
    assert isinstance(state, StateTree)
    new = state.copy()
    return new if _apply_rules(new, tx) else ERR


def valid(txs: Iterable[Transaction], state: StateTree) -> bool:
    """True iff replaying every transfer in order never hits ERR."""
    current = state.copy()
    return all(_apply_rules(current, tx) for tx in txs)


def collect_fees(tree: StateTree, producer: bytes) -> StateTree:
    """Pure fee payout, applied as a block's final implicit transition."""
    new = tree.copy()
    apply_fee_payout(new, producer)
    return new


def total_supply(tree: StateTree) -> int:
    """Sum of all balances including the fee accumulator."""
    return sum(AccountValue.decode(value).balance for _, value in tree.items())


def is_accepted(store: HeaderStore, block_hash: bytes) -> bool:
    return block_hash in store.headers and not store.is_rejected(block_hash)


def predicted_deceived_prefix(config: SimConfig) -> list[int]:
    """Replay the request-budget arithmetic on the clients' sample draws.

    Standard model only: walks requests in client order, releasing new
    cells until the budget would overflow, and returns the clients whose
    requests were all answered before the producer went dark.
    """
    if config.network_model != "standard":
        raise ValueError("prefix prediction applies to the standard model")
    limit = config.effective_selective_limit
    released: set[tuple[int, int]] = set()
    deceived = []
    for client_id in range(config.light_clients):
        rng = random.Random(f"{config.seed}:client:{client_id}")
        served_all = True
        for cell in draw_coordinates(rng, 2 * config.k, config.s):
            if cell in released:
                continue
            if len(released) < limit:
                released.add(cell)
                continue
            served_all = False
            break
        if not served_all:
            break  # the producer is dark; nobody later is served either
        deceived.append(client_id)
    return deceived


class HeapEngine:
    """sim._Engine's schedule and run over one heap ordered by (tick, sequence)."""

    def __init__(self) -> None:
        self._queue: list[tuple[int, int, Callable[..., None], tuple]] = []
        self._seq = 0
        self.now = 0

    def schedule(self, delay: int, handler: Callable[..., None], *args: object) -> None:
        heapq.heappush(self._queue, (self.now + delay, self._seq, handler, args))
        self._seq += 1

    def run(self) -> int:
        while self._queue:
            tick, _, handler, args = heapq.heappop(self._queue)
            self.now = tick
            handler(*args)
        return self.now
