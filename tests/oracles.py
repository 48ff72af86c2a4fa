"""Reference implementations that check daproofs: slow or random ones
that have no place at run time.

- merkle_proof_verifies, share_proof_verifies: one proof at a time, with
  no memo and hashlib spelled out, the oracles for the batched
  merkle.verify_merkle_proofs and rs2d.verify_share_merkle_proofs.
- pe_series_fraction: the inclusion-exclusion series with a fresh
  math.comb per binomial in every term, the oracle for the incremental
  binomials of prob.pe_exact_fraction.
- p1_hypergeom: p1 as the hypergeometric complement, in big rationals.
- mc_pe, mc_p1, mc_pc, mc_px: Monte Carlo estimates of pe, p1, pc and px.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from typing import Optional

import numpy as np

from daproofs.merkle import DIGEST_SIZE, MerkleProof
from daproofs.rs2d import ShareProof, matrix_width_for
from daproofs.prob import (
    _check_pe_params,
    _check_px_params,
    p1,
    sample_distinct,
    unavailable_minimum,
)


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
    """pe_exact_fraction's series, every binomial from math.comb."""
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


def p1_hypergeom(k: int, s: int, q: Optional[int] = None) -> float:
    """Same probability as p1: 1 - C(n-q, s)/C(n, s), evaluated exactly."""
    n = (2 * k) ** 2
    if q is None:
        q = unavailable_minimum(k)
    if not 0 <= q <= n or not 0 <= s <= n:
        raise ValueError("parameters out of range")
    return float(1 - Fraction(math.comb(n - q, s), math.comb(n, s)))


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
