"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The suite is self-contained and deterministic; the slowest pieces
are the exhaustive k=2 recovery sweep (criterion 1), the exact
big-rational client-count boundaries (criterion 4), and the 10^4-proof
fuzz barrage (criterion 6).
"""

import dataclasses
import math
import random
import statistics
from fractions import Fraction
from itertools import combinations

import pytest

from daproofs import fraud, merkle, prob, rs2d, sim
from daproofs.block import build_block, build_double_tree_block, genesis_header
from daproofs.fraud import (
    CodecFraudProof,
    HeaderStore,
    TransitionFraudProof,
    decode_codec_fraud_proof,
    decode_transition_fraud_proof,
    encode_codec_fraud_proof,
    encode_transition_fraud_proof,
    generate_codec_fraud_proof,
    generate_double_tree_fraud_proof,
    generate_transition_fraud_proof,
    verify_codec_fraud_proof,
    verify_double_tree_fraud_proof,
    verify_transition_fraud_proof,
)
from daproofs.rs2d import ROW, PartialMatrix
from daproofs.smt import SparseProof
from daproofs.state import StateWitness
from tests.conftest import funded_state, transfer_chain
from tests.oracles import mc_p1, predicted_deceived_prefix, px_sum


def report(number: int, label: str, detail: str = "") -> None:
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {number} ({label}): PASS{suffix}")


# --- 1. recoverability threshold ----------------------------------------------------


def test_criterion_1_recovery_threshold():
    """k=2: every 8-cell erasure recovers; a 3x3 erased submatrix does not."""
    rng = random.Random(0)
    shares = [bytes(rng.randrange(256) for _ in range(8)) for _ in range(4)]
    matrix = rs2d.extend_shares(shares, 2, 8)
    commitment = rs2d.commit(matrix)
    cells = [(r, c) for r in range(4) for c in range(4)]

    patterns = 0
    for pattern in combinations(cells, 8):
        partial = PartialMatrix.from_matrix(matrix, withhold=pattern)
        result = rs2d.recover_matrix(partial, commitment)
        assert isinstance(result, rs2d.ExtendedMatrix), pattern
        assert result.cells == matrix.cells, pattern
        patterns += 1
    assert patterns == math.comb(16, 8) == 12870

    submatrix = [(r, c) for r in range(3) for c in range(3)]
    assert len(submatrix) == 9 == (2 + 1) ** 2
    partial = PartialMatrix.from_matrix(matrix, withhold=submatrix)
    with pytest.raises(rs2d.Unrecoverable):
        rs2d.recover_matrix(partial, commitment)

    report(1, "recoverability threshold", f"{patterns} erasure patterns + (k+1)^2 barrier")


# --- 2. single-client detection probability ------------------------------------------


def test_criterion_2_single_client_detection():
    p3 = prob.p1(32, 3)
    p15 = prob.p1(32, 15)
    assert 0.55 <= p3 <= 0.65
    assert p15 > 0.99

    trials = 100_000
    for s, closed in ((3, p3), (15, p15)):
        estimate = mc_p1(32, s, trials=trials, seed=42 + s)
        sigma = math.sqrt(closed * (1 - closed) / trials)
        assert abs(estimate - closed) <= 3 * sigma, (s, estimate, closed)

    report(2, "sampling hit probability", f"p1(32,3)={p3:.4f}, p1(32,15)={p15:.6f}")


# --- 3. large-matrix limit -------------------------------------------------------------


def test_criterion_3_limit_independence():
    worst = 0.0
    for s in range(1, 21):
        gap = abs(prob.p1(256, s) - (1 - 0.75 ** s))
        worst = max(worst, gap)
        assert gap < 0.01, s
    report(3, "large-k limit", f"max |p1(256,s) - limit| = {worst:.5f}")


# --- 4. minimum client counts ------------------------------------------------------------


def test_criterion_4_minimum_client_counts():
    # exact boundary confirmation at high precision
    target = Fraction(99, 100)
    expectations = {(16, 2): 692, (32, 5): 1122, (16, 50): 28}
    for (k, s), expected in expectations.items():
        got = prob.min_clients(k, s)
        assert got == expected, (k, s, got)
        n = (2 * k) ** 2
        lam = n - prob.recovery_threshold(k)
        assert prob.pe_reaches(n, s, expected, lam, target)
        assert not prob.pe_reaches(n, s, expected - 1, lam, target)

    # k=64 row exactly by the chain. The paper prints 4516 for s=5, one too
    # high: pe(n=16384, s=5, c=4515) already reaches 0.99
    exact_k64 = {2: 11289, 5: 4515, 10: 2258, 20: 1129, 50: 451}
    for s, expected in exact_k64.items():
        assert prob.min_clients(64, s) == expected, (s, expected)

    # k=64 row by Monte Carlo hitting-time inversion, within 1%
    table_k64 = {2: 11289, 5: 4516, 10: 2258, 20: 1129, 50: 451}
    details = []
    for s, expected in table_k64.items():
        got = prob.mc_min_clients(64, s, trials=4000, seed=1000 + s)
        assert abs(got - expected) <= math.ceil(0.01 * expected), (s, got, expected)
        details.append(f"s={s}:{got}")

    report(4, "minimum client counts", "692/1122/28 exact; k=64 " + " ".join(details))


# --- 5. denial probability identity and simulation ----------------------------------------


ENHANCED = dict(
    k=16,
    share_size=64,
    s=5,
    light_clients=50,
    full_nodes=2,
    adversary="selective",
    selective_limit=175,
    network_model="enhanced",
    tx_count=12,
)


@pytest.fixture(scope="module")
def enhanced_runs():
    scenario = sim.prepare_scenario(sim.SimConfig(**ENHANCED, seed=0))
    results = []
    for seed in range(1000):
        results.append(sim.run_sampling(sim.SimConfig(**ENHANCED, seed=seed), scenario))
    return results


def test_criterion_5_denial_probability(enhanced_runs):
    rng = random.Random(123)
    worst = 0.0
    for _ in range(1000):
        s = rng.randrange(1, 12)
        c = rng.randrange(2, 40)
        d = rng.randrange(0, s * c + 1)
        gap = abs(prob.px(s, c, d) - px_sum(s, c, d))
        worst = max(worst, gap)
        assert gap < 1e-12

    c = ENHANCED["light_clients"]
    denied = {run.denied_requests for run in enhanced_runs}
    assert denied == {c * ENHANCED["s"] - ENHANCED["selective_limit"]}
    d = denied.pop()
    expected = prob.px(ENHANCED["s"], c, d)
    rates = [
        sum(1 for v in run.per_client if v.verdict != sim.VERDICT_ACCEPT) / c
        for run in enhanced_runs
    ]
    mean = statistics.mean(rates)
    stderr = statistics.stdev(rates) / math.sqrt(len(rates))
    assert abs(mean - expected) <= 3 * stderr, (mean, expected, stderr)

    report(
        5,
        "denial probability",
        f"identity gap {worst:.1e}; sim {mean:.4f} vs px {expected:.4f} (3se {3*stderr:.4f})",
    )


# --- 6. fraud-proof completeness and soundness ----------------------------------------------


FUZZ_K = 2
FUZZ_SHARE = 256
FUZZ_P = 3


def fuzz_chain(mode, corrupt="trace", seed=0, tx_count=7):
    tree, keys = funded_state()
    txs = transfer_chain(keys, tx_count, random.Random(seed))
    genesis = genesis_header(tree)
    built = build_block(
        genesis, tree, txs, k=FUZZ_K, share_size=FUZZ_SHARE, p=FUZZ_P,
        mode=mode, corrupt=corrupt,
    )
    return built, tree, genesis


def honest_content_transition_proof(built, tree):
    """A well-formed proof of a period that actually replays cleanly."""
    working = tree.copy()
    from daproofs.state import apply_transaction, make_tx_witness

    parsed = fraud.parse_shares_with_spans(built.shares)
    witnesses = []
    for pm in parsed:
        if isinstance(pm.message, bytes):
            end_share = pm.last_share
            break
        witnesses.append(make_tx_witness(working, pm.message))
        apply_transaction(working, pm.message)
    share_run = built.shares[: end_share + 1]
    proofs = []
    for index in range(len(share_run)):
        r, c = divmod(index, built.matrix.k)
        _, sp = rs2d.prove_share(built.matrix, r, c, ROW)
        proofs.append(sp)
    slice_ = fraud.read_period(fraud.parse_shares_with_spans(share_run), True, FUZZ_P)
    witnesses = witnesses[: len(slice_.txs)]
    return TransitionFraudProof(
        block_hash=built.header.block_hash(),
        start_index=0,
        shares=tuple(share_run),
        origins=tuple([ROW] * len(share_run)),
        share_proofs=tuple(proofs),
        witnesses=tuple(witnesses),
        payout_witness=None,
    )


def mutate_transition(proof, rng, honest_hash):
    proof = dataclasses.replace(proof, block_hash=honest_hash)
    choice = rng.randrange(7)
    if choice == 0:
        return dataclasses.replace(proof, start_index=rng.randrange(0, 8))
    if choice == 1:
        shares = list(proof.shares)
        i = rng.randrange(len(shares))
        pos = rng.randrange(len(shares[i]))
        shares[i] = shares[i][:pos] + bytes([shares[i][pos] ^ (1 + rng.randrange(255))]) + shares[i][pos + 1 :]
        return dataclasses.replace(proof, shares=tuple(shares))
    if choice == 2 and proof.witnesses:
        witnesses = list(proof.witnesses)
        i = rng.randrange(len(witnesses))
        if witnesses[i].entries:
            key, value, sproof = witnesses[i].entries[0]
            level = rng.randrange(256)
            siblings = list(sproof.siblings)
            flip = bytearray(siblings[level])
            flip[rng.randrange(32)] ^= 1 + rng.randrange(255)
            siblings[level] = bytes(flip)
            witnesses[i] = StateWitness(
                ((key, value, SparseProof(key, value, tuple(siblings))),)
                + witnesses[i].entries[1:]
            )
        else:
            witnesses[i] = StateWitness(())
        return dataclasses.replace(proof, witnesses=tuple(witnesses))
    if choice == 3 and proof.witnesses:
        witnesses = list(proof.witnesses)
        rng.shuffle(witnesses)
        return dataclasses.replace(proof, witnesses=tuple(witnesses[:-1]))
    if choice == 4:
        origins = list(proof.origins)
        i = rng.randrange(len(origins))
        origins[i] = 1 - origins[i]
        return dataclasses.replace(proof, origins=tuple(origins))
    if choice == 5:
        raw = bytearray(encode_transition_fraud_proof(proof))
        for _ in range(rng.randrange(1, 6)):
            raw[rng.randrange(len(raw))] ^= 1 + rng.randrange(255)
        return bytes(raw)
    witnesses = list(proof.witnesses)
    if witnesses and witnesses[0].entries:
        key, value, sproof = witnesses[0].entries[0]
        witnesses[0] = StateWitness(((key, value + b"\x01", sproof),) + witnesses[0].entries[1:])
    return dataclasses.replace(proof, witnesses=tuple(witnesses))


def honest_content_codec_proof(built):
    shares = []
    proofs = []
    for pos in range(FUZZ_K):
        share, proof = rs2d.prove_share(built.matrix, 0, pos, ROW)
        shares.append((share, pos, ROW))
        proofs.append(proof)
    top = list(built.commitment.row_roots) + list(built.commitment.column_roots)
    return CodecFraudProof(
        block_hash=built.header.block_hash(),
        axis=ROW,
        j=0,
        axis_root=built.commitment.row_roots[0],
        axis_root_proof=merkle.prove(top, 0),
        shares=tuple(shares),
        share_proofs=tuple(proofs),
    )


def mutate_codec(proof, rng, honest_hash):
    proof = dataclasses.replace(proof, block_hash=honest_hash)
    choice = rng.randrange(6)
    if choice == 0:
        return dataclasses.replace(proof, j=rng.randrange(0, 4))
    if choice == 1:
        return dataclasses.replace(proof, axis=rng.randrange(2))
    if choice == 2:
        shares = list(proof.shares)
        i = rng.randrange(len(shares))
        share, pos, ax = shares[i]
        mutated = share[:-1] + bytes([share[-1] ^ (1 + rng.randrange(255))])
        shares[i] = (mutated, pos, ax)
        return dataclasses.replace(proof, shares=tuple(shares))
    if choice == 3:
        shares = list(proof.shares)
        i = rng.randrange(len(shares))
        share, pos, ax = shares[i]
        shares[i] = (share, rng.randrange(4), 1 - ax)
        return dataclasses.replace(proof, shares=tuple(shares))
    if choice == 4:
        root = bytearray(proof.axis_root)
        root[rng.randrange(32)] ^= 1 + rng.randrange(255)
        return dataclasses.replace(proof, axis_root=bytes(root))
    raw = bytearray(encode_codec_fraud_proof(proof))
    for _ in range(rng.randrange(1, 6)):
        raw[rng.randrange(len(raw))] ^= 1 + rng.randrange(255)
    return bytes(raw)


def dt_chains():
    tree, keys = funded_state()
    txs = transfer_chain(keys, 7, random.Random(3))
    honest = build_double_tree_block(tree.root(), tree, txs, p=FUZZ_P)
    bad = build_double_tree_block(tree.root(), tree, txs, p=FUZZ_P, mode="invalid-transition")
    return tree, honest, bad


def mutate_dt(proof, rng, honest_hash):
    proof = dataclasses.replace(proof, block_hash=honest_hash)
    choice = rng.randrange(4)
    if choice == 0:
        return dataclasses.replace(proof, start_index=rng.randrange(0, 9))
    if choice == 1 and proof.witnesses:
        witnesses = list(proof.witnesses)
        witnesses[rng.randrange(len(witnesses))] = StateWitness(())
        return dataclasses.replace(proof, witnesses=tuple(witnesses))
    if choice == 2:
        txs = list(proof.txs)
        i = rng.randrange(len(txs))
        txs[i] = dataclasses.replace(txs[i], amount=txs[i].amount + 1)
        return dataclasses.replace(proof, txs=tuple(txs))
    if proof.pre_trace is not None:
        trace, trace_proof, x = proof.pre_trace
        flipped = trace[:-1] + bytes([trace[-1] ^ 1])
        return dataclasses.replace(proof, pre_trace=(flipped, trace_proof, x))
    return dataclasses.replace(proof, payout_witness=None)


def test_criterion_6_fraud_proof_round_trips_and_fuzz():
    # completeness: every adversarial build mode convicts itself
    honest_built, honest_tree, genesis = fuzz_chain("honest")
    store = HeaderStore()
    store.add(genesis)
    honest_hash = store.add(honest_built.header)

    trace_built, trace_tree, _ = fuzz_chain("invalid-transition", corrupt="trace")
    header_built, header_tree, _ = fuzz_chain("invalid-transition", corrupt="header")
    # data ending on a trace: the block-final slice is payout-only
    aligned_built, aligned_tree, _ = fuzz_chain(
        "invalid-transition", corrupt="header", tx_count=2 * FUZZ_P
    )
    code_built, code_tree, _ = fuzz_chain("invalid-code")
    own_store = HeaderStore()
    own_store.add(genesis)
    for built in (trace_built, header_built, aligned_built, code_built):
        own_store.add(built.header)

    trace_proof = generate_transition_fraud_proof(trace_built, trace_tree)
    header_proof = generate_transition_fraud_proof(header_built, header_tree)
    payout_only_proof = generate_transition_fraud_proof(aligned_built, aligned_tree)
    assert not payout_only_proof.witnesses and payout_only_proof.payout_witness is not None
    assert verify_transition_fraud_proof(trace_proof, own_store, FUZZ_P)
    assert verify_transition_fraud_proof(header_proof, own_store, FUZZ_P)
    assert verify_transition_fraud_proof(payout_only_proof, own_store, FUZZ_P)

    partial = PartialMatrix.from_matrix(code_built.matrix, with_proofs=True)
    fault = rs2d.recover_matrix(partial, code_built.commitment)
    assert isinstance(fault, rs2d.CodecFault)
    codec_proof = generate_codec_fraud_proof(
        fault, code_built.header.block_hash(), code_built.commitment
    )
    assert verify_codec_fraud_proof(codec_proof, own_store)

    # row 0 withheld past recovery: its decode inputs include cells that
    # their columns recovered, proven through those columns
    withheld = [(0, c) for c in range(FUZZ_K + 1)]
    partial = PartialMatrix.from_matrix(code_built.matrix, withhold=withheld, with_proofs=True)
    fault = rs2d.recover_matrix(partial, code_built.commitment)
    assert isinstance(fault, rs2d.CodecFault)
    recovered_codec_proof = generate_codec_fraud_proof(
        fault, code_built.header.block_hash(), code_built.commitment
    )
    assert verify_codec_fraud_proof(recovered_codec_proof, own_store)

    dt_tree, dt_honest, dt_bad = dt_chains()
    dt_store = HeaderStore()
    dt_honest_hash = dt_store.add_double_tree(dt_honest.header)
    dt_store.add_double_tree(dt_bad.header)
    dt_proof = generate_double_tree_fraud_proof(dt_bad, dt_tree)
    assert verify_double_tree_fraud_proof(dt_proof, dt_store, FUZZ_P, prev_state_root=dt_tree.root())
    assert generate_transition_fraud_proof(honest_built, honest_tree) is None
    assert generate_double_tree_fraud_proof(dt_honest, dt_tree) is None

    # soundness: 10^4 mutated proofs, all rejected against the honest block
    rng = random.Random(2024)
    rejected = 0

    transition_bases = [
        trace_proof,
        header_proof,
        payout_only_proof,
        honest_content_transition_proof(honest_built, honest_tree),
    ]
    for i in range(4000):
        base = transition_bases[i % len(transition_bases)]
        mutated = mutate_transition(base, rng, honest_hash)
        if isinstance(mutated, bytes):
            try:
                mutated = decode_transition_fraud_proof(mutated)
            except ValueError:
                rejected += 1  # undecodable proofs never reach a verifier
                continue
        assert not verify_transition_fraud_proof(mutated, store, FUZZ_P), i
        rejected += 1

    codec_bases = [
        codec_proof,
        recovered_codec_proof,
        honest_content_codec_proof(honest_built),
    ]
    for i in range(3000):
        base = codec_bases[i % len(codec_bases)]
        mutated = mutate_codec(base, rng, honest_hash)
        if isinstance(mutated, bytes):
            try:
                mutated = decode_codec_fraud_proof(mutated)
            except ValueError:
                rejected += 1
                continue
        assert not verify_codec_fraud_proof(mutated, store), i
        rejected += 1

    for i in range(3000):
        mutated = mutate_dt(dt_proof, rng, dt_honest_hash)
        assert not verify_double_tree_fraud_proof(
            mutated, dt_store, FUZZ_P, prev_state_root=dt_tree.root()
        ), i
        rejected += 1

    assert rejected == 10_000
    report(6, "fraud proofs", "6 round trips true; 10000 fuzzed proofs false")


# --- 7. end-to-end soundness and agreement ------------------------------------------------


def test_criterion_7_end_to_end(enhanced_runs):
    base = dict(k=8, share_size=64, s=4, light_clients=12, full_nodes=2, tx_count=15)

    for seed in range(5):
        verdict = sim.run_sampling(sim.SimConfig(**base, adversary="honest", seed=seed))
        assert all(v.verdict == sim.VERDICT_ACCEPT for v in verdict.per_client)
        assert verdict.soundness_holds and verdict.agreement_holds

    window_checked = 0
    for seed in range(5):
        config = sim.SimConfig(**base, adversary="invalid-code", seed=seed)
        verdict = sim.run_sampling(config)
        assert all(v.verdict == sim.VERDICT_FRAUD for v in verdict.per_client)
        assert verdict.agreement_holds
        emit = min(tick for tick, kind in verdict.fraud_proof_ticks if kind == "codec")
        window = config.response_window_factor * config.delay
        for v in verdict.per_client:
            assert v.tick <= emit + window
            window_checked += 1

    standard = dict(
        k=16, share_size=64, s=5, light_clients=50, full_nodes=2,
        adversary="selective", selective_limit=100, tx_count=12,
    )
    prefix_sizes = []
    for seed in range(10):
        config = sim.SimConfig(**standard, seed=seed)
        verdict = sim.run_sampling(config)
        predicted = predicted_deceived_prefix(config)
        assert verdict.accepting_clients == predicted, seed
        assert predicted == list(range(len(predicted)))
        assert not verdict.soundness_holds
        prefix_sizes.append(len(predicted))
    assert min(prefix_sizes) > 0

    # enhanced model: no positional bias between first and second half
    c = ENHANCED["light_clients"]
    diffs = []
    for run in enhanced_runs:
        first = sum(
            1 for v in run.per_client if v.verdict != sim.VERDICT_ACCEPT and v.client_id < c // 2
        )
        second = sum(
            1 for v in run.per_client if v.verdict != sim.VERDICT_ACCEPT and v.client_id >= c // 2
        )
        diffs.append((first - second) / (c // 2))
    mean_diff = statistics.mean(diffs)
    stderr = statistics.stdev(diffs) / math.sqrt(len(diffs))
    assert abs(mean_diff) <= 3 * stderr, (mean_diff, stderr)

    report(
        7,
        "end-to-end soundness/agreement",
        f"prefixes {sorted(set(prefix_sizes))}; ordering bias {mean_diff:+.4f} (3se {3*stderr:.4f})",
    )


# --- 8. proof-size scaling -----------------------------------------------------------------


def test_criterion_8_size_scaling():
    """Capacity-quarter-megabyte (k=32) vs capacity-megabyte (k=64) blocks
    at 256-byte shares. Proof sizes depend on the commitment geometry, not
    on how full the payload is, so the blocks carry a fixed 25 transfers.
    Absolute timings are out of scope; only size ratios are checked."""

    def build_at(k, mode, corrupt="trace"):
        tree, keys = funded_state()
        txs = transfer_chain(keys, 25, random.Random(1))
        built = build_block(
            genesis_header(tree), tree, txs, k=k, share_size=256, p=10,
            mode=mode, corrupt=corrupt,
        )
        return built, tree

    sizes = {}
    for k in (32, 64):
        capacity = k * k * 254
        assert capacity >= (0.25 if k == 32 else 1.0) * 2 ** 20 * 0.99

        built, tree = build_at(k, "invalid-transition")
        proof = generate_transition_fraud_proof(built, tree)
        assert proof is not None and proof.payout_witness is None
        sizes[("transition", k)] = len(encode_transition_fraud_proof(proof))

        bad, _ = build_at(k, "invalid-code")
        partial = PartialMatrix.from_matrix(bad.matrix, with_proofs=True)
        fault = rs2d.recover_matrix(partial, bad.commitment)
        assert isinstance(fault, rs2d.CodecFault)
        codec = generate_codec_fraud_proof(fault, bad.header.block_hash(), bad.commitment)
        sizes[("codec", k)] = len(encode_codec_fraud_proof(codec))
        sizes[("roots", k)] = 32 * 2 * bad.commitment.matrix_width

    transition_ratio = sizes[("transition", 64)] / sizes[("transition", 32)]
    codec_ratio = sizes[("codec", 64)] / sizes[("codec", 32)]
    roots_ratio = sizes[("roots", 64)] / sizes[("roots", 32)]
    assert transition_ratio < 1.1, sizes
    assert 1.8 <= codec_ratio <= 2.2, sizes
    assert 1.8 <= roots_ratio <= 2.2, sizes

    report(
        8,
        "proof-size scaling",
        f"transition x{transition_ratio:.3f}, availability x{codec_ratio:.3f}, "
        f"axis roots x{roots_ratio:.3f}",
    )
