import dataclasses
import random

import pytest

from daproofs import merkle, rs2d
from daproofs.block import build_block, build_double_tree_block, genesis_header
from daproofs.fraud import (
    CodecFraudProof,
    HeaderStore,
    apply_fraud_proof,
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
from daproofs.rs2d import COLUMN, ROW, DataCommitment, PartialMatrix, ShareProof
from daproofs.smt import SparseProof
from daproofs.state import StateWitness
from tests.conftest import funded_state, transfer_chain

K = 4
SHARE_SIZE = 256
P = 10


def make_chain(mode="honest", tx_count=25, corrupt="trace", seed=0):
    tree, keys = funded_state()
    rng = random.Random(seed)
    txs = transfer_chain(keys, tx_count, rng)
    genesis = genesis_header(tree)
    built = build_block(
        genesis, tree, txs, k=K, share_size=SHARE_SIZE, p=P, mode=mode, corrupt=corrupt
    )
    store = HeaderStore()
    store.add(genesis)
    store.add(built.header)
    return built, tree, store


@pytest.fixture(scope="module")
def honest():
    return make_chain("honest")


@pytest.fixture(scope="module")
def invalid_trace():
    return make_chain("invalid-transition", corrupt="trace")


@pytest.fixture(scope="module")
def invalid_header():
    return make_chain("invalid-transition", corrupt="header")


@pytest.fixture(scope="module")
def invalid_code():
    return make_chain("invalid-code")


def codec_proof_for(built):
    partial = PartialMatrix.from_matrix(built.matrix, with_proofs=True)
    fault = rs2d.recover_matrix(partial, built.commitment)
    assert isinstance(fault, rs2d.CodecFault)
    return generate_codec_fraud_proof(fault, built.header.block_hash(), built.commitment)


def test_honest_block_yields_no_proof(honest):
    built, prev_state, _ = honest
    assert generate_transition_fraud_proof(built, prev_state) is None


def test_corrupted_trace_round_trip(invalid_trace):
    built, prev_state, store = invalid_trace
    proof = generate_transition_fraud_proof(built, prev_state)
    assert proof is not None
    assert proof.payout_witness is None  # mid-block period, post-root committed
    assert verify_transition_fraud_proof(proof, store, P)


def test_corrupted_header_round_trip_payout_branch(invalid_header):
    built, prev_state, store = invalid_header
    proof = generate_transition_fraud_proof(built, prev_state)
    assert proof is not None
    # the faulty slice is block-final: no committed post-root, payout replayed
    assert proof.payout_witness is not None
    assert proof.start_index + len(proof.shares) == len(built.shares)
    assert verify_transition_fraud_proof(proof, store, P)


@pytest.mark.parametrize("corrupt", ["trace", "header"])
@pytest.mark.parametrize("tx_count", [P - 1, P, 2 * P, 2 * P + 1, 25])
def test_transition_round_trip_at_every_period_alignment(tx_count, corrupt):
    """Prover and verifier slice alike, also when the data ends on a trace:
    the block-final slice is then payout-only (pre-root = last trace)."""
    built, prev_state, store = make_chain("invalid-transition", tx_count, corrupt)
    proof = generate_transition_fraud_proof(built, prev_state)
    assert proof is not None
    assert verify_transition_fraud_proof(proof, store, P)
    decoded = decode_transition_fraud_proof(encode_transition_fraud_proof(proof))
    assert decoded == proof
    assert verify_transition_fraud_proof(decoded, store, P)
    honest_built, honest_state, _ = make_chain("honest", tx_count)
    assert generate_transition_fraud_proof(honest_built, honest_state) is None


def test_codec_fault_round_trip(invalid_code):
    built, prev_state, store = invalid_code
    proof = codec_proof_for(built)
    assert verify_codec_fraud_proof(proof, store)


def test_unknown_block_hash_fails(invalid_trace):
    built, prev_state, _ = invalid_trace
    proof = generate_transition_fraud_proof(built, prev_state)
    empty = HeaderStore()
    assert not verify_transition_fraud_proof(proof, empty, P)


def test_proof_retargeted_at_honest_block_fails(invalid_trace, honest):
    built, prev_state, _ = invalid_trace
    honest_built, _, honest_store = honest
    proof = generate_transition_fraud_proof(built, prev_state)
    forged = dataclasses.replace(proof, block_hash=honest_built.header.block_hash())
    assert not verify_transition_fraud_proof(forged, honest_store, P)


def test_witness_mutation_fails(invalid_trace):
    built, prev_state, store = invalid_trace
    proof = generate_transition_fraud_proof(built, prev_state)
    target = next(i for i, w in enumerate(proof.witnesses) if w.entries)
    key, value, sproof = proof.witnesses[target].entries[0]
    flipped = bytearray(sproof.siblings[5])
    flipped[0] ^= 1
    siblings = list(sproof.siblings)
    siblings[5] = bytes(flipped)
    bad_entry = (key, value, SparseProof(key, value, tuple(siblings)))
    bad_witness = StateWitness((bad_entry,) + proof.witnesses[target].entries[1:])
    witnesses = list(proof.witnesses)
    witnesses[target] = bad_witness
    mutated = dataclasses.replace(proof, witnesses=tuple(witnesses))
    assert not verify_transition_fraud_proof(mutated, store, P)


def test_witness_value_mutation_fails(invalid_trace):
    built, prev_state, store = invalid_trace
    proof = generate_transition_fraud_proof(built, prev_state)
    target = next(i for i, w in enumerate(proof.witnesses) if w.entries)
    key, value, sproof = proof.witnesses[target].entries[0]
    bad_witness = StateWitness(
        ((key, value + b"x", sproof),) + proof.witnesses[target].entries[1:]
    )
    witnesses = list(proof.witnesses)
    witnesses[target] = bad_witness
    mutated = dataclasses.replace(proof, witnesses=tuple(witnesses))
    assert not verify_transition_fraud_proof(mutated, store, P)


def test_share_tampering_fails(invalid_trace):
    built, prev_state, store = invalid_trace
    proof = generate_transition_fraud_proof(built, prev_state)
    shares = list(proof.shares)
    shares[0] = shares[0][:-1] + bytes([shares[0][-1] ^ 1])
    assert not verify_transition_fraud_proof(
        dataclasses.replace(proof, shares=tuple(shares)), store, P
    )


def test_start_index_shift_fails(invalid_trace):
    built, prev_state, store = invalid_trace
    proof = generate_transition_fraud_proof(built, prev_state)
    shifted = dataclasses.replace(proof, start_index=proof.start_index + 1)
    assert not verify_transition_fraud_proof(shifted, store, P)


def test_codec_fault_with_recovered_inputs_round_trip(invalid_code):
    """Row 0 decodes partly from cells its columns recovered; each such input
    is proven through the column that filled it."""
    built, _, store = invalid_code
    withheld = [(0, c) for c in range(K + 1)]
    partial = PartialMatrix.from_matrix(built.matrix, withhold=withheld, with_proofs=True)
    fault = rs2d.recover_matrix(partial, built.commitment)
    assert isinstance(fault, rs2d.CodecFault)
    assert (fault.axis, fault.j) == (ROW, 0)
    assert any(ax == COLUMN and (0, pos) in withheld for _, pos, ax in fault.shares)
    proof = generate_codec_fraud_proof(fault, built.header.block_hash(), built.commitment)
    assert verify_codec_fraud_proof(proof, store)
    assert decode_codec_fraud_proof(encode_codec_fraud_proof(proof)) == proof

    # inputs that arrived without proofs still cannot be proven
    unproven = PartialMatrix.from_matrix(built.matrix, withhold=withheld)
    fault = rs2d.recover_matrix(unproven, built.commitment)
    with pytest.raises(ValueError):
        generate_codec_fraud_proof(fault, built.header.block_hash(), built.commitment)


def test_codec_proof_mutations_fail(invalid_code, honest):
    built, _, store = invalid_code
    honest_built, _, honest_store = honest
    proof = codec_proof_for(built)

    assert not verify_codec_fraud_proof(
        dataclasses.replace(proof, block_hash=honest_built.header.block_hash()),
        honest_store,
    )
    assert not verify_codec_fraud_proof(dataclasses.replace(proof, j=proof.j + 1), store)
    assert not verify_codec_fraud_proof(
        dataclasses.replace(proof, axis=1 - proof.axis), store
    )
    shares = list(proof.shares)
    share, pos, ax = shares[0]
    shares[0] = (share[:-1] + bytes([share[-1] ^ 1]), pos, ax)
    assert not verify_codec_fraud_proof(
        dataclasses.replace(proof, shares=tuple(shares)), store
    )
    # duplicate positions are malformed
    shares = list(proof.shares)
    shares[1] = shares[0]
    assert not verify_codec_fraud_proof(
        dataclasses.replace(proof, shares=tuple(shares)), store
    )
    # too few shares
    assert not verify_codec_fraud_proof(
        dataclasses.replace(
            proof, shares=proof.shares[: K - 1], share_proofs=proof.share_proofs[: K - 1]
        ),
        store,
    )


def test_codec_proof_on_consistent_axis_is_false(honest):
    """Check 5: a recovered axis matching its root is not fraud."""
    built, _, store = honest
    width = built.matrix.width
    shares = []
    proofs = []
    for pos in range(K):
        share, proof = rs2d.prove_share(built.matrix, 0, pos, ROW)
        shares.append((share, pos, ROW))
        proofs.append(proof)
    top_leaves = list(built.commitment.row_roots) + list(built.commitment.column_roots)
    honest_proof = CodecFraudProof(
        block_hash=built.header.block_hash(),
        axis=ROW,
        j=0,
        axis_root=built.commitment.row_roots[0],
        axis_root_proof=merkle.prove(top_leaves, 0),
        shares=tuple(shares),
        share_proofs=tuple(proofs),
    )
    assert not verify_codec_fraud_proof(honest_proof, store)


def test_cross_axis_inconsistency_provable(honest):
    """A commitment whose row and column trees disagree on one cell is
    convicted by mixing proof origins."""
    built, _, _ = honest
    width = built.matrix.width
    rows = [built.matrix.row(r) for r in range(width)]
    tampered_cell = rows[0][1][:-1] + bytes([rows[0][1][-1] ^ 1])

    # row trees see the tampered cell, column trees see the original
    row_leaf_sets = [list(r) for r in rows]
    row_leaf_sets[0][1] = tampered_cell
    row_roots = tuple(merkle.root(leaves) for leaves in row_leaf_sets)
    column_leaf_sets = [[rows[r][c] for r in range(width)] for c in range(width)]
    column_roots = tuple(merkle.root(leaves) for leaves in column_leaf_sets)
    commitment = DataCommitment(row_roots, column_roots)
    top_leaves = list(row_roots) + list(column_roots)

    header = dataclasses.replace(
        built.header, data_root=commitment.data_root, data_length=commitment.data_length
    )
    store = HeaderStore()
    store.add(header)

    shares = []
    proofs = []
    for pos in range(K):
        # position 1 is proven from its column tree, which holds the
        # original cell, disagreeing with the committed row root
        if pos == 1:
            axis_proof = merkle.prove(column_leaf_sets[1], 0)
            proof = ShareProof(
                column_roots[1], axis_proof, merkle.prove(top_leaves, width + 1)
            )
            shares.append((rows[0][1], pos, COLUMN))
        else:
            axis_proof = merkle.prove(row_leaf_sets[0], pos)
            proof = ShareProof(row_roots[0], axis_proof, merkle.prove(top_leaves, 0))
            shares.append((row_leaf_sets[0][pos], pos, ROW))
        proofs.append(proof)

    cross = CodecFraudProof(
        block_hash=header.block_hash(),
        axis=ROW,
        j=0,
        axis_root=row_roots[0],
        axis_root_proof=merkle.prove(top_leaves, 0),
        shares=tuple(shares),
        share_proofs=tuple(proofs),
    )
    assert verify_codec_fraud_proof(cross, store)


def test_header_store_permanent_rejection(invalid_trace):
    built, prev_state, store = invalid_trace
    proof = generate_transition_fraud_proof(built, prev_state)
    block_hash = built.header.block_hash()
    assert store.is_accepted(block_hash)
    assert apply_fraud_proof(proof, store, P)
    assert store.is_rejected(block_hash)
    assert not store.is_accepted(block_hash)
    # re-adding the header does not clear the rejection
    store.add(built.header)
    assert store.is_rejected(block_hash)


def test_wire_round_trips(invalid_trace, invalid_header, invalid_code):
    for built, prev_state, _ in (invalid_trace, invalid_header):
        proof = generate_transition_fraud_proof(built, prev_state)
        assert decode_transition_fraud_proof(encode_transition_fraud_proof(proof)) == proof
    codec = codec_proof_for(invalid_code[0])
    assert decode_codec_fraud_proof(encode_codec_fraud_proof(codec)) == codec
    with pytest.raises(ValueError):
        decode_transition_fraud_proof(b"X" + b"\x00" * 64)
    with pytest.raises(ValueError):
        decode_codec_fraud_proof(encode_codec_fraud_proof(codec)[:-3])


# --- double-tree variant -------------------------------------------------------


def make_dt_chain(mode="honest", tx_count=25, seed=1):
    tree, keys = funded_state()
    rng = random.Random(seed)
    txs = transfer_chain(keys, tx_count, rng)
    built = build_double_tree_block(tree.root(), tree, txs, p=P, mode=mode)
    store = HeaderStore()
    store.add_double_tree(built.header)
    return built, tree, store


@pytest.fixture(scope="module")
def dt_invalid():
    return make_dt_chain("invalid-transition")


def test_dt_honest_has_no_proof():
    built, tree, _ = make_dt_chain("honest")
    assert generate_double_tree_fraud_proof(built, tree) is None


def test_dt_round_trip(dt_invalid):
    built, tree, store = dt_invalid
    proof = generate_double_tree_fraud_proof(built, tree)
    assert proof is not None
    assert verify_double_tree_fraud_proof(proof, store, P, prev_state_root=tree.root())


def test_dt_header_corruption_round_trip():
    built, tree, store = make_dt_chain("invalid-transition", tx_count=8)
    # a block under one period long has no traces; the header is corrupted
    assert built.header.trace_length == 0
    proof = generate_double_tree_fraud_proof(built, tree)
    assert proof is not None
    assert proof.pre_trace is None and proof.post_trace is None
    assert verify_double_tree_fraud_proof(proof, store, P, prev_state_root=tree.root())


def test_dt_wrong_period_mapping_fails(dt_invalid):
    built, tree, store = dt_invalid
    proof = generate_double_tree_fraud_proof(built, tree)
    shifted = dataclasses.replace(proof, start_index=proof.start_index + 1)
    assert not verify_double_tree_fraud_proof(shifted, store, P, prev_state_root=tree.root())


def test_dt_partial_period_fails(dt_invalid):
    """Completeness: dropping transfers from the period must not verify."""
    built, tree, store = dt_invalid
    proof = generate_double_tree_fraud_proof(built, tree)
    truncated = dataclasses.replace(
        proof,
        txs=proof.txs[:-1],
        tx_proofs=proof.tx_proofs[:-1],
        witnesses=proof.witnesses[:-1],
    )
    assert not verify_double_tree_fraud_proof(truncated, store, P, prev_state_root=tree.root())


def test_dt_fuzz_against_honest_block():
    built, tree, store = make_dt_chain("honest")
    bad_built, bad_tree, _ = make_dt_chain("invalid-transition")
    base = generate_double_tree_fraud_proof(bad_built, bad_tree)
    rng = random.Random(77)
    for _ in range(200):
        mutated = dataclasses.replace(base, block_hash=built.header.block_hash())
        if rng.random() < 0.5:
            mutated = dataclasses.replace(mutated, start_index=rng.randrange(30))
        assert not verify_double_tree_fraud_proof(
            mutated, store, P, prev_state_root=tree.root()
        )
