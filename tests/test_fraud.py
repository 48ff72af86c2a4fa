import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daproofs import block, merkle, rs2d, smt
from daproofs.block import (
    DEFAULT_PRODUCER,
    BlockHeader,
    build_block,
    build_double_tree_block,
    genesis_header,
    min_period,
    parse_shares_with_spans,
    shares_needed,
)
from daproofs.cli import main
from daproofs.fraud import (
    CodecFraudProof,
    HeaderStore,
    TransitionFraudProof,
    apply_fraud_proof,
    check_block,
    decode_codec_fraud_proof,
    decode_fraud_proof,
    decode_transition_fraud_proof,
    encode_codec_fraud_proof,
    encode_fraud_proof,
    encode_transition_fraud_proof,
    generate_codec_fraud_proof,
    generate_double_tree_fraud_proof,
    generate_transition_fraud_proof,
    verify_codec_fraud_proof,
    verify_double_tree_fraud_proof,
    verify_transition_fraud_proof,
)
from daproofs.rs2d import COLUMN, ROW, DataCommitment, PartialMatrix, ShareProof
from daproofs.smt import SparseProof, StateTree
from daproofs.state import (
    FEES_KEY,
    U64_MAX,
    AccountValue,
    StateWitness,
    Transaction,
    make_tx_witness,
    make_witness,
    payout_keys,
)
from tests.conftest import account_key, framed_block, funded_state, transfer_chain
from tests.oracles import is_accepted

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


def test_honest_replay_operation_counts(monkeypatch):
    """An honest replay proves nothing and rehashes each period's paths once.

    46,773 SMT hashes and 173 StateTree.prove calls when every write rehashed
    its path and every transfer was witnessed; 10,695 and 0 with the lazy root.
    """
    tree, keys = funded_state()
    txs = transfer_chain(keys, 6 * P, random.Random(0))
    built = build_block(genesis_header(tree), tree, txs, k=8, share_size=SHARE_SIZE, p=P)
    proves = []
    prove = StateTree.prove

    def counted_prove(self, key):
        proves.append(key)
        return prove(self, key)

    monkeypatch.setattr(StateTree, "prove", counted_prove)
    before = smt.hash_invocations()
    assert generate_transition_fraud_proof(built, tree) is None
    assert proves == []
    assert smt.hash_invocations() - before <= 10_695


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
@pytest.mark.parametrize("tx_count", [0, P - 1, P, 2 * P, 2 * P + 1, 25])
def test_transition_round_trip_at_every_period_alignment(tx_count, corrupt):
    """Prover and verifier slice alike, also when the data ends on a trace:
    the block-final slice is then payout-only (pre-root = last trace), and
    in the empty block, whose one slice is the payout from the previous
    state root."""
    built, prev_state, store = make_chain("invalid-transition", tx_count, corrupt)
    proof = generate_transition_fraud_proof(built, prev_state)
    assert proof is not None
    assert verify_transition_fraud_proof(proof, store, P)
    decoded = decode_transition_fraud_proof(encode_transition_fraud_proof(proof))
    assert decoded == proof
    assert verify_transition_fraud_proof(decoded, store, P)
    honest_built, honest_state, _ = make_chain("honest", tx_count)
    assert generate_transition_fraud_proof(honest_built, honest_state) is None


def proof_verifies_at_period(share_size, p, tx_count, corrupt):
    tree, keys = funded_state()
    txs = transfer_chain(keys, tx_count, random.Random(tx_count))
    genesis = genesis_header(tree)
    built = build_block(
        genesis, tree, txs, k=K, share_size=share_size, p=p,
        mode="invalid-transition", corrupt=corrupt,
    )
    store = HeaderStore()
    store.add(genesis)
    store.add(built.header)
    return verify_transition_fraud_proof(generate_transition_fraud_proof(built, tree), store, p)


@pytest.mark.parametrize("share_size", [64, 128, 184, 186, 256])
def test_period_floor_is_where_every_transition_proof_verifies(share_size):
    floor = min_period(share_size)
    for tx_count in range(0, 3 * floor + 2):
        for corrupt in ("trace", "header"):
            assert proof_verifies_at_period(share_size, floor, tx_count, corrupt)
    if floor == 1:
        return
    tree, keys = funded_state()
    with pytest.raises(ValueError, match="period length must be at least"):
        build_block(
            genesis_header(tree), tree, transfer_chain(keys, 3, random.Random(0)),
            k=K, share_size=share_size, p=floor - 1,
        )


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


def test_codec_verification_hashes_each_input_once(invalid_code, merkle_hashes):
    leaves_hashed, nodes_hashed = merkle_hashes
    built, _, store = invalid_code
    proof = codec_proof_for(built)
    # the tampered cell is in row 0, the first axis checked, and every
    # input arrived through its row: all of them lie on the faulty axis
    assert proof.axis == ROW and all(ax == ROW for _, _, ax in proof.shares)
    leaves_hashed.clear()
    nodes_hashed.clear()
    assert verify_codec_fraud_proof(proof, store)
    assert max(nodes_hashed.values()) == 1
    assert max(leaves_hashed.values()) == 1
    assert all(leaves_hashed[share] == 1 for share, _, _ in proof.shares)


@settings(max_examples=400)
@given(st.data())
def test_recovery_digest_grid_keeps_every_verdict_sound(data):
    """Tampered cells make decoded shares differ from present ones, which
    recovery must hash afresh: every recovery it completes is the committed
    matrix and a valid 2D codeword, and every fault it reports, proven
    partly through filled cells, yields a codec proof that verifies."""
    k = data.draw(st.sampled_from([2, 4]))
    w = 2 * k
    cells = st.tuples(st.integers(0, w - 1), st.integers(0, w - 1))
    # one axis loses some cells, up to all but one, so crossing axes may
    # fill them before it decodes; its last cell may be tampered, and a few
    # random cells are tampered or withheld besides
    axis, j = data.draw(st.sampled_from([ROW, COLUMN])), data.draw(st.integers(0, w - 1))
    positions = data.draw(st.permutations(range(w)))
    order = [(j, pos) if axis == ROW else (pos, j) for pos in positions]
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    matrix = rs2d.extend_shares([rng.randbytes(8) for _ in range(k * k)], k, 8)
    tampered = order[-1:] * data.draw(st.integers(0, 1))
    tampered += data.draw(st.lists(cells, max_size=1))
    grid = [list(row) for row in matrix.cells]
    for x, y in tampered:
        grid[x][y] = bytes(b ^ 0x5A for b in grid[x][y])
    matrix = dataclasses.replace(matrix, cells=grid)
    commitment = rs2d.commit(matrix)
    withheld = order[: data.draw(st.integers(0, w - 1))] + data.draw(st.lists(cells, max_size=k))
    partial = PartialMatrix.from_matrix(matrix, withhold=withheld, with_proofs=True)
    try:
        result = rs2d.recover_matrix(partial, commitment)
    except rs2d.Unrecoverable:
        return
    if isinstance(result, rs2d.ExtendedMatrix):
        assert result.cells == matrix.cells
        quadrant = [result.cells[r][c] for r in range(k) for c in range(k)]
        assert rs2d.extend_shares(quadrant, k, 8).cells == result.cells
        return
    header = BlockHeader(bytes(32), commitment.data_root, commitment.data_length, bytes(32))
    store = HeaderStore()
    proof = generate_codec_fraud_proof(result, store.add(header), commitment)
    assert verify_codec_fraud_proof(proof, store)


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


def test_codec_proof_with_an_exact_duplicate_input_fails(invalid_code):
    """A second (share, pos, origin) entry and share proof that copy the
    first bind to the data root; only the decoder then refuses the input."""
    built, _, store = invalid_code
    proof = codec_proof_for(built)
    duplicate = dataclasses.replace(
        proof,
        shares=proof.shares[:1] * 2 + proof.shares[2:],
        share_proofs=proof.share_proofs[:1] * 2 + proof.share_proofs[2:],
    )
    assert duplicate.shares[1] == duplicate.shares[0]
    assert not verify_codec_fraud_proof(duplicate, store)


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
    rows = built.matrix.cells
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
    assert is_accepted(store, block_hash)
    assert apply_fraud_proof(proof, store, P)
    assert store.is_rejected(block_hash)
    assert not is_accepted(store, block_hash)
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


def codec_proof_size(k, share_size):
    """Encoded codec-proof bytes at power-of-two k, with L = log2(k):
    a 162 + 32L byte head (tag, block hash, axis, index, axis root, its
    proof in the 4k-leaf axis-root tree, share size, count) and k proven
    shares of 173 + share_size + 64L bytes (position, origin, the share,
    its axis root, its proofs in the 2k-cell axis and the axis-root tree)."""
    log_k = k.bit_length() - 1
    return 162 + 32 * log_k + k * (173 + share_size + 64 * log_k)


@pytest.mark.parametrize("k", [4, 8, 16])
@pytest.mark.parametrize("share_size", [64, 256])
def test_codec_proof_size_closed_form(k, share_size):
    tree, keys = funded_state()
    built = build_block(
        genesis_header(tree), tree, transfer_chain(keys, 5, random.Random(k)),
        k=k, share_size=share_size, p=P, mode="invalid-code",
    )
    assert len(encode_codec_fraud_proof(codec_proof_for(built))) == codec_proof_size(k, share_size)


def test_codec_proof_size_at_the_megabyte_block():
    # the k=64, 256-byte-share block of the benchmark's block-1mb workload
    assert codec_proof_size(64, 256) == 52_386


def transition_proof_size(k, share_size, shares, witnesses):
    """Encoded transition-proof bytes at power-of-two k, with L = log2(k):
    a 47-byte head (tag, block hash, start index, share size, share
    count); per share, the share, its origin byte and its 164 + 64L-byte
    proof (axis root, then its proofs in the 2k-cell axis tree and the
    4k-leaf axis-root tree, each behind an 18-byte size, index and count
    head); a 2-byte witness count; a 1-byte payout flag; and per witness,
    the payout witness included, a 2-byte entry count and, per entry with
    a v-byte value and s non-default siblings, 66 + v + 32s bytes (key,
    value length, value, sibling bitmap, siblings). witnesses lists each
    witness's entries as (v, s) pairs."""
    log_k = k.bit_length() - 1
    return (
        50
        + shares * (share_size + 165 + 64 * log_k)
        + sum(2 + sum(66 + v + 32 * s for v, s in entries) for entries in witnesses)
    )


@pytest.mark.parametrize("k", [4, 8, 16])
@pytest.mark.parametrize("corrupt", ["trace", "header"])
def test_transition_proof_size_closed_form(k, corrupt):
    tree, keys = funded_state()
    built = build_block(
        genesis_header(tree), tree, transfer_chain(keys, 25, random.Random(k)),
        k=k, share_size=SHARE_SIZE, p=P, mode="invalid-transition", corrupt=corrupt,
    )
    proof = generate_transition_fraud_proof(built, tree)
    witnesses = proof.witnesses + (() if proof.payout_witness is None else (proof.payout_witness,))
    assert (proof.payout_witness is None) == (corrupt == "trace")
    entries = [
        [
            (len(value), sum(sib != smt.EMPTY_SUBTREE[i] for i, sib in enumerate(sparse.siblings)))
            for _, value, sparse in witness.entries
        ]
        for witness in witnesses
    ]
    assert len(encode_transition_fraud_proof(proof)) == transition_proof_size(
        k, SHARE_SIZE, len(proof.shares), entries
    )


def test_verifier_rejects_share_size_below_the_framing_minimum():
    # 4-byte shares commit fine but cannot frame messages; the share proof
    # is valid, so only the parser sees the bad size, and it must not raise
    matrix = rs2d.extend_shares([bytes([1, 0, i, i]) for i in range(4)], 2, 4)
    commitment = rs2d.commit(matrix)
    header = BlockHeader(b"\x00" * 32, commitment.data_root, commitment.data_length, b"\x00" * 32)
    store = HeaderStore()
    store.add(header)
    share, share_proof = rs2d.prove_share(matrix, 0, 0, ROW)
    assert rs2d.verify_share_merkle_proof(
        share, share_proof, commitment.data_root, commitment.data_length, 0
    )
    proof = TransitionFraudProof(header.block_hash(), 0, (share,), (ROW,), (share_proof,), ())
    assert verify_transition_fraud_proof(proof, store, P) is False


# --- wire decoders: only ValueError on malformed input ---------------------------

WIRE_DECODERS = (decode_fraud_proof, BlockHeader.from_bytes, merkle.MerkleProof.from_bytes)


@settings(max_examples=300)
@given(st.sampled_from([b"", b"T", b"C"]), st.binary(max_size=400))
def test_decoders_raise_only_value_error_on_arbitrary_bytes(tag, body):
    for decode in WIRE_DECODERS:
        try:
            decode(tag + body)
        except ValueError:
            pass


def test_every_prefix_and_extension_of_a_valid_record_is_rejected(invalid_header, invalid_code):
    built, prev_state, _ = invalid_header
    transition = generate_transition_fraud_proof(built, prev_state)
    assert transition.payout_witness is not None  # covers the payout branch
    header = dataclasses.replace(built.header, additional_data=b"ad")
    records = [
        (decode_fraud_proof, encode_fraud_proof(transition)),
        (decode_fraud_proof, encode_fraud_proof(codec_proof_for(invalid_code[0]))),
        (BlockHeader.from_bytes, header.to_bytes()),
    ]
    for decode, raw in records:
        decode(raw)
        for cut in range(len(raw)):
            with pytest.raises(ValueError):
                decode(raw[:cut])
        with pytest.raises(ValueError):
            decode(raw + b"\x00")


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
    # a block under one period long has no traces; the header is corrupted,
    # also in the empty block, whose proof has no transfers at all
    for tx_count in (8, 0):
        built, tree, store = make_dt_chain("invalid-transition", tx_count=tx_count)
        assert built.header.trace_length == 0
        proof = generate_double_tree_fraud_proof(built, tree)
        assert proof is not None
        assert proof.pre_trace is None and proof.post_trace is None
        assert len(proof.txs) == tx_count
        assert verify_double_tree_fraud_proof(proof, store, P, prev_state_root=tree.root())
        honest_built, honest_tree, _ = make_dt_chain("honest", tx_count=tx_count)
        assert generate_double_tree_fraud_proof(honest_built, honest_tree) is None


def test_dt_wrong_period_mapping_fails(dt_invalid):
    built, tree, store = dt_invalid
    proof = generate_double_tree_fraud_proof(built, tree)
    shifted = dataclasses.replace(proof, start_index=proof.start_index + 1)
    assert not verify_double_tree_fraud_proof(shifted, store, P, prev_state_root=tree.root())


def test_dt_rejects_a_final_run_longer_than_p():
    """A block-final run of 15 transfers is one period at p=20 and spans
    two at p=10, so the same proof verifies only at p=20."""
    tree, keys = funded_state()
    txs = transfer_chain(keys, 15, random.Random(2))
    built = build_double_tree_block(tree.root(), tree, txs, p=20, mode="invalid-transition")
    store = HeaderStore()
    store.add_double_tree(built.header)
    proof = generate_double_tree_fraud_proof(built, tree)
    assert proof.pre_trace is None and len(proof.txs) == 15
    assert verify_double_tree_fraud_proof(proof, store, 20, prev_state_root=tree.root())
    assert not verify_double_tree_fraud_proof(proof, store, 10, prev_state_root=tree.root())


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


@pytest.mark.parametrize("past", ["recipient", "fees", "payout"])
def test_u64_overflow_is_proven_not_raised(past, monkeypatch):
    """A transfer or payout that would carry a balance past U64_MAX: an
    honest builder rejects the block, and when a producer frames it anyway
    (here by skipping the replay), both fraud proofs verify and no step
    raises on the witnesses that show the account at the ceiling."""
    sender, recipient = account_key("sender"), account_key("recipient")
    tree = StateTree()
    tree.update(sender, AccountValue(100, 0).encode())
    ceiling = {"recipient": recipient, "fees": FEES_KEY, "payout": DEFAULT_PRODUCER}[past]
    tree.update(ceiling, AccountValue(U64_MAX, 0).encode())
    txs = [Transaction(sender, recipient, 5, 1, 0)]
    genesis = genesis_header(tree)
    with pytest.raises(ValueError, match="payout" if past == "payout" else "illegal"):
        build_block(genesis, tree, txs, k=K, share_size=SHARE_SIZE, p=P)

    monkeypatch.setattr(block, "_replay_block", lambda *args: ([], b"\x11" * 32))
    built = build_block(genesis, tree, txs, k=K, share_size=SHARE_SIZE, p=P)
    store = HeaderStore()
    store.add(genesis)
    store.add(built.header)
    proof = generate_transition_fraud_proof(built, tree)
    assert (proof.payout_witness is not None) == (past == "payout")
    assert verify_transition_fraud_proof(proof, store, P) is True

    double_tree = build_double_tree_block(tree.root(), tree, txs, p=P)
    store.add_double_tree(double_tree.header)
    proof = generate_double_tree_fraud_proof(double_tree, tree)
    assert verify_double_tree_fraud_proof(proof, store, P, prev_state_root=tree.root()) is True


@pytest.mark.parametrize("step", ["transfer", "payout"])
def test_undecodable_witnessed_value_is_proven_not_raised(step, tmp_path):
    """A trace may commit a key to bytes that are no account: here the
    recipient of the transfer after it, or the fee accumulator the payout
    reads. Its block-final slice replays to ERR, so the proof verifies, and
    neither the verifier nor `daproofs fraud verify` raises on the witness
    that shows the value."""
    tree, keys = funded_state()
    genesis = genesis_header(tree)
    odd = {"transfer": account_key("odd"), "payout": FEES_KEY}[step]
    traced = tree.copy()
    traced.update(odd, b"\x01\x02\x03\x04\x05")
    tail = [Transaction(keys[0], odd, 1, 0, 0)] if step == "transfer" else []
    messages = [*transfer_chain(keys, P, random.Random(7)), traced.root(), *tail]
    built = framed_block(genesis, messages, K, SHARE_SIZE, P)

    trace = parse_shares_with_spans(built.shares)[P]
    assert trace.message == traced.root()
    y = trace.first_share
    shares = built.shares[y:]
    proof = TransitionFraudProof(
        block_hash=built.header.block_hash(),
        start_index=y,
        shares=tuple(shares),
        origins=(ROW,) * len(shares),
        share_proofs=tuple(
            rs2d.prove_share(built.matrix, *divmod(y + a, K), ROW)[1] for a in range(len(shares))
        ),
        witnesses=tuple(make_tx_witness(traced, tx) for tx in tail),
        payout_witness=make_witness(traced, payout_keys(DEFAULT_PRODUCER)) if not tail else None,
    )
    store = HeaderStore()
    store.add(genesis)
    store.add(built.header)
    assert verify_transition_fraud_proof(proof, store, P) is True

    proof_path, headers = tmp_path / "proof.bin", tmp_path / "headers.bin"
    proof_path.write_bytes(encode_fraud_proof(proof))
    headers.write_bytes(genesis.to_bytes() + built.header.to_bytes())
    assert main(["fraud", "verify", "--proof", str(proof_path), "--headers", str(headers)]) == 0


def witness_free_run(built, y, end_share):
    """A transition proof of shares y..end_share with no witnesses."""
    shares = built.shares[y : end_share + 1]
    return TransitionFraudProof(
        block_hash=built.header.block_hash(),
        start_index=y,
        shares=tuple(shares),
        origins=(ROW,) * len(shares),
        share_proofs=tuple(
            rs2d.prove_share(built.matrix, *divmod(y + a, built.matrix.k), ROW)[1]
            for a in range(len(shares))
        ),
        witnesses=(),
    )


@pytest.mark.parametrize("where", ["block-start", "mid-block"])
def test_period_overflow_is_proven_by_its_run(where):
    """More than p transfers after block start (30, no trace) or after a
    trace (10, a trace, then 15): check_block proves the run through the
    (p+1)-th transfer with no witnesses, and the proof survives the wire,
    rejects the header, and does not verify at 4p."""
    tree, keys = funded_state()
    genesis = genesis_header(tree)
    txs = transfer_chain(keys, 30 if where == "block-start" else 25, random.Random(6))
    messages = list(txs)
    if where == "mid-block":
        (trace,), _ = block._replay_block(tree, txs[:P], P, DEFAULT_PRODUCER)
        messages.insert(P, trace)
    built = framed_block(genesis, messages, K, SHARE_SIZE, P)
    partial = PartialMatrix.from_matrix(built.matrix, with_proofs=True)
    proof = check_block(partial, built, tree)

    parsed = parse_shares_with_spans(built.shares)
    start = 0 if where == "block-start" else P
    overflow = P if where == "block-start" else 2 * P + 1  # the (p+1)-th transfer
    assert isinstance(parsed[overflow].message, Transaction)
    assert proof == witness_free_run(built, parsed[start].first_share, parsed[overflow].last_share)
    assert proof.start_index == (0 if where == "block-start" else 3)

    store = HeaderStore()
    store.add(genesis)
    store.add(built.header)
    assert not verify_transition_fraud_proof(proof, store, 4 * P)
    # a witness or a payout witness makes the run's proof no longer bare
    empty = StateWitness(())
    for extra in (dict(witnesses=(empty,)), dict(payout_witness=empty)):
        assert not verify_transition_fraud_proof(dataclasses.replace(proof, **extra), store, P)
    decoded = decode_fraud_proof(encode_fraud_proof(proof))
    assert decoded == proof
    assert apply_fraud_proof(decoded, store, P)
    assert store.is_rejected(built.header.block_hash())


# (transfers before the first trace, copies of that trace, transfers after
# them, whether a tampered trace follows them)
SHARED_SHARE_LAYOUTS = {
    "two-traces-then-tampered-trace": (P, 2, P, True),
    "two-traces-then-overflow": (P, 2, P + 1, False),
    "short-first-period": (1, 1, P, True),
}


@pytest.mark.parametrize("layout", sorted(SHARED_SHARE_LAYOUTS))
def test_period_after_a_trace_sharing_its_share_is_proven(layout):
    """The faulty period's pre-root trace starts in the same share as an
    earlier period's start: share 3 holds two equal traces, or share 0
    holds block start and a trace after one transfer. The proof from that
    share verifies, survives the wire and rejects the header."""
    lead, copies, tail, tampered = SHARED_SHARE_LAYOUTS[layout]
    tree, keys = funded_state()
    genesis = genesis_header(tree)
    txs = transfer_chain(keys, lead + tail, random.Random(6))
    (trace,), _ = block._replay_block(tree, txs[:lead], lead, DEFAULT_PRODUCER)
    messages = [*txs[:lead], *[trace] * copies, *txs[lead:]] + [b"\x22" * 32] * tampered
    built = framed_block(genesis, messages, K, SHARE_SIZE, P)
    parsed = parse_shares_with_spans(built.shares)
    y = parsed[lead + copies - 1].first_share
    assert y == (parsed[lead].first_share if copies > 1 else 0)

    proof = check_block(PartialMatrix.from_matrix(built.matrix, with_proofs=True), built, tree)
    assert isinstance(proof, TransitionFraudProof)
    assert proof.start_index == y
    assert len(proof.witnesses) == (tail if tampered else 0)
    store = HeaderStore()
    store.add(genesis)
    store.add(built.header)
    assert verify_transition_fraud_proof(proof, store, P) is True
    decoded = decode_fraud_proof(encode_fraud_proof(proof))
    assert decoded == proof
    assert apply_fraud_proof(decoded, store, P)
    assert store.is_rejected(built.header.block_hash())


@settings(max_examples=40)
@given(st.data())
def test_no_witness_free_run_of_an_honest_block_verifies(data):
    """Soundness of the overflow proof: from block start, and from every
    trace's share, the run through the next p + 1 messages (or to the last
    message) of an honest block does not verify without witnesses."""
    k = data.draw(st.sampled_from([1, 2, 4]), label="k")
    p = data.draw(st.integers(min_period(SHARE_SIZE), 12), label="p")
    most = max(n for n in range(4 * k * k) if shares_needed(n, p, SHARE_SIZE) <= k * k)
    tx_count = data.draw(st.integers(0, most), label="tx_count")
    tree, keys = funded_state()
    txs = transfer_chain(keys, tx_count, random.Random(data.draw(st.integers(0, 2**16))))
    genesis = genesis_header(tree)
    built = build_block(genesis, tree, txs, k=k, share_size=SHARE_SIZE, p=p)
    store = HeaderStore()
    store.add(genesis)
    store.add(built.header)

    parsed = parse_shares_with_spans(built.shares)
    runs = [(0, p)] + [
        (pm.first_share, t + p + 1) for t, pm in enumerate(parsed) if isinstance(pm.message, bytes)
    ]
    for y, last in runs:
        end_share = parsed[min(last, len(parsed) - 1)].last_share if parsed else 0
        proof = witness_free_run(built, y, end_share)
        assert not verify_transition_fraud_proof(proof, store, p), (y, end_share)


CHECKED_MODES = {
    ("honest", "trace"): type(None),
    ("invalid-code", "trace"): CodecFraudProof,
    ("invalid-transition", "trace"): TransitionFraudProof,
    ("invalid-transition", "header"): TransitionFraudProof,
}


@settings(max_examples=60)
@given(st.data())
def test_check_block_proves_exactly_the_faulty_blocks(data):
    """The honest full node's guarantee at its one function: from any share
    set that stays recoverable, fewer than (k+1)^2 cells withheld, an honest
    block checks clean, and a faulty one yields a proof of its fault's kind
    that survives the wire and rejects the header."""
    k = data.draw(st.sampled_from([1, 2, 4]), label="k")
    mode, corrupt = data.draw(st.sampled_from(sorted(CHECKED_MODES)), label="mode")
    most = max(n for n in range(4 * k * k) if shares_needed(n, P, SHARE_SIZE) <= k * k)
    tx_count = data.draw(st.integers(0, most), label="tx_count")
    tree, keys = funded_state()
    txs = transfer_chain(keys, tx_count, random.Random(data.draw(st.integers(0, 2**16))))
    genesis = genesis_header(tree)
    built = build_block(
        genesis, tree, txs, k=k, share_size=SHARE_SIZE, p=P, mode=mode, corrupt=corrupt
    )
    cells = [(r, c) for r in range(2 * k) for c in range(2 * k)]
    withheld = data.draw(
        st.lists(st.sampled_from(cells), max_size=(k + 1) ** 2 - 1, unique=True), label="withheld"
    )
    partial = PartialMatrix.from_matrix(built.matrix, withhold=withheld, with_proofs=True)

    proof = check_block(partial, built, tree)
    assert isinstance(proof, CHECKED_MODES[mode, corrupt])
    if proof is not None:
        decoded = decode_fraud_proof(encode_fraud_proof(proof))
        assert decoded == proof
        store = HeaderStore()
        store.add(genesis)
        store.add(built.header)
        assert apply_fraud_proof(decoded, store, P)
        assert store.is_rejected(built.header.block_hash())


# --- recorded proof encodings ----------------------------------------------------


def _double_tree_proof_bytes(proof):
    """Canonical bytes of a double-tree proof, which has no wire format."""
    parts = [proof.block_hash, proof.start_index.to_bytes(8, "big")]
    if proof.pre_trace is not None:
        trace, trace_proof, x = proof.pre_trace
        parts += [trace, trace_proof.to_bytes(), x.to_bytes(8, "big", signed=True)]
    if proof.post_trace is not None:
        parts += [proof.post_trace[0], proof.post_trace[1].to_bytes()]
    parts += [tx.to_bytes() for tx in proof.txs]
    parts += [tx_proof.to_bytes() for tx_proof in proof.tx_proofs]
    for witness in proof.witnesses + (proof.payout_witness or StateWitness(()),):
        parts.append(len(witness.entries).to_bytes(2, "big"))
        for key, value, sproof in witness.entries:
            parts += [key, value, sproof.to_bytes()]
    return b"".join(len(part).to_bytes(8, "big") + part for part in parts)


# SHA-256 of each generated proof's encoding per (layout, corruption, transfer
# count), recorded before the state replay was made period-granular; any change
# to a root, trace, witness or share proof shows here. The double-tree builder
# corrupts its first trace, or the header state root when there is none.
RECORDED_PROOF_DIGESTS = {
    ("in-band", "trace", 9): "21f9368fc43bebdfc45590f5073db17feb2a7bd5efb004d41ba98952ffe48747",
    ("in-band", "trace", 10): "886757c517fe7f2e6a9af950795279de9166e0630bc8ef7b605541b13a601bee",
    ("in-band", "trace", 20): "de0abf7cc1b8b230b23559483bfbb5a42a52b75bb684e5da556f147712bda4db",
    ("in-band", "trace", 21): "bc13d26edc353e9175ab4cdf758e39d6b6732f2b9bcb0dfccc4b00acb9a923c0",
    ("in-band", "trace", 25): "0ab9c9bf7aeda46c85ff9946fdc97fe482a0d857332d87b3b76b8908ebea8d76",
    ("in-band", "header", 9): "21f9368fc43bebdfc45590f5073db17feb2a7bd5efb004d41ba98952ffe48747",
    ("in-band", "header", 10): "546da86009d85591391b8362ebcf37ad3572ef51c994c3e27d0d47c19431ba73",
    ("in-band", "header", 20): "f9d0fad505a841ca39c74165584ab6adb4efac74c55ae003da26fe781cafc243",
    ("in-band", "header", 21): "9fc9b90ca22e5f5ca222c7f8191a752b674decc32507bfc526d37563633920f2",
    ("in-band", "header", 25): "07c05c1b59f3f70d89ddfe165e018cbc6753017a958866e03fcc9e47ab6178a0",
    ("double-tree", "first", 9): "643c213da19d464af10b6ce4bb1376221bca8d333ede5df61b217fe2774940ae",
    ("double-tree", "first", 10): "6d7fe3c131fe9b176a994dac2cf4b6a0e84319e2d9dd939ed0dbd823621d37a6",
    ("double-tree", "first", 20): "62a7b7e8efc1e5b7bdc7d2638b2274c00dd48587585c996676f8baefaacb8b9d",
    ("double-tree", "first", 21): "bb42b2dcbd2af815d6d1b2e28fd4170e708f269c225b40fa587405a09e4df873",
    ("double-tree", "first", 25): "5de21f11c362c6b2604f98a2f51a4ac3de19f6c2955b8d2e8f878b02546cefa5",
}


def _proof_encoding(layout, corrupt, tx_count):
    if layout == "double-tree":
        built, tree, _ = make_dt_chain("invalid-transition", tx_count)
        return _double_tree_proof_bytes(generate_double_tree_fraud_proof(built, tree))
    built, prev_state, _ = make_chain("invalid-transition", tx_count, corrupt)
    return encode_fraud_proof(generate_transition_fraud_proof(built, prev_state))


@pytest.mark.parametrize("case", sorted(RECORDED_PROOF_DIGESTS))
def test_proof_encodings_match_recorded_digests(case):
    encoding = _proof_encoding(*case)
    assert hashlib.sha256(encoding).hexdigest() == RECORDED_PROOF_DIGESTS[case]
