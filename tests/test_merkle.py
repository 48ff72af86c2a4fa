import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daproofs import merkle
from daproofs.merkle import MerkleProof, leaf_hash, node_hash
from tests.oracles import merkle_proof_verifies


def oracle_root(leaves):
    """Direct recursive recompute, written independently of the module."""
    if len(leaves) == 1:
        return hashlib.sha256(b"\x00" + leaves[0]).digest()
    split = 1
    while split * 2 < len(leaves):
        split *= 2
    left = oracle_root(leaves[:split])
    right = oracle_root(leaves[split:])
    return hashlib.sha256(b"\x01" + left + right).digest()


def oracle_proof(leaves, index):
    """RFC 6962 PATH by recursive descent: siblings in leaf-to-root order."""
    if len(leaves) == 1:
        return ()
    split = 1
    while split * 2 < len(leaves):
        split *= 2
    if index < split:
        return oracle_proof(leaves[:split], index) + (oracle_root(leaves[split:]),)
    return oracle_proof(leaves[split:], index - split) + (oracle_root(leaves[:split]),)


def distinct_leaves(n):
    return [bytes([i]) * 4 for i in range(n)]


def test_single_leaf_root():
    assert merkle.root([b"x"]) == leaf_hash(b"x")
    assert merkle.prove([b"x"], 0).siblings == ()


def test_two_leaf_composition():
    expected = node_hash(leaf_hash(b"a"), leaf_hash(b"b"))
    assert merkle.root([b"a", b"b"]) == expected
    proof = merkle.prove([b"a", b"b"], 0)
    assert proof.siblings == (leaf_hash(b"b"),)


def test_left_heavy_split_five_leaves():
    leaves = distinct_leaves(5)
    assert merkle.root(leaves) == node_hash(merkle.root(leaves[:4]), merkle.root(leaves[4:]))


@pytest.mark.parametrize("n", range(1, 17))
def test_root_matches_recursive_oracle(n):
    leaves = distinct_leaves(n)
    assert merkle.root(leaves) == oracle_root(leaves)


def test_root_and_proofs_match_recursive_oracle_sibling_for_sibling():
    for n in range(1, 71):
        leaves = [bytes([n, i]) for i in range(n)]
        assert merkle.root(leaves) == oracle_root(leaves)
        for i in range(n):
            assert merkle.prove(leaves, i) == MerkleProof(oracle_proof(leaves, i), i, n)


def test_wrong_sibling_count_rejected_without_raising():
    extra = leaf_hash(b"extra")
    for n in range(1, 18):
        leaves = distinct_leaves(n)
        root = merkle.root(leaves)
        for i in range(n):
            proof = merkle.prove(leaves, i)
            variants = [proof.siblings + (extra,)]
            variants += [
                proof.siblings[:d] + proof.siblings[d + 1 :] for d in range(len(proof.siblings))
            ]
            for siblings in variants:
                bad = MerkleProof(siblings, i, n)
                assert merkle.verify_merkle_proof(leaves[i], bad, root, n, i) is False


def test_empty_tree_rejected():
    with pytest.raises(ValueError, match="empty tree"):
        merkle.root([])


def test_prove_index_out_of_range():
    with pytest.raises(IndexError):
        merkle.prove([b"a", b"b"], 2)


def test_round_trip_all_sizes_and_indices():
    for n in range(1, 65):
        leaves = [bytes([n, i]) for i in range(n)]
        root = merkle.root(leaves)
        for i in range(n):
            proof = merkle.prove(leaves, i)
            assert merkle.verify_merkle_proof(leaves[i], proof, root, n, i)


def test_position_binding_exhaustive():
    for n in range(2, 17):
        leaves = distinct_leaves(n)
        root = merkle.root(leaves)
        for i in range(n):
            proof = merkle.prove(leaves, i)
            for j in range(n):
                if j == i:
                    continue
                assert not merkle.verify_merkle_proof(leaves[i], proof, root, n, j)
                # nor does the proof vouch for the other leaf at the other index
                assert not merkle.verify_merkle_proof(leaves[j], proof, root, n, j)


def test_sibling_mutation_detected():
    for n in range(2, 17):
        leaves = distinct_leaves(n)
        root = merkle.root(leaves)
        for i in range(n):
            proof = merkle.prove(leaves, i)
            for level in range(len(proof.siblings)):
                flipped = bytearray(proof.siblings[level])
                flipped[0] ^= 0x01
                siblings = list(proof.siblings)
                siblings[level] = bytes(flipped)
                bad = MerkleProof(tuple(siblings), proof.leaf_index, proof.tree_size)
                assert not merkle.verify_merkle_proof(leaves[i], bad, root, n, i)


def test_element_mutation_detected():
    leaves = distinct_leaves(7)
    root = merkle.root(leaves)
    proof = merkle.prove(leaves, 3)
    assert not merkle.verify_merkle_proof(b"not the leaf", proof, root, 7, 3)


def test_structural_second_preimage_blocked():
    # an internal node's child pair, presented as a leaf, must not
    # reproduce the parent tree's root
    leaves = [b"a", b"b"]
    root = merkle.root(leaves)
    forged_leaf = leaf_hash(b"a") + leaf_hash(b"b")
    assert merkle.root([forged_leaf]) != root


def test_tree_size_must_match_proof():
    leaves = distinct_leaves(6)
    root = merkle.root(leaves)
    proof = merkle.prove(leaves, 2)
    assert not merkle.verify_merkle_proof(leaves[2], proof, root, 7, 2)
    assert not merkle.verify_merkle_proof(leaves[2], proof, root, 5, 2)


def test_wire_round_trip():
    leaves = distinct_leaves(11)
    proof = merkle.prove(leaves, 5)
    assert MerkleProof.from_bytes(proof.to_bytes()) == proof


def test_wire_rejects_garbage():
    with pytest.raises(ValueError):
        MerkleProof.from_bytes(b"\x00" * 10)
    leaves = distinct_leaves(4)
    proof = merkle.prove(leaves, 1)
    with pytest.raises(ValueError):
        MerkleProof.from_bytes(proof.to_bytes() + b"\x00")


@settings(max_examples=40)
@given(
    st.lists(st.binary(min_size=0, max_size=24), min_size=1, max_size=40),
    st.data(),
)
def test_round_trip_property(leaves, data):
    index = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
    root = merkle.root(leaves)
    proof = merkle.prove(leaves, index)
    assert merkle.verify_merkle_proof(leaves[index], proof, root, len(leaves), index)


# Item mutations for the batch differential test. One item in four is
# mutated, so that most batches hold at most one failing item: one more
# would mask a wrong verdict on it.
MUTATIONS = (
    "element",
    "sibling_byte",
    "sibling_swap",
    "index",
    "index_and_proof",
    "proof_tree_size",
    "drop_sibling",
    "extra_sibling",
    "short_sibling",
    "long_sibling",
    "other_path",
)


def mutated_item(data, tree, leaves, i):
    """(element, proof, index) for leaf i, with one drawn mutation."""
    n = len(leaves)
    proof = tree.prove(i)
    element, siblings, leaf_index, size, index = leaves[i], list(proof.siblings), i, n, i
    mutate = data.draw(st.integers(0, 3)) == 0
    kind = data.draw(st.sampled_from(MUTATIONS)) if mutate else None
    d = data.draw(st.integers(0, max(len(siblings) - 1, 0)))
    if kind == "element":
        element = data.draw(st.sampled_from([element + b"!", leaves[(i + 1) % n]]))
    elif kind == "sibling_byte" and siblings:
        siblings[d] = bytes([siblings[d][0] ^ 1]) + siblings[d][1:]
    elif kind == "sibling_swap" and len(siblings) > 1:
        siblings[0], siblings[-1] = siblings[-1], siblings[0]
    elif kind == "index":
        index = data.draw(st.integers(-1, n))
    elif kind == "index_and_proof":
        index = leaf_index = data.draw(st.integers(0, n - 1))
    elif kind == "proof_tree_size":
        size = data.draw(st.integers(0, n + 2))
    elif kind == "drop_sibling" and siblings:
        del siblings[d]
    elif kind == "extra_sibling":
        siblings.insert(d, leaf_hash(b"extra"))
    elif kind == "short_sibling" and siblings:
        siblings[d] = siblings[d][:-1]
    elif kind == "long_sibling" and siblings:
        siblings[d] += b"\x00"
    elif kind == "other_path":
        siblings = list(tree.prove(data.draw(st.integers(0, n - 1))).siblings)
    return element, MerkleProof(tuple(siblings), leaf_index, size), index


@settings(max_examples=400)
@given(st.data())
def test_batch_verifier_matches_per_proof_oracle(data):
    n = data.draw(st.integers(1, 70))
    distinct = data.draw(st.integers(1, n))  # fewer distinct contents than leaves
    leaves = [bytes([n, i % distinct]) * 3 for i in range(n)]
    tree = merkle.MerkleTree(leaves)
    # up to three variants of each picked leaf, so passing and failing
    # items meet at one position, and exact duplicates recur
    picks = data.draw(st.lists(st.integers(0, n - 1), max_size=6))
    items = [
        mutated_item(data, tree, leaves, i)
        for i in picks
        for _ in range(data.draw(st.integers(1, 3)))
    ]
    # echoes of earlier items: exact, or moved by one position with or
    # without their proof's leaf index
    echoes = data.draw(st.lists(st.sampled_from(items), max_size=3)) if items else []
    for element, proof, index in echoes:
        moved = data.draw(st.sampled_from([0, 0, 1, -1]))
        leaf_index = proof.leaf_index + moved * data.draw(st.integers(0, 1))
        moved_proof = MerkleProof(proof.siblings, leaf_index, proof.tree_size)
        items.append((element, moved_proof, index + moved))
    tree_size = data.draw(st.sampled_from([n] * 6 + [n - 1, n + 1, 0]))
    root = data.draw(st.sampled_from([tree.root] * 8 + [leaf_hash(b"root")]))
    expected = all(merkle_proof_verifies(e, p, root, tree_size, i) for e, p, i in items)
    assert merkle.verify_merkle_proofs(items, root, tree_size) is expected
    for element, proof, index in items[:3]:
        alone = merkle_proof_verifies(element, proof, root, tree_size, index)
        assert merkle.verify_merkle_proof(element, proof, root, tree_size, index) is alone


def test_batch_verifier_hashes_each_distinct_input_once(merkle_hashes):
    leaves_hashed, nodes_hashed = merkle_hashes
    leaves = distinct_leaves(37)
    tree = merkle.MerkleTree(leaves)
    items = [(leaves[i], tree.prove(i), i) for i in range(37)] * 2
    leaves_hashed.clear()
    nodes_hashed.clear()
    assert merkle.verify_merkle_proofs(items, tree.root, 37)
    # every leaf once and every internal node once: a full rebuild
    assert sorted(leaves_hashed.values()) == [1] * 37
    assert sorted(nodes_hashed.values()) == [1] * 36
