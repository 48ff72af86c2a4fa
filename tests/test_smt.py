import copy
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daproofs import smt
from daproofs.block import DEFAULT_PRODUCER, _replay_block
from daproofs.merkle import Reader, node_hash
from daproofs.smt import (
    DEPTH,
    EMPTY_SUBTREE,
    SparseProof,
    StateTree,
    WitnessError,
    WitnessSubtree,
    hash_invocations,
)
from daproofs.state import FEES_KEY
from tests.conftest import funded_state, transfer_chain


def rand_key(rng):
    return bytes(rng.randrange(256) for _ in range(32))


def test_empty_root_is_default_chain():
    # the empty root is the 256-fold chain over the zero leaf digest
    chain = b"\x00" * 32
    for _ in range(DEPTH):
        chain = node_hash(chain, chain)
    assert StateTree().root() == chain
    assert EMPTY_SUBTREE[DEPTH] == chain


def test_insert_then_delete_restores_root():
    tree = StateTree()
    before = tree.root()
    tree.update(b"\x11" * 32, b"value")
    assert tree.root() != before
    tree.update(b"\x11" * 32, b"")
    assert tree.root() == before
    assert len(tree) == 0


def test_round_trip_proofs_including_default():
    tree = StateTree()
    key, other = b"\xaa" * 32, b"\xbb" * 32
    tree.update(key, b"payload")
    root = tree.root()
    assert smt.verify(key, b"payload", tree.prove(key), root)
    # non-membership: the absent key proves the default value
    assert smt.verify(other, b"", tree.prove(other), root)
    # and cannot prove any non-default value
    assert not smt.verify(other, b"something", tree.prove(other), root)


def test_insertion_order_independence():
    rng = random.Random(7)
    entries = [(rand_key(rng), bytes([i]) * 8) for i in range(100)]
    one = StateTree()
    for key, value in entries:
        one.update(key, value)
    two = StateTree()
    for key, value in reversed(entries):
        two.update(key, value)
    assert one.root() == two.root()


def test_root_is_function_of_contents_not_history():
    tree = StateTree()
    tree.update(b"\x01" * 32, b"a")
    tree.update(b"\x02" * 32, b"b")
    tree.update(b"\x01" * 32, b"")
    fresh = StateTree()
    fresh.update(b"\x02" * 32, b"b")
    assert tree.root() == fresh.root()


def test_update_hash_budget():
    tree = StateTree()
    rng = random.Random(3)
    for _ in range(20):
        tree.update(rand_key(rng), b"seed")
    tree.root()
    before = hash_invocations()
    tree.update(rand_key(rng), b"fresh")
    tree.root()
    assert hash_invocations() - before <= 257


@pytest.mark.parametrize("d", [1, 2, 5, 30])
def test_batched_updates_hash_budget(d):
    tree = StateTree()
    rng = random.Random(d)
    for _ in range(20):
        tree.update(rand_key(rng), b"seed")
    tree.root()
    before = hash_invocations()
    for _ in range(d):
        tree.update(rand_key(rng), b"fresh")
    tree.root()
    assert hash_invocations() - before <= 257 * d
    # nothing dirty: a second read costs nothing
    before = hash_invocations()
    tree.root()
    assert hash_invocations() == before
    # one key written d times is rehashed once
    key = rand_key(rng)
    for i in range(d):
        tree.update(key, bytes([i + 1]))
    tree.root()
    assert hash_invocations() - before <= 257


def test_key_length_enforced():
    tree = StateTree()
    with pytest.raises(ValueError):
        tree.update(b"short", b"x")
    with pytest.raises(ValueError):
        tree.get(b"short")
    assert not smt.verify(b"short", b"", SparseProof(b"short", b"", ()), tree.root())


def test_proof_wrong_value_fails():
    tree = StateTree()
    key = b"\x42" * 32
    tree.update(key, b"true value")
    proof = tree.prove(key)
    assert not smt.verify(key, b"other value", proof, tree.root())
    assert not smt.verify(key, b"true value", proof, StateTree().root())


def test_compressed_wire_round_trip():
    tree = StateTree()
    rng = random.Random(11)
    keys = [rand_key(rng) for _ in range(12)]
    for i, key in enumerate(keys):
        tree.update(key, bytes([i + 1]))
    for key in keys:
        proof = tree.prove(key)
        wire = proof.to_bytes()
        # bitmap is 32 bytes; only non-default siblings follow
        included = sum(1 for i, sib in enumerate(proof.siblings) if sib != EMPTY_SUBTREE[i])
        assert len(wire) == 32 + 32 * included
        reader = Reader(wire)
        decoded = SparseProof.read(reader, key, proof.value)
        assert reader.at_end()
        assert decoded == proof
        assert smt.verify(key, proof.value, decoded, tree.root())


def test_witness_subtree_matches_full_tree_updates():
    rng = random.Random(5)
    tree = StateTree()
    keys = [rand_key(rng) for _ in range(30)]
    for i, key in enumerate(keys):
        tree.update(key, bytes([i]) * 4)
    picked = keys[:3] + [rand_key(rng)]  # includes one absent key
    entries = tuple((key, tree.get(key), tree.prove(key)) for key in picked)
    subtree = WitnessSubtree.from_entries(tree.root(), entries)
    assert subtree.root() == tree.root()
    # mirror updates on both and compare roots
    for i, key in enumerate(picked):
        new_value = bytes([200 + i])
        subtree.update(key, new_value)
        tree.update(key, new_value)
    assert subtree.root() == tree.root()
    # delete a covered key, re-insert it, then rewrite the once-absent key
    absent = picked[-1]
    for key, value in ((picked[0], b""), (picked[0], b"back"), (absent, b"late"), (absent, b"")):
        subtree.update(key, value)
        tree.update(key, value)
        assert subtree.root() == tree.root()
        assert subtree.get(key) == tree.get(key)
    with pytest.raises(WitnessError):
        subtree.update(keys[10], b"uncovered")


def test_witness_copy_keeps_coverage():
    rng = random.Random(4)
    tree = StateTree()
    keys = [rand_key(rng) for _ in range(6)]
    for key in keys[:4]:
        tree.update(key, b"seed")
    entries = tuple((key, tree.get(key), tree.prove(key)) for key in keys[:3])
    subtree = WitnessSubtree.from_entries(tree.root(), entries)
    dup = subtree.copy()
    assert isinstance(dup, WitnessSubtree)
    assert dup.covered == subtree.covered
    for uncovered in (keys[3], keys[5]):
        with pytest.raises(WitnessError):
            dup.update(uncovered, b"copy only")
        with pytest.raises(WitnessError):
            dup.get(uncovered)
    # a covered write moves the copy as it moves the full tree, and leaves
    # the subtree it was copied from as it was, with nothing to rehash
    root = subtree.root()
    dup.update(keys[0], b"changed")
    before = hash_invocations()
    assert subtree.root() == root
    assert hash_invocations() == before
    tree.update(keys[0], b"changed")
    assert dup.root() == tree.root() != root


def test_witness_seeding_hashes_each_proof_once():
    rng = random.Random(9)
    tree = StateTree()
    keys = [rand_key(rng) for _ in range(12)]
    for key in keys[:8]:
        tree.update(key, b"seed")
    entries = tuple((key, tree.get(key), tree.prove(key)) for key in keys[4:])
    before = hash_invocations()
    WitnessSubtree.from_entries(tree.root(), entries)
    # one leaf hash plus 256 node hashes per entry, as in StateTree.update
    assert hash_invocations() - before <= 257 * len(entries)


def test_witness_subtree_rejects_bad_proofs():
    tree = StateTree()
    key = b"\x0f" * 32
    tree.update(key, b"v")
    proof = tree.prove(key)
    with pytest.raises(WitnessError):
        WitnessSubtree.from_entries(StateTree().root(), ((key, b"v", proof),))
    with pytest.raises(WitnessError):
        WitnessSubtree.from_entries(tree.root(), ((key, b"v", proof), (key, b"v", proof)))
    subtree = WitnessSubtree.from_entries(tree.root(), ((key, b"v", proof),))
    with pytest.raises(WitnessError):
        subtree.get(b"\x10" * 32)


@settings(max_examples=25)
@given(
    st.dictionaries(
        st.binary(min_size=32, max_size=32),
        st.binary(min_size=1, max_size=8),
        min_size=0,
        max_size=12,
    ),
    st.randoms(use_true_random=False),
)
def test_root_depends_only_on_map(contents, rng):
    items = list(contents.items())
    one = StateTree()
    for key, value in items:
        one.update(key, value)
    rng.shuffle(items)
    two = StateTree()
    # interleave some inserts that are later deleted
    for key, value in items:
        two.update(key, b"garbage")
        two.update(key, value)
    assert one.root() == two.root()


# --- the eager update, kept as the oracle of the lazy root -------------------------


def _store(tree, level, prefix, digest):
    """Keep only non-default nodes, as the tree does."""
    if digest == EMPTY_SUBTREE[DEPTH - level]:
        tree._nodes.pop((level, prefix), None)
    else:
        tree._nodes[(level, prefix)] = digest


def _eager_update(tree, key, value):
    """Write key and rehash its whole path at once, as every update did
    before the root became lazy."""
    path = int.from_bytes(key, "big")
    if value == b"":
        tree._values.pop(key, None)
        node = smt.DEFAULT_LEAF
    else:
        tree._values[key] = bytes(value)
        node = hashlib.sha256(b"\x00" + key + value).digest()
    _store(tree, DEPTH, path, node)
    for level in range(DEPTH, 0, -1):
        prefix = path >> (DEPTH - level)
        sibling = tree._nodes.get((level, prefix ^ 1), EMPTY_SUBTREE[DEPTH - level])
        node = node_hash(sibling, node) if prefix & 1 else node_hash(node, sibling)
        _store(tree, level - 1, prefix >> 1, node)


class EagerTree(StateTree):
    def update(self, key, value):
        smt._check_key(key)
        _eager_update(self, bytes(key), value)


class EagerWitness(WitnessSubtree):
    def update(self, key, value):
        self._check_covered(key)
        _eager_update(self, bytes(key), value)


# Keys that share long path prefixes (differing only in the last bits) as
# well as keys that part at the root.
KEY_POOL = (
    [bytes(31) + bytes([i]) for i in range(4)]
    + [b"\xff" * 31 + bytes([i]) for i in (0, 1)]
    + [node_hash(b"pool", bytes([i])) for i in range(2)]
)
KEY_INDEX = st.integers(0, len(KEY_POOL) - 1)
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("write"), KEY_INDEX, st.binary(min_size=1, max_size=4)),
        st.tuples(st.just("delete"), KEY_INDEX),
        st.tuples(st.just("root")),
        st.tuples(st.just("prove"), KEY_INDEX),
        st.tuples(st.just("copy")),
    ),
    max_size=30,
)


def _outcome(call):
    try:
        return call()
    except WitnessError:
        return WitnessError


def _node_map(tree):
    """Every node a flushed tree keeps, with each run spelled out node by
    node, after checking the storage rule: a present key's run reaches just
    below the lowest height where its path meets another key, its top and
    the nodes with two or more keys below are in _nodes, and nothing else is."""
    paths = sorted(int.from_bytes(key, "big") for key in tree._values)
    if tree._paths is None:
        assert tree._runs == {}
        return tree._nodes
    assert tree._paths == sorted(tree._runs) == paths
    nodes = dict(tree._nodes)
    for path, run in tree._runs.items():
        others = (other for other in paths if other != path)
        length = min(((path ^ other).bit_length() for other in others), default=DEPTH + 1)
        assert len(run) == 32 * length
        for height in range(length):
            at, digest = (DEPTH - height, path >> height), run[32 * height : 32 * height + 32]
            if height == length - 1:
                assert tree._nodes[at] == digest
            else:
                assert at not in tree._nodes
                nodes[at] = digest
    tops = {
        (DEPTH + 1 - len(run) // 32, path >> (len(run) // 32 - 1))
        for path, run in tree._runs.items()
    }
    for level, prefix in tree._nodes.keys() - tops:
        assert sum(path >> (DEPTH - level) == prefix for path in paths) >= 2
    return nodes


def _assert_same_nodes(tree, oracle):
    """The flushed tree keeps exactly the oracle's nodes. The maps are
    compared before the assert, so a failure names a few differing nodes
    instead of printing both maps."""
    nodes = _node_map(tree)
    differ = sorted(
        at for at in nodes.keys() | oracle._nodes.keys() if nodes.get(at) != oracle._nodes.get(at)
    )
    count = len(differ)
    assert count == 0, f"{count} nodes differ, first (level, prefix): {differ[:4]}"


def _check_step(lazy, eager, op, pool=KEY_POOL):
    """Run op on both trees, compare what it returns, then compare the lazy
    tree's flushed state with the oracle's without flushing the lazy tree."""
    kind = op[0]
    if kind in ("write", "delete"):
        key, value = pool[op[1]], op[2] if kind == "write" else b""
        assert _outcome(lambda: lazy.update(key, value)) == _outcome(
            lambda: eager.update(key, value)
        )
    elif kind == "root":
        assert lazy.root() == eager.root()
    elif kind == "prove":
        key = pool[op[1]]
        assert _outcome(lambda: lazy.prove(key).siblings) == _outcome(
            lambda: eager.prove(key).siblings
        )
    else:
        dup = lazy.copy()
        assert type(dup) is type(lazy)
        assert dup.root() == eager.root()
        # a witness subtree's copy keeps its coverage
        uncovered = isinstance(lazy, WitnessSubtree) and pool[0] not in lazy.covered
        expected = WitnessError if uncovered else None
        assert _outcome(lambda: dup.update(pool[0], b"copy only")) == expected
    for key in pool:
        assert _outcome(lambda: lazy.get(key)) == _outcome(lambda: eager.get(key))
    flushed = copy.deepcopy(lazy)
    assert flushed.root() == eager.root()
    _assert_same_nodes(flushed, eager)


@settings(max_examples=60)
@given(OPERATIONS)
def test_lazy_root_matches_eager_oracle(ops):
    lazy, eager = StateTree(), EagerTree()
    for op in ops:
        _check_step(lazy, eager, op)


@settings(max_examples=60)
@given(
    st.dictionaries(KEY_INDEX, st.binary(min_size=1, max_size=4)),
    st.sets(KEY_INDEX, min_size=1),
    OPERATIONS,
)
def test_lazy_witness_matches_eager_oracle(contents, covered, ops):
    full = EagerTree()
    for index, value in contents.items():
        full.update(KEY_POOL[index], value)
    entries = [(KEY_POOL[i], full.get(KEY_POOL[i]), full.prove(KEY_POOL[i])) for i in covered]
    lazy = WitnessSubtree.from_entries(full.root(), entries)
    eager = EagerWitness.from_entries(full.root(), entries)
    for op in ops:
        _check_step(lazy, eager, op)
        if op[0] in ("write", "delete") and op[1] in covered:
            full.update(KEY_POOL[op[1]], op[2] if op[0] == "write" else b"")
        # the subtree tracks the full tree through every covered write
        assert copy.deepcopy(lazy).root() == full.root()


# Keys whose paths part from a base key's at heights 0, 1, 2, 8, 64 and 255,
# two that part from one of those again lower down, and two unrelated keys:
# dirty sets of these merge low, high and nested, and deleting a key next
# to its only populated neighbour empties whole subtrees.
_BASE = int.from_bytes(node_hash(b"wide", b"base"), "big")
WIDE_POOL = [
    (_BASE ^ flip).to_bytes(32, "big")
    for flip in (
        [0]
        + [1 << height for height in (0, 1, 2, 8, 64, 255)]
        + [1 << 64 | 1 << height for height in (0, 8)]
    )
] + [node_hash(b"wide", bytes([i])) for i in range(2)]
WIDE_INDEX = st.integers(0, len(WIDE_POOL) - 1)
WIDE_VALUE = st.one_of(st.just(b""), st.binary(min_size=1, max_size=3))
WIDE_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("batch"), st.lists(st.tuples(WIDE_INDEX, WIDE_VALUE), max_size=8)),
        st.tuples(st.just("root")),
        st.tuples(st.just("copy")),
    ),
    max_size=12,
)


def _check_wide_step(lazy, eager, op):
    """Several keys dirty at once, then every root, proof and stored node
    compared with the oracle's."""
    if op[0] == "batch":
        for index, value in op[1]:
            kind = ("write", index, value) if value else ("delete", index)
            _check_step(lazy, eager, kind, WIDE_POOL)
    else:
        _check_step(lazy, eager, op, WIDE_POOL)
    flushed = copy.deepcopy(lazy)
    for key in WIDE_POOL:
        assert _outcome(lambda: flushed.prove(key).siblings) == _outcome(
            lambda: eager.prove(key).siblings
        )


@settings(max_examples=60)
@given(WIDE_OPERATIONS)
def test_lazy_root_matches_eager_oracle_on_nested_merges(ops):
    lazy, eager = StateTree(), EagerTree()
    for op in ops:
        _check_wide_step(lazy, eager, op)


@settings(max_examples=40)
@given(
    st.dictionaries(WIDE_INDEX, st.binary(min_size=1, max_size=3)),
    st.sets(WIDE_INDEX, min_size=1),
    WIDE_OPERATIONS,
)
def test_lazy_witness_matches_eager_oracle_on_nested_merges(contents, covered, ops):
    full = EagerTree()
    for index, value in contents.items():
        full.update(WIDE_POOL[index], value)
    entries = [(WIDE_POOL[i], full.get(WIDE_POOL[i]), full.prove(WIDE_POOL[i])) for i in covered]
    lazy = WitnessSubtree.from_entries(full.root(), entries)
    eager = EagerWitness.from_entries(full.root(), entries)
    for op in ops:
        _check_wide_step(lazy, eager, op)


def _flush_work(tree, flushed):
    """Hashes one flush needs: each distinct node above the leaves on the
    path of a dirty key that holds a value now or held one at the last
    flush (the keys in flushed), plus each dirty leaf that holds a value."""
    keys = {key for key in tree._dirty if key in tree._values or key in flushed}
    nodes = {
        (height, int.from_bytes(key, "big") >> height)
        for key in keys
        for height in range(1, DEPTH + 1)
    }
    return len(nodes) + sum(key in tree._values for key in keys)


def _assert_flush_work(tree, flushed):
    expected = _flush_work(tree, flushed)
    before = hash_invocations()
    tree.root()
    assert hash_invocations() - before == expected


@settings(max_examples=40)
@given(
    st.dictionaries(WIDE_INDEX, st.binary(min_size=1, max_size=3)),
    st.sets(WIDE_INDEX, min_size=1),
    st.lists(st.tuples(WIDE_INDEX, WIDE_VALUE), min_size=1, max_size=10),
)
def test_flush_hashes_each_dirty_node_once(contents, covered, writes):
    full = StateTree()
    for index, value in contents.items():
        full.update(WIDE_POOL[index], value)
    entries = [(WIDE_POOL[i], full.get(WIDE_POOL[i]), full.prove(WIDE_POOL[i])) for i in covered]
    subtree = WitnessSubtree.from_entries(full.root(), entries)
    flushed = {WIDE_POOL[index] for index in contents}
    for index, value in writes:
        full.update(WIDE_POOL[index], value)
        if index in covered:
            subtree.update(WIDE_POOL[index], value)
    _assert_flush_work(full, flushed)
    _assert_flush_work(subtree, flushed)
    assert _flush_work(subtree, flushed) == 0


# --- runs: a present key's nodes up to where its path meets another key ----------


def _lone_pair(meet):
    """A key and the key whose path first meets it at height meet."""
    key = node_hash(b"run", b"lone")
    return key, (int.from_bytes(key, "big") ^ 1 << (meet - 1)).to_bytes(32, "big")


def _run_lengths(tree):
    return {path: len(run) // 32 for path, run in tree._runs.items()}


def test_insert_beside_a_run_splits_it_without_rehashing():
    lone, beside = _lone_pair(4)
    tree = StateTree()
    tree.update(lone, b"lone")
    tree.root()
    assert _run_lengths(tree) == {int.from_bytes(lone, "big"): DEPTH + 1}
    before = hash_invocations()
    tree.update(beside, b"beside")
    root = tree.root()
    # the new key's leaf and its 256 nodes; the lone run is only sliced
    assert hash_invocations() - before <= 257
    assert _run_lengths(tree) == {int.from_bytes(key, "big"): 4 for key in (lone, beside)}
    eager = EagerTree()
    eager.update(lone, b"lone")
    eager.update(beside, b"beside")
    assert root == eager.root()
    _assert_same_nodes(tree, eager)


def test_deleting_the_only_neighbour_extends_the_run():
    lone, beside = _lone_pair(4)
    tree = StateTree()
    tree.update(lone, b"lone")
    tree.update(beside, b"beside")
    tree.root()
    tree.update(beside, b"")
    _assert_flush_work(tree, {lone, beside})
    assert _run_lengths(tree) == {int.from_bytes(lone, "big"): DEPTH + 1}
    alone = EagerTree()
    alone.update(lone, b"lone")
    assert tree.root() == alone.root()
    _assert_same_nodes(tree, alone)


def test_new_run_through_deleted_keys_keeps_none_of_their_nodes():
    # two keys meeting at height 8 are deleted in the flush that inserts a
    # smaller key beneath them: its run covers every node they shared
    path = int.from_bytes(node_hash(b"run", b"lone"), "big") & ~(1 << 4 | 1 << 7)
    key, *pair = ((path | flip).to_bytes(32, "big") for flip in (0, 1 << 4, 1 << 7))
    tree = StateTree()
    for other in pair:
        tree.update(other, b"pair")
    tree.root()
    for other in pair:
        tree.update(other, b"")
    tree.update(key, b"new")
    alone = EagerTree()
    alone.update(key, b"new")
    assert tree.root() == alone.root()
    _assert_same_nodes(tree, alone)


@pytest.mark.parametrize("meet", [1, 4, 200, DEPTH])
def test_absent_key_beside_a_run_proves_without_hashing(meet):
    lone, absent = _lone_pair(meet)
    tree, eager = StateTree(), EagerTree()
    for dest in (tree, eager):
        dest.update(lone, b"lone")
        dest.update(node_hash(b"run", b"far"), b"far")
    root = tree.root()
    before = hash_invocations()
    proof = tree.prove(absent)
    assert hash_invocations() == before
    assert proof.siblings == eager.prove(absent).siblings
    assert smt.verify(absent, b"", proof, root)


def test_copy_keeps_the_original_runs():
    lone, beside = _lone_pair(9)
    far = node_hash(b"run", b"far")
    tree, eager = StateTree(), EagerTree()
    for dest in (tree, eager):
        for key in (lone, far):
            dest.update(key, b"v")
    root, runs = tree.root(), dict(tree._runs)
    dup = tree.copy()
    # split the lone key's run in the copy, extend it again, then rewrite it
    for key, value in ((beside, b"split"), (far, b""), (lone, b"changed")):
        dup.update(key, value)
        dup.root()
    assert dup.root() != root
    assert tree.root() == root == eager.root()
    assert tree._runs == runs
    _assert_same_nodes(tree, eager)


# The replay's key shape: hashed account keys, the fee accumulator that a
# block's payout deletes and its next transfer re-inserts, and recipients
# first written mid-block.
REPLAY_ACCOUNTS = [node_hash(b"replay", i.to_bytes(2, "big")) for i in range(64)]
REPLAY_RECIPIENTS = [node_hash(b"recipient", bytes([i])) for i in range(8)]
REPLAY_KEYS = REPLAY_ACCOUNTS + REPLAY_RECIPIENTS + [FEES_KEY]
REPLAY_VALUE = st.binary(min_size=16, max_size=16)
REPLAY_WRITE = st.one_of(
    st.tuples(st.sampled_from(REPLAY_ACCOUNTS + REPLAY_RECIPIENTS), REPLAY_VALUE),
    st.tuples(st.just(FEES_KEY), st.one_of(st.just(b""), REPLAY_VALUE)),
)


@settings(max_examples=20)
@given(st.lists(st.lists(REPLAY_WRITE, min_size=10, max_size=10), min_size=1, max_size=5))
def test_replay_shaped_periods_match_eager_oracle(periods):
    lazy, eager = StateTree(), EagerTree()
    for key in REPLAY_ACCOUNTS:
        lazy.update(key, b"genesis")
        eager.update(key, b"genesis")
    assert lazy.root() == eager.root()
    for period in periods:
        for key, value in period:
            lazy.update(key, value)
            eager.update(key, value)
        assert lazy.root() == eager.root()
        for key in REPLAY_KEYS:
            assert lazy.prove(key).siblings == eager.prove(key).siblings
        _assert_same_nodes(lazy, eager)


# --- the run climb at its edges -----------------------------------------------------


@pytest.mark.parametrize("length", [1, 2, DEPTH, DEPTH + 1])
def test_runs_match_eager_oracle_at_length_edges(length):
    """Runs of one digest (two keys that part at the leaves), of two, of 256
    (keys that part at the root) and of 257 (a lone key), written, rewritten
    (no key changes presence) and deleted down to one key."""
    lone, beside = _lone_pair(min(length, DEPTH))
    keys = [lone] if length == DEPTH + 1 else [lone, beside]
    tree, eager = StateTree(), EagerTree()
    for step in (b"first", b"second", b""):
        for key in keys:
            for dest in (tree, eager):
                dest.update(key, step or (b"kept" if key == lone else b""))
        assert tree.root() == eager.root()
        _assert_same_nodes(tree, eager)
        if step:
            assert _run_lengths(tree) == {int.from_bytes(key, "big"): length for key in keys}
    assert _run_lengths(tree) == {int.from_bytes(lone, "big"): DEPTH + 1}


def test_run_climb_handed_to_a_smaller_deleted_key():
    """A rewritten key climbs only to where it meets a smaller key deleted
    in the same flush (top < length); that key's climb hashes the rest, and
    the run takes those nodes up to where it meets the next key."""
    smaller, key = sorted(_lone_pair(12))
    far = (int.from_bytes(key, "big") ^ 1 << 199).to_bytes(32, "big")
    tree, eager = StateTree(), EagerTree()
    for dest in (tree, eager):
        for other in (smaller, key, far):
            dest.update(other, b"v")
    tree.root()
    assert _run_lengths(tree)[int.from_bytes(key, "big")] == 12
    for dest in (tree, eager):
        dest.update(smaller, b"")
        dest.update(key, b"rewritten")
    _assert_flush_work(tree, {smaller, key, far})
    assert tree.root() == eager.root()
    assert _run_lengths(tree)[int.from_bytes(key, "big")] == 200
    _assert_same_nodes(tree, eager)


def test_replay_block_hash_count_and_root_are_pinned():
    """One full-tree replay of a fixed 600-transfer, 64-account block. The
    flush rule fixes which nodes are hashed, so these change only with that
    rule or the block: 279,669 is what the per-level climb, which the run
    comprehension replaced, counted on this block, with the same root."""
    tree, keys = funded_state(64)
    txs = transfer_chain(keys, 600, random.Random(600))
    tree.root()
    before = hash_invocations()
    traces, root = _replay_block(tree, txs, 10, DEFAULT_PRODUCER)
    assert hash_invocations() - before == 279_669
    assert len(traces) == 60
    assert root.hex() == "e41df8ac1b7404fa3c13af4abcc196bf379b3d9929add1d994e647556e79f481"
