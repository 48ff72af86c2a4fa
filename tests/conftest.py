import random
from collections import Counter

import pytest
from hypothesis import Phase, settings

from daproofs import merkle, rs2d
from daproofs.block import DEFAULT_PRODUCER, BlockHeader, BuiltBlock, serialize_shares
from daproofs.merkle import hash_bytes
from daproofs.smt import StateTree
from daproofs.state import AccountValue, Transaction

# One profile for every property test: no per-example deadline, because a
# single example (a k=64 decode, a 40-leaf tree) can exceed Hypothesis's
# 200 ms default on a loaded 2-CPU machine; and no explain phase, which only
# reports on a failing example by tracing every line of every rerun, and on
# a failing sparse-Merkle differential grew past 2 GB. Tests still set
# max_examples.
settings.register_profile(
    "tier1", deadline=None, phases=[phase for phase in Phase if phase is not Phase.explain]
)
settings.load_profile("tier1")


def account_key(tag) -> bytes:
    return hash_bytes(f"account:{tag}".encode())


def funded_state(count: int = 6, balance: int = 10_000) -> tuple[StateTree, list[bytes]]:
    tree = StateTree()
    keys = [account_key(i) for i in range(count)]
    for key in keys:
        tree.update(key, AccountValue(balance, 0).encode())
    return tree, keys


def transfer_chain(keys, count, rng: random.Random, max_amount: int = 40) -> list[Transaction]:
    """Transfers that stay legal when applied in order from a funded state."""
    nonces = {key: 0 for key in keys}
    txs = []
    for _ in range(count):
        sender = rng.choice(keys)
        recipient = rng.choice(keys)
        txs.append(
            Transaction(
                sender=sender,
                recipient=recipient,
                amount=rng.randrange(1, max_amount),
                fee=rng.randrange(0, 4),
                nonce=nonces[sender],
            )
        )
        nonces[sender] += 1
    return txs


def framed_block(prev, messages, k, share_size, p) -> BuiltBlock:
    """A block whose data is exactly these transfers and traces, committed
    as build_block commits, for layouts and traces build_block refuses."""
    shares = serialize_shares(messages, share_size)
    shares += [bytes(share_size)] * (k * k - len(shares))
    matrix = rs2d.extend_shares(shares, k, share_size)
    header = BlockHeader(
        prev_hash=prev.block_hash(),
        data_root=matrix.commitment.data_root,
        data_length=matrix.commitment.data_length,
        state_root=b"\x00" * 32,
        additional_data=DEFAULT_PRODUCER,
    )
    return BuiltBlock(header, matrix, p)


@pytest.fixture(scope="session")
def base_state():
    return funded_state()


@pytest.fixture
def merkle_hashes(monkeypatch):
    """Counters of every merkle.leaf_hash and merkle.node_hash input, taken
    at the two points the benchmark's tracer patches; clear them to start
    counting."""
    leaves: Counter = Counter()
    nodes: Counter = Counter()
    leaf_hash, node_hash = merkle.leaf_hash, merkle.node_hash

    def counted_leaf_hash(data: bytes) -> bytes:
        leaves[data] += 1
        return leaf_hash(data)

    def counted_node_hash(left: bytes, right: bytes) -> bytes:
        nodes[left, right] += 1
        return node_hash(left, right)

    monkeypatch.setattr(merkle, "leaf_hash", counted_leaf_hash)
    monkeypatch.setattr(merkle, "node_hash", counted_node_hash)
    return leaves, nodes
