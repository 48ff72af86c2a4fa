"""Index-binding Merkle trees over arbitrary leaf counts (RFC 6962 section 2.1.1).

Leaves are hashed with a 0x00 domain prefix and internal nodes with 0x01,
so a leaf can never be confused with the serialization of two child
digests.

Tree shape, the one rule that roots, proofs and the verifier share: each
level pairs nodes (2i, 2i+1), and an unpaired last node moves up a level
unhashed, so a left subtree always holds the largest power of two strictly
below its parent's leaf count. At size n, index i has a sibling iff
i ^ 1 < n, and the next level up has index i >> 1 and size (n + 1) >> 1.
Proofs carry the leaf index and tree size, so a proof for index i never
verifies for any other index.

Batch rule: verify_merkle_proofs folds many proofs against one root
through one HashMemo, a cache keyed by the exact hash input (the leaf
bytes, or the (left, right) digest pair). Each distinct input is hashed
once per check and identical items are folded once, yet every fold
computes the same digests as it would alone, so a batch accepts exactly
the items that verify_merkle_proof accepts one by one, with no appeal to
collision resistance. verify_merkle_proof is the one-item batch.

Every wire record in the package (Merkle, share and sparse proofs, block
headers, fraud proofs) is read through one Reader: each field is a
bounds-checked take, and whole() rejects bytes left after the record. A
short or over-long record therefore raises ValueError in this one place,
and decoders never slice their input themselves.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, TypeVar

DIGEST_SIZE = 32

# hashers already fed the leaf and node prefixes: leaf_hash and node_hash
# copy one per hash
_LEAF_HASHER = hashlib.sha256(b"\x00")
_NODE_HASHER = hashlib.sha256(b"\x01")

_T = TypeVar("_T")


def hash_bytes(data: bytes) -> bytes:
    """Plain SHA-256, used for block hashes and key derivation."""
    return hashlib.sha256(data).digest()


def leaf_hash(data: bytes) -> bytes:
    hasher = _LEAF_HASHER.copy()
    hasher.update(data)
    return hasher.digest()


def node_hash(left: bytes, right: bytes) -> bytes:
    hasher = _NODE_HASHER.copy()
    hasher.update(left)
    hasher.update(right)
    return hasher.digest()


class Reader:
    """A cursor over one wire record; reading past its end raises ValueError."""

    def __init__(self, data: bytes) -> None:
        self._data = bytes(data)
        self._pos = 0

    def take(self, n: int) -> bytes:
        end = self._pos + n
        if end > len(self._data):
            raise ValueError(f"truncated record: {n} bytes needed at offset {self._pos}")
        out = self._data[self._pos : end]
        self._pos = end
        return out

    def uint(self, n: int) -> int:
        """An n-byte big-endian unsigned integer."""
        return int.from_bytes(self.take(n), "big")

    def at_end(self) -> bool:
        return self._pos == len(self._data)

    def whole(self, read: Callable[["Reader"], _T]) -> _T:
        """read(self), which must consume every remaining byte."""
        value = read(self)
        if not self.at_end():
            raise ValueError(f"trailing bytes after record at offset {self._pos}")
        return value


@dataclass(frozen=True)
class MerkleProof:
    """Membership-and-position proof: sibling digests in leaf-to-root order."""

    siblings: tuple[bytes, ...]
    leaf_index: int
    tree_size: int

    def to_bytes(self) -> bytes:
        out = [
            self.tree_size.to_bytes(8, "big"),
            self.leaf_index.to_bytes(8, "big"),
            len(self.siblings).to_bytes(2, "big"),
        ]
        out.extend(self.siblings)
        return b"".join(out)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "MerkleProof":
        return Reader(raw).whole(cls.read)

    @classmethod
    def read(cls, reader: Reader) -> "MerkleProof":
        tree_size = reader.uint(8)
        leaf_index = reader.uint(8)
        count = reader.uint(2)
        blob = reader.take(count * DIGEST_SIZE)
        siblings = tuple(blob[i : i + DIGEST_SIZE] for i in range(0, len(blob), DIGEST_SIZE))
        return cls(siblings, leaf_index, tree_size)


class HashMemo:
    """leaf_hash and node_hash with each distinct input hashed once.

    A pure cache of the two functions, keyed by their whole input, so a
    tree or fold computed through it has the digests it has without it.
    """

    def __init__(self) -> None:
        self.leaves: dict[bytes, bytes] = {}
        self.nodes: dict[tuple[bytes, bytes], bytes] = {}

    def leaf(self, data: bytes) -> bytes:
        digest = self.leaves.get(data)
        if digest is None:
            digest = self.leaves[data] = leaf_hash(data)
        return digest

    def node(self, left: bytes, right: bytes) -> bytes:
        digest = self.nodes.get((left, right))
        if digest is None:
            digest = self.nodes[left, right] = node_hash(left, right)
        return digest


class MerkleTree:
    """A tree built once: its levels, leaf digests first, root level last."""

    def __init__(self, leaves: Sequence[bytes]) -> None:
        self.levels = _levels([leaf_hash(leaf) for leaf in leaves], node_hash)

    @classmethod
    def from_digests(
        cls, digests: Sequence[bytes], memo: Optional[HashMemo] = None
    ) -> "MerkleTree":
        """The tree whose leaf digests are given, its nodes hashed through
        memo when one is given."""
        tree = cls.__new__(cls)
        tree.levels = _levels(list(digests), memo.node if memo is not None else node_hash)
        return tree

    @property
    def root(self) -> bytes:
        return self.levels[-1][0]

    def prove(self, index: int) -> MerkleProof:
        """Proof that leaf index is at position index under root."""
        n = len(self.levels[0])
        if not 0 <= index < n:
            raise IndexError("leaf index out of range")
        siblings = []
        i = index
        for level in self.levels[:-1]:
            if i ^ 1 < len(level):
                siblings.append(level[i ^ 1])
            i >>= 1
        return MerkleProof(tuple(siblings), index, n)


def _levels(level: list[bytes], node: Callable[[bytes, bytes], bytes]) -> list[list[bytes]]:
    if not level:
        raise ValueError("empty tree")
    levels = [level]
    while len(level) > 1:
        paired = [node(level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)]
        level = paired + level[len(paired) * 2 :]
        levels.append(level)
    return levels


def root(leaves: Sequence[bytes]) -> bytes:
    """Merkle root of a non-empty leaf list."""
    return MerkleTree(leaves).root


def prove(leaves: Sequence[bytes], index: int) -> MerkleProof:
    """Proof that leaves[index] is at position index under root(leaves)."""
    return MerkleTree(leaves).prove(index)


def verify_merkle_proof(
    element: bytes,
    proof: MerkleProof,
    root_digest: bytes,
    tree_size: int,
    index: int,
) -> bool:
    """True iff the proof binds element to position index in a tree of
    tree_size leaves committed by root_digest. Malformed input yields False,
    never an exception."""
    return verify_merkle_proofs(((element, proof, index),), root_digest, tree_size)


def verify_merkle_proofs(
    items: Sequence[tuple[bytes, MerkleProof, int]],
    root_digest: bytes,
    tree_size: int,
    memo: Optional[HashMemo] = None,
) -> bool:
    """True iff every (element, proof, index) item passes verify_merkle_proof
    against root_digest and tree_size; vacuously True for no items.

    The folds share memo (a fresh one by default), and an item identical
    to an earlier one is not folded again; see the module docstring. One
    item with no memo given has nothing to share, so it is folded with
    plain hashes, and no memo or dedupe set is kept.
    """
    if memo is None and len(items) > 1:
        memo = HashMemo()
    shared = memo is not None
    leaf = memo.leaf if shared else leaf_hash
    nodes = memo.nodes if shared else {}
    seen = set()
    for element, proof, index in items:
        if not 0 <= index < tree_size:
            return False
        if proof.tree_size != tree_size or proof.leaf_index != index:
            return False
        siblings = proof.siblings
        if shared:
            # with the checks above passed, this is the whole item
            key = (element, siblings, index)
            if key in seen:
                continue
            seen.add(key)
        node = leaf(element)
        used = 0
        n = tree_size
        while n > 1:
            if index ^ 1 < n:
                if used == len(siblings) or len(siblings[used]) != DIGEST_SIZE:
                    return False
                pair = (siblings[used], node) if index & 1 else (node, siblings[used])
                used += 1
                # memo.node(*pair), spelled out in the hot loop
                parent = nodes.get(pair)
                if parent is None:
                    parent = node_hash(*pair)
                    if shared:
                        nodes[pair] = parent
                node = parent
            index >>= 1
            n = (n + 1) >> 1
        if used != len(siblings) or node != root_digest:
            return False
    return True
