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

Every wire record in the package (Merkle, share and sparse proofs, block
headers, fraud proofs) is read through one Reader: each field is a
bounds-checked take, and whole() rejects bytes left after the record. A
short or over-long record therefore raises ValueError in this one place,
and decoders never slice their input themselves.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

DIGEST_SIZE = 32

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"

_T = TypeVar("_T")


def hash_bytes(data: bytes) -> bytes:
    """Plain SHA-256, used for block hashes and key derivation."""
    return hashlib.sha256(data).digest()


def leaf_hash(data: bytes) -> bytes:
    return hashlib.sha256(_LEAF_PREFIX + data).digest()


def node_hash(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(_NODE_PREFIX + left + right).digest()


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


class MerkleTree:
    """A tree built once: its levels, leaf digests first, root level last."""

    def __init__(self, leaves: Sequence[bytes]) -> None:
        if not leaves:
            raise ValueError("empty tree")
        level = [leaf_hash(leaf) for leaf in leaves]
        self.levels = [level]
        while len(level) > 1:
            paired = [node_hash(level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)]
            level = paired + level[len(paired) * 2 :]
            self.levels.append(level)

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
    if tree_size < 1 or not 0 <= index < tree_size:
        return False
    if proof.tree_size != tree_size or proof.leaf_index != index:
        return False
    if any(len(sib) != DIGEST_SIZE for sib in proof.siblings):
        return False
    siblings = iter(proof.siblings)
    node = leaf_hash(element)
    while tree_size > 1:
        if index ^ 1 < tree_size:
            sib = next(siblings, None)
            if sib is None:
                return False
            node = node_hash(sib, node) if index & 1 else node_hash(node, sib)
        index >>= 1
        tree_size = (tree_size + 1) >> 1
    return next(siblings, None) is None and node == root_digest
