"""Sparse Merkle tree committing to a map from 32-byte keys to byte values.

The tree has a fixed depth of 256. Absent keys hold the default value
(the empty byte string) whose leaf digest is 32 zero bytes; a populated
leaf stores hash(0x00 || key || value). Internal nodes reuse the 0x01
node hash from the merkle module, so the empty-tree root is the 256-fold
default chain over the zero leaf digest.

One path rule: read the key as a big-endian integer; bit i of it (bit 0
least significant) picks the side at height i (leaves at height 0), so a
1 makes the path node the right child there. StateTree's flush, verify
and witness seeding all fold the path by this rule.

Only non-default nodes are stored, and the root is lazy: an update marks
its key's path dirty, and the next root, prove or copy rehashes each
dirty node once. The flush rule: dirty keys go from the largest down, and
each climbs alone from its leaf to just below the height where its path
meets the next smaller dirty key's; the smallest climbs to the root. The
other child of every node a key hashes is then either clean or already
finished by a larger key, and each dirty node is hashed exactly once, by
the smallest key beneath it. d updates cost at most 257·d hashes whatever
the population, fewer where paths share nodes. A witness subtree is the
same StateTree holding only the nodes its proofs reveal.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .merkle import DIGEST_SIZE, Reader, node_hash

DEPTH = 256
KEY_SIZE = 32
DEFAULT_VALUE = b""
DEFAULT_LEAF = b"\x00" * DIGEST_SIZE

_hash_invocations = 0


def hash_invocations() -> int:
    """Total leaf/node hash computations performed by this module."""
    return _hash_invocations


# Domain prefixes: a leaf hashes 0x00 || key || value; internal nodes use
# merkle.node_hash's 0x01 || left || right, spelled out in the hot loops.
_LEAF = b"\x00"
_NODE = b"\x01"


def _build_empty_chain() -> tuple[bytes, ...]:
    chain = [DEFAULT_LEAF]
    for _ in range(DEPTH):
        chain.append(node_hash(chain[-1], chain[-1]))
    return tuple(chain)


# EMPTY_SUBTREE[h] is the digest of an all-default subtree of height h;
# EMPTY_SUBTREE[DEPTH] is the root of an empty tree.
EMPTY_SUBTREE = _build_empty_chain()


def _check_key(key: bytes) -> None:
    if not isinstance(key, (bytes, bytearray)) or len(key) != KEY_SIZE:
        raise ValueError("key must be exactly 32 bytes")


@dataclass(frozen=True)
class SparseProof:
    """Membership (or non-membership, when value is empty) proof.

    siblings holds all 256 sibling digests bottom-up (leaf level first).
    The wire format compresses default siblings behind a 256-bit bitmap.
    """

    key: bytes
    value: bytes
    siblings: tuple[bytes, ...]

    def to_bytes(self) -> bytes:
        bitmap = bytearray(32)
        included: list[bytes] = []
        for i, sib in enumerate(self.siblings):
            if sib != EMPTY_SUBTREE[i]:
                bitmap[i // 8] |= 1 << (7 - i % 8)
                included.append(sib)
        return bytes(bitmap) + b"".join(included)

    @classmethod
    def read(cls, reader: Reader, key: bytes, value: bytes) -> "SparseProof":
        bitmap = reader.uint(32)
        blob = reader.take(bitmap.bit_count() * DIGEST_SIZE)
        included = (blob[j : j + DIGEST_SIZE] for j in range(0, len(blob), DIGEST_SIZE))
        siblings = tuple(
            next(included) if bitmap >> (DEPTH - 1 - i) & 1 else EMPTY_SUBTREE[i]
            for i in range(DEPTH)
        )
        return cls(key, value, siblings)


class StateTree:
    """Mutable key-value map with a lazily rehashed root.

    Non-default internal nodes are kept in a dict keyed by (level, prefix),
    where level counts bits consumed from the root (leaves at level 256)
    and prefix is the integer value of those bits; keys written since the
    last flush wait in _dirty.
    """

    def __init__(self) -> None:
        self._values: dict[bytes, bytes] = {}
        self._nodes: dict[tuple[int, int], bytes] = {}
        self._dirty: set[bytes] = set()

    def copy(self) -> "StateTree":
        self._flush()
        dup = StateTree()
        dup._values = self._values.copy()
        dup._nodes = self._nodes.copy()
        return dup

    def root(self) -> bytes:
        self._flush()
        return self._nodes.get((0, 0), EMPTY_SUBTREE[DEPTH])

    def get(self, key: bytes) -> bytes:
        _check_key(key)
        return self._values.get(bytes(key), DEFAULT_VALUE)

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        return iter(sorted(self._values.items()))

    def __len__(self) -> int:
        return len(self._values)

    def update(self, key: bytes, value: bytes) -> None:
        """Set key to value (empty value deletes) and mark its path dirty."""
        _check_key(key)
        key = bytes(key)
        if value == DEFAULT_VALUE:
            self._values.pop(key, None)
        else:
            self._values[key] = bytes(value)
        self._dirty.add(key)

    def _flush(self) -> None:
        """Rehash every node on a dirty path once, by the module's flush rule."""
        if not self._dirty:
            return
        global _hash_invocations
        nodes, values, empty = self._nodes, self._values, EMPTY_SUBTREE
        get, pop, sha = nodes.get, nodes.pop, hashlib.sha256
        keys = sorted(self._dirty, reverse=True)
        self._dirty.clear()
        paths = [int.from_bytes(key, "big") for key in keys] + [None]
        hashes = 0
        for key, path, smaller in zip(keys, paths, paths[1:]):
            top = DEPTH + 1 if smaller is None else (path ^ smaller).bit_length()
            value = values.get(key, DEFAULT_VALUE)
            if value == DEFAULT_VALUE:
                node = DEFAULT_LEAF
                pop((DEPTH, path), None)
            else:
                node = sha(_LEAF + key + value).digest()
                nodes[DEPTH, path] = node
                hashes += 1
            level = DEPTH
            for height in range(1, top):
                sibling = get((level, path ^ 1), empty[height - 1])
                if path & 1:
                    node = sha(_NODE + sibling + node).digest()
                else:
                    node = sha(_NODE + node + sibling).digest()
                path >>= 1
                level -= 1
                if node == empty[height]:
                    pop((level, path), None)
                else:
                    nodes[level, path] = node
            hashes += top - 1
        _hash_invocations += hashes

    def prove(self, key: bytes) -> SparseProof:
        """Proof for key's current value (the default value if absent)."""
        _check_key(key)
        key = bytes(key)
        self._flush()
        path = int.from_bytes(key, "big")
        get = self._nodes.get
        siblings = tuple(
            get((DEPTH - height, (path >> height) ^ 1), EMPTY_SUBTREE[height])
            for height in range(DEPTH)
        )
        return SparseProof(key, self.get(key), siblings)


def _path_digests(key: bytes, value: bytes, proof: SparseProof) -> Optional[list[bytes]]:
    """Digests on key's path, leaf (height 0) to root (height 256), folded
    from proof's siblings; None if the proof does not fit key and value."""
    try:
        _check_key(key)
    except ValueError:
        return None
    key = bytes(key)
    if proof.key != key or proof.value != value:
        return None
    if len(proof.siblings) != DEPTH:
        return None
    if any(len(sib) != DIGEST_SIZE for sib in proof.siblings):
        return None
    global _hash_invocations
    sha = hashlib.sha256
    path = int.from_bytes(key, "big")
    if value == DEFAULT_VALUE:
        node = DEFAULT_LEAF
        _hash_invocations += DEPTH
    else:
        node = sha(_LEAF + key + value).digest()
        _hash_invocations += DEPTH + 1
    digests = [node]
    for sibling in proof.siblings:
        if path & 1:
            node = sha(_NODE + sibling + node).digest()
        else:
            node = sha(_NODE + node + sibling).digest()
        path >>= 1
        digests.append(node)
    return digests


def verify(key: bytes, value: bytes, proof: SparseProof, root_digest: bytes) -> bool:
    """True iff proof shows that key maps to value under root_digest."""
    digests = _path_digests(key, value, proof)
    return digests is not None and digests[-1] == root_digest


class WitnessError(Exception):
    """A witness is malformed: a proof fails, entries conflict, or a key
    required by the replayed operation is not covered."""


class WitnessSubtree(StateTree):
    """A StateTree that holds only the paths of verified membership proofs.

    Every node on a covered key's path, and every sibling of one, is
    seeded from the proofs, so the flush rehashes the dirty paths exactly
    as on the full tree; reading or writing an uncovered key is an error.
    """

    def __init__(self, root_digest: bytes) -> None:
        super().__init__()
        self._covered: set[bytes] = set()
        if root_digest != EMPTY_SUBTREE[DEPTH]:
            self._nodes[0, 0] = root_digest

    @classmethod
    def from_entries(
        cls, root_digest: bytes, entries: Iterable[tuple[bytes, bytes, SparseProof]]
    ) -> "WitnessSubtree":
        sub = cls(root_digest)
        known: dict[tuple[int, int], bytes] = {}
        for key, value, proof in entries:
            if key in sub._covered:
                raise WitnessError("duplicate witness key")
            digests = _path_digests(key, value, proof)
            if digests is None or digests[-1] != root_digest:
                raise WitnessError("witness proof does not verify")
            key = bytes(key)
            sub._covered.add(key)
            if value != DEFAULT_VALUE:
                sub._values[key] = bytes(value)
            path = int.from_bytes(key, "big")
            for i, sibling in enumerate(proof.siblings):
                level = DEPTH - i
                for prefix, digest in ((path >> i, digests[i]), ((path >> i) ^ 1, sibling)):
                    if known.setdefault((level, prefix), digest) != digest:
                        raise WitnessError("witness entries are inconsistent")
        sub._nodes.update(
            (at, digest) for at, digest in known.items() if digest != EMPTY_SUBTREE[DEPTH - at[0]]
        )
        return sub

    @property
    def covered(self) -> set[bytes]:
        return set(self._covered)

    def _check_covered(self, key: bytes) -> None:
        if key not in self._covered:
            raise WitnessError("key not covered by witness")

    def get(self, key: bytes) -> bytes:
        self._check_covered(key)
        return super().get(key)

    def update(self, key: bytes, value: bytes) -> None:
        self._check_covered(key)
        super().update(key, value)

    # named here too, so the subtree's root can be traced apart from StateTree's
    root = StateTree.root
