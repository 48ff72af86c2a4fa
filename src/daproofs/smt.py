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

A present key's run is the part of its path that holds no other key:
its leaf digest, then the node digests up to height L - 1, where L is the
lowest height at which its path meets another present key (L = 257 for a
lone key, whose run ends at the root). Each run is kept as one bytes value
of 32·L bytes; the node dict keeps only the nodes with two or more keys
below them and the top node of each run. Empty nodes are never stored.
That is every non-empty sibling a proof reads: a present key's siblings
below its run top are empty, and a non-empty sibling from there up holds
either two or more keys or exactly one, whose run tops out there because
its path meets this one a level higher. An absent key's proof reads one
sibling inside a run at most, where its path first meets a present key,
and slices it from that run.

The root is lazy: an update marks its key's path dirty, and the next
root, prove or copy rehashes each dirty node once. The flush rule: dirty
keys go from the largest down, and each climbs alone from its leaf to
just below the height where its path meets the next smaller dirty key's;
the smallest climbs to the root. The other child of every node a key
hashes is then either clean or already finished by a larger key, and each
dirty node is hashed exactly once, by the smallest key beneath it. Within
its run a key's siblings are known to be empty, so that part of the climb
reads and stores no node and ends in one join. A new key that meets a run
below its top splits it: the new top is a slice of the run, so nothing is
rehashed. Deleting a key's nearest neighbour extends its run with the
nodes it now holds alone, which the deleted key's climb has just hashed. A
key absent both now and at the last flush changes no node and is not
climbed. d updates cost at most 257·d hashes whatever the population,
fewer where paths share nodes. A flush in which no key changes presence
keeps every run's length, so it looks up no neighbour.

Cost: each level of a climb is one SHA-256 call, on a copy of a hasher
already fed 0x01, in one comprehension over the key's bits read once from
format(path, "0256b"). In a run the sibling is EMPTY_SUBTREE[h] and the
level costs nothing more; above a run, and throughout a witness subtree,
the climb also reads each sibling from the node dict and stores each node.

A witness subtree is the same StateTree holding only the nodes its proofs
reveal. It cannot tell where an unproven key's path meets its own, so it
keeps no runs: every node stays in the dict, as do its copies'.
"""

from __future__ import annotations

import copy
import hashlib
from bisect import bisect_left, insort
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
_sha = hashlib.sha256


def _build_empty_chain() -> tuple[bytes, ...]:
    chain = [DEFAULT_LEAF]
    for _ in range(DEPTH):
        chain.append(node_hash(chain[-1], chain[-1]))
    return tuple(chain)


# EMPTY_SUBTREE[h] is the digest of an all-default subtree of height h;
# EMPTY_SUBTREE[DEPTH] is the root of an empty tree.
EMPTY_SUBTREE = _build_empty_chain()
# A hasher fed 0x01: a copy of it skips a new hasher's set-up, a large share
# of a 65-byte hash's cost. update returns None, so "h.update(data) or
# h.digest()" is the digest.
_NODE_HASHER = _sha(_NODE)


def _fold(node: bytes, siblings: Iterable[bytes], sides: str) -> list[bytes]:
    """The digests above node on its path, bottom-up, one per sibling and
    side: "1" where the path node is the right child (the path's bits from
    height 0, format(path, "0256b")[::-1])."""
    return [
        node := (h := _NODE_HASHER.copy()).update(sib + node if side == "1" else node + sib)
        or h.digest()
        for sib, side in zip(siblings, sides)
    ]


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

    Nodes are addressed by (level, prefix), where level counts bits
    consumed from the root (leaves at level 256) and prefix is the integer
    value of those bits. _nodes holds the nodes with two or more keys below
    them and the top node of every run; _runs maps each present key's path
    (as an integer) to its run, and _paths lists those paths in order. Keys
    written since the last flush wait in _dirty.
    """

    def __init__(self) -> None:
        self._values: dict[bytes, bytes] = {}
        self._nodes: dict[tuple[int, int], bytes] = {}
        self._runs: dict[int, bytes] = {}
        # None keeps no runs, so every node stays in _nodes (witness subtrees)
        self._paths: Optional[list[int]] = []
        self._dirty: set[bytes] = set()

    def copy(self) -> "StateTree":
        """A tree of the same class (a witness subtree keeps its coverage)
        whose writes leave this tree as it is."""
        self._flush()
        dup = copy.copy(self)
        dup._values = self._values.copy()
        dup._nodes = self._nodes.copy()
        dup._runs = self._runs.copy()
        dup._paths = None if self._paths is None else self._paths.copy()
        dup._dirty = set()
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

    def _neighbours(self, path: int) -> list[int]:
        """The present paths just below and just above path, path itself excluded."""
        paths = self._paths
        assert paths is not None
        i = bisect_left(paths, path)
        j = i + 1 if i < len(paths) and paths[i] == path else i
        return paths[max(i - 1, 0) : i] + paths[j : j + 1]

    def _meeting(self, path: int) -> tuple[int, Optional[int]]:
        """Lowest height at which path meets another present key, and that
        key's path; (DEPTH + 1, None) when no other key is present. For a
        present key this height is its run length."""
        return min(
            (((path ^ other).bit_length(), other) for other in self._neighbours(path)),
            default=(DEPTH + 1, None),
        )

    def _restructure(
        self, keys: list[bytes]
    ) -> tuple[list[tuple[bytes, int, int]], list[tuple[int, int, int]]]:
        """Bring _paths to the dirty keys' new presence and split each clean
        run that a new key meets. Return the dirty keys to climb, in order,
        with their paths and new run lengths (0 if absent or if no runs are
        kept), and for every run the flush must then extend or clear above,
        its path, new length and the height where that path met the tree
        before (a present key's old length). A key absent both now and at
        the last flush changes no node, so it is not climbed."""
        values, nodes, runs, order = self._values, self._nodes, self._runs, self._paths
        paths = [int.from_bytes(key, "big") for key in keys]
        if order is None:
            return [
                (key, path, 0)
                for key, path in zip(keys, paths)
                if key in values or (DEPTH, path) in nodes
            ], []
        if all((key in values) == (path in runs) for key, path in zip(keys, paths)):
            # no key changes presence, so every run keeps its length
            kept = [(key, path) for key, path in zip(keys, paths) if path in runs]
            return [(key, path, len(runs[path]) // DIGEST_SIZE) for key, path in kept], []
        # the height where each path met the tree before: no node below it was stored
        olds = [self._meeting(path)[0] for path in paths]
        changed = set()
        for key, path in zip(keys, paths):
            if (key in values) != (path in runs):
                changed.add(path)
                if key in values:
                    insort(order, path)
                else:
                    del order[bisect_left(order, path)], runs[path]
        climbs, settle = [], []
        for key, path, old in zip(keys, paths, olds):
            if key in values:
                length = self._meeting(path)[0]
                climbs.append((key, path, length))
                settle.append((path, length, old))
            elif path in changed:
                climbs.append((key, path, 0))
        for path in {near for path in changed for near in self._neighbours(path)} - set(paths):
            length, run = self._meeting(path)[0], runs[path]
            old = len(run) // DIGEST_SIZE
            if length < old:
                # split: the new top is a slice of the run, so nothing is rehashed
                runs[path] = run = run[: length * DIGEST_SIZE]
                nodes[DEPTH + 1 - length, path >> (length - 1)] = run[-DIGEST_SIZE:]
            elif length > old:
                settle.append((path, length, old))
        return climbs, settle

    def _flush(self) -> None:
        """Rehash every node on a dirty path once, by the module's flush rule."""
        if not self._dirty:
            return
        global _hash_invocations
        nodes, values, runs, empty = self._nodes, self._values, self._runs, EMPTY_SUBTREE
        get, pop = nodes.get, nodes.pop
        climbs, settle = self._restructure(sorted(self._dirty, reverse=True))
        self._dirty.clear()
        hashes = 0
        for (key, path, length), smaller in zip(climbs, [c[1] for c in climbs[1:]] + [None]):
            top = DEPTH + 1 if smaller is None else (path ^ smaller).bit_length()
            value = values.get(key, DEFAULT_VALUE)
            if value == DEFAULT_VALUE:
                node = DEFAULT_LEAF
                pop((DEPTH, path), None)
            else:
                node = _sha(_LEAF + key + value).digest()
                hashes += 1
            sides, start = format(path, "0256b")[::-1], 1
            if length:
                # the run: every sibling is empty, so no node is read or
                # stored below its top (or below the height where the flush
                # rule hands the climb to a smaller key)
                start = min(length, top)
                runs[path] = run = node + b"".join(_fold(node, empty, sides[: start - 1]))
                node = run[-DIGEST_SIZE:]
                nodes[DEPTH + 1 - start, path >> start - 1] = node
            elif value != DEFAULT_VALUE:
                nodes[DEPTH, path] = node
            heights = range(start, top)
            siblings = [
                get((DEPTH + 1 - height, (path >> height - 1) ^ 1), empty[height - 1])
                for height in heights
            ]
            for height, node in zip(heights, _fold(node, siblings, sides[start - 1 :])):
                if node == empty[height]:
                    pop((DEPTH - height, path >> height), None)
                else:
                    nodes[DEPTH - height, path >> height] = node
            hashes += top - 1
        _hash_invocations += hashes
        for path, length, old in settle:
            # a run whose climb stopped short takes the nodes that a deleted
            # key's climb stored above it; then no node below its top stays
            # stored, neither these nor any from before the flush
            run = runs[path]
            have = len(run) // DIGEST_SIZE
            if have < length:
                runs[path] = run + b"".join(
                    [nodes[DEPTH - height, path >> height] for height in range(have, length)]
                )
            for height in range(min(old, have) - 1, length - 1):
                pop((DEPTH - height, path >> height), None)

    def prove(self, key: bytes) -> SparseProof:
        """Proof for key's current value (the default value if absent)."""
        _check_key(key)
        key = bytes(key)
        self._flush()
        path = int.from_bytes(key, "big")
        get = self._nodes.get
        siblings = [
            get((DEPTH - height, (path >> height) ^ 1), EMPTY_SUBTREE[height])
            for height in range(DEPTH)
        ]
        if self._paths and key not in self._values:
            # where an absent key's path meets the tree, its sibling may lie
            # inside a lone key's run
            height, other = self._meeting(path)
            height -= 1
            if other is not None and (DEPTH - height, (path >> height) ^ 1) not in self._nodes:
                run = self._runs[other]
                siblings[height] = run[height * DIGEST_SIZE : (height + 1) * DIGEST_SIZE]
        return SparseProof(key, self.get(key), tuple(siblings))


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
    if value == DEFAULT_VALUE:
        node = DEFAULT_LEAF
        _hash_invocations += DEPTH
    else:
        node = _sha(_LEAF + key + value).digest()
        _hash_invocations += DEPTH + 1
    sides = format(int.from_bytes(key, "big"), "0256b")[::-1]
    return [node, *_fold(node, proof.siblings, sides)]


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
        self._paths = None
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
