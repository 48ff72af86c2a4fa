"""Two-dimensional erasure-coded share matrix with Merkle commitments.

A block of at most k*k shares is arranged into a k x k grid and extended
with the systematic Reed-Solomon codec in two batch calls (evaluate_axes):
the k original rows rightward, then all 2k columns of the top half
downward. By linearity the bottom-right quadrant this gives is the
rightward extension of the new bottom rows. Each of the 2k rows and 2k
columns gets its own Merkle root. The data root is the root of the
root-level tree over the row roots then the column roots; top_index gives
an axis root's leaf in it. Shares are opaque bytes here: block alone
frames data into them.

Indexing convention: everything is 0-based. The "virtual" data tree has
data_length = 2 * (2k)^2 leaf slots; slot r*w + c addresses the cell at
row r, column c through its row tree, and slot data_length/2 + c*w + r
addresses the same cell through its column tree (w = 2k). A share proof
against the data root is the pair (axis-tree path, root-tree path); the
root-tree leaf index for a virtual slot g is g // w.

Digest grids: a leaf digest is H(0x00 || share) with no index in it, so a
cell has the same leaf digest in its row tree and in its column tree. The
commitment and recover_matrix each hash every cell once into a local
w x w grid that both axes read; recovery reuses a grid digest only where
an axis decodes the very bytes the digest was computed from, and hashes a
decoded share that differs from the present cell afresh, without storing
it. Grids are not kept: prove_share rebuilds one axis tree at a time,
and prove_row proves all of a row's cells from one tree and one
root-tree proof.
Share proofs are checked in batches (verify_share_merkle_proofs) with
exactly the per-proof accept set. An ExtendedMatrix cannot be changed, so
its cached commitment and axis tree always match its cells: a changed
grid is a new matrix.

Pattern groups: recover_matrix decodes in passes (all rows, then all
columns, until nothing changes; then the complete-matrix check). The axes
of one pass are disjoint, so no decode in a pass reads another's fills.
Within a pass the axes are grouped by their chosen input positions, and
each group is decoded in evaluate_axes calls of at most CALL_SYMBOLS
symbols, pulled only when the first axis of a call is checked. A call's
symbol arrays never leave erasure: it hands back shares, and a decoded
share equal to its cell is the cell itself. The results are checked and
applied in j order, so the cells filled, the grid digests, filled_by and
the first fault are those of decoding axis by axis; a fault stops the
pass before any later call is made. A withheld k x k quadrant, for one,
leaves its k rows one group.

The 3k rule: 3k axes fix the rest. When every row and every column < k
decodes to exactly its cells, each column >= k is, by the row code's
linearity, a combination of codewords, hence a codeword itself, and its
decode would return its cells unchanged. recover_matrix therefore checks
such a column's root without decoding it, so checking a complete matrix
takes 3k decodes, not 4k, with the same verdicts, faults and hash counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from math import isqrt
from typing import Iterable, Iterator, Optional, Sequence

from . import merkle
# rs_encode stays only because perfbench/test_perfbench.py reads
# rs2d.rs_encode; it goes with ROADMAP item 1(b)
from .erasure import (
    MAX_K,
    Unrecoverable,
    erased,
    evaluate_axes,
    rs_encode,  # noqa: F401
)
from .merkle import MerkleProof

ROW = 0
COLUMN = 1


@dataclass(frozen=True)
class ExtendedMatrix:
    """Fully populated 2k x 2k share grid; cells is a tuple of row tuples."""

    k: int
    share_size: int
    cells: tuple[tuple[bytes, ...], ...]

    # the last axis tree proved from, as (axis, j, tree): callers prove axis
    # by axis; a cache, so left out of equality and of replace()
    _axis_tree: Optional[tuple[int, int, merkle.MerkleTree]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple(tuple(row) for row in self.cells))

    @property
    def width(self) -> int:
        return 2 * self.k

    @cached_property
    def commitment(self) -> "DataCommitment":
        """Every row and column root; each cell is leaf-hashed once, into a
        grid both of its axes read."""
        grid = [[merkle.leaf_hash(cell) for cell in row] for row in self.cells]
        return DataCommitment(
            tuple(_digest_root(row) for row in grid),
            tuple(_digest_root([row[c] for row in grid]) for c in range(self.width)),
        )

    def axis_tree(self, axis: int, j: int) -> merkle.MerkleTree:
        if self._axis_tree is None or self._axis_tree[:2] != (axis, j):
            tree = merkle.MerkleTree(_line(self.cells, axis, j))
            object.__setattr__(self, "_axis_tree", (axis, j, tree))
        return self._axis_tree[2]


@dataclass(frozen=True)
class DataCommitment:
    """Row and column roots, and the root-level tree over them (rows, then
    columns) whose root is the data root."""

    row_roots: tuple[bytes, ...]
    column_roots: tuple[bytes, ...]

    def __post_init__(self) -> None:
        if len(self.row_roots) != len(self.column_roots):
            raise ValueError("row and column root counts differ")
        if not self.row_roots:
            raise ValueError("empty commitment")

    @property
    def matrix_width(self) -> int:
        return len(self.row_roots)

    @property
    def data_length(self) -> int:
        return 2 * self.matrix_width ** 2

    @cached_property
    def tree(self) -> merkle.MerkleTree:
        return merkle.MerkleTree(list(self.row_roots) + list(self.column_roots))

    @property
    def data_root(self) -> bytes:
        return self.tree.root

    def axis_root(self, axis: int, j: int) -> bytes:
        return self.row_roots[j] if axis == ROW else self.column_roots[j]

    def prove_axis_root(self, axis: int, j: int) -> MerkleProof:
        return self.tree.prove(top_index(axis, j, self.matrix_width))

    def share_proof(self, axis: int, j: int, axis_proof: MerkleProof) -> ShareProof:
        """Extend a proof inside axis j's tree to a proof against the data root."""
        return ShareProof(self.axis_root(axis, j), axis_proof, self.prove_axis_root(axis, j))


def _digest_root(digests: list[bytes]) -> bytes:
    return merkle.MerkleTree.from_digests(digests).root


def top_index(axis: int, j: int, matrix_width: int) -> int:
    """Leaf index of axis j's root in the root-level tree."""
    return j if axis == ROW else matrix_width + j


@dataclass(frozen=True)
class ShareProof:
    """Two-stage proof binding a share to the data root.

    axis_proof places the share inside its row or column tree; root_proof
    places that tree's root inside the root-level tree.
    """

    axis_root: bytes
    axis_proof: MerkleProof
    root_proof: MerkleProof

    def to_bytes(self) -> bytes:
        return self.axis_root + self.axis_proof.to_bytes() + self.root_proof.to_bytes()

    @classmethod
    def read(cls, reader: merkle.Reader) -> "ShareProof":
        axis_root = reader.take(merkle.DIGEST_SIZE)
        return cls(axis_root, MerkleProof.read(reader), MerkleProof.read(reader))


def matrix_width_for(data_length: int) -> int:
    w = isqrt(data_length // 2)
    if 2 * w * w != data_length or w % 2:
        raise ValueError("data length is not 2*(2k)^2")
    return w


def extend_shares(shares: Sequence[bytes], k: int, share_size: int) -> ExtendedMatrix:
    """Extend up to k*k shares (zero-padded to a full grid) three ways."""
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k must be in 1..{MAX_K}")
    if share_size < 2 or share_size % 2:
        raise ValueError("share size must be even and at least 2")
    if len(shares) > k * k:
        raise ValueError("data too large for chosen k")
    for sh in shares:
        if len(sh) != share_size:
            raise ValueError("share has wrong size")
    padded = list(shares) + [b"\x00" * share_size] * (k * k - len(shares))
    top = [padded[r * k : (r + 1) * k] for r in range(k)]
    for row, parity in zip(top, chain.from_iterable(evaluate_axes(range(k), top, k))):
        row += parity
    columns = ([row[c] for row in top] for c in range(2 * k))
    parities = chain.from_iterable(evaluate_axes(range(k), columns, k))
    bottom = [list(row) for row in zip(*parities)]
    return ExtendedMatrix(k, share_size, top + bottom)


def commit(matrix: ExtendedMatrix) -> DataCommitment:
    """Commit to every row and column root; leaf order is rows then columns."""
    return matrix.commitment


def share_index(
    axis: int, j: int, pos: int, ax: int, matrix_width: int, data_length: int
) -> int:
    """Virtual data-tree index of the share at position pos along axis j.

    axis says whether j names a row or a column; ax picks which of the two
    proofs (row-tree or column-tree) the index must match.
    """
    if axis not in (ROW, COLUMN) or ax not in (ROW, COLUMN):
        raise ValueError("axis indicators must be 0 (row) or 1 (column)")
    if not 0 <= j < matrix_width or not 0 <= pos < matrix_width:
        raise ValueError("axis index or position out of range")
    if data_length != 2 * matrix_width ** 2:
        raise ValueError("data length inconsistent with matrix width")
    r, c = (j, pos) if axis == ROW else (pos, j)
    if ax == ROW:
        return r * matrix_width + c
    return data_length // 2 + c * matrix_width + r


def prove_share(matrix: ExtendedMatrix, x: int, y: int, origin: int) -> tuple[bytes, ShareProof]:
    """Share at row x, column y with a proof through its row or column tree."""
    w = matrix.width
    if not 0 <= x < w or not 0 <= y < w:
        raise IndexError("cell out of range")
    share = matrix.cells[x][y]
    if origin not in (ROW, COLUMN):
        raise ValueError("origin must be 0 (row) or 1 (column)")
    j, pos = (x, y) if origin == ROW else (y, x)
    return share, matrix.commitment.share_proof(origin, j, matrix.axis_tree(origin, j).prove(pos))


def prove_row(matrix: ExtendedMatrix, r: int) -> list[tuple[bytes, ShareProof]]:
    """What prove_share(matrix, r, c, ROW) returns for each c, in order:
    one row tree, and one root-tree proof that every cell's proof shares."""
    tree = matrix.axis_tree(ROW, r)
    commitment = matrix.commitment
    root, root_proof = commitment.axis_root(ROW, r), commitment.prove_axis_root(ROW, r)
    return [(share, ShareProof(root, tree.prove(c), root_proof)) for c, share in enumerate(matrix.cells[r])]


def verify_share_merkle_proof(
    share: bytes,
    proof: ShareProof,
    data_root: bytes,
    data_length: int,
    index: int,
) -> bool:
    """Verify a share against the data root at a virtual-tree index."""
    return verify_share_merkle_proofs(((share, proof, index),), data_root, data_length)


def verify_share_merkle_proofs(
    items: Sequence[tuple[bytes, ShareProof, int]],
    data_root: bytes,
    data_length: int,
    memo: Optional[merkle.HashMemo] = None,
) -> bool:
    """True iff every (share, proof, index) item passes
    verify_share_merkle_proof; vacuously True for no items.

    Every root-tree path is checked in one merkle batch, where the
    identical ones fold once, and the axis paths in one batch per axis
    root; all of them share memo (a fresh one by default, none for one
    item, which has nothing to share).
    """
    try:
        w = matrix_width_for(data_length)
    except ValueError:
        return not items  # no item can pass
    if memo is None and len(items) > 1:
        memo = merkle.HashMemo()
    tops = []
    axes: dict[bytes, list[tuple[bytes, MerkleProof, int]]] = {}
    for share, proof, index in items:
        top, pos = divmod(index, w)
        tops.append((proof.axis_root, proof.root_proof, top))
        axes.setdefault(proof.axis_root, []).append((share, proof.axis_proof, pos))
    return merkle.verify_merkle_proofs(tops, data_root, 2 * w, memo) and all(
        merkle.verify_merkle_proofs(group, axis_root, w, memo)
        for axis_root, group in axes.items()
    )


class PartialMatrix:
    """2k x 2k grid with absent cells, tracking how present cells arrived.

    Cells added through add_share or add_missing carry a proof origin (and
    optionally the proof itself); cells filled by recovery carry neither,
    and are only used as decode inputs when no originally received cell is
    available.
    """

    def __init__(self, k: int, share_size: int) -> None:
        self.k = k
        self.share_size = share_size
        w = 2 * k
        self.cells: list[list[Optional[bytes]]] = [[None] * w for _ in range(w)]
        self.origins: list[list[Optional[int]]] = [[None] * w for _ in range(w)]
        self.proofs: list[list[Optional[ShareProof]]] = [[None] * w for _ in range(w)]

    @property
    def width(self) -> int:
        return 2 * self.k

    @classmethod
    def from_matrix(
        cls,
        matrix: ExtendedMatrix,
        withhold: Sequence[tuple[int, int]] = (),
        with_proofs: bool = False,
    ) -> "PartialMatrix":
        partial = cls(matrix.k, matrix.share_size)
        hidden = set(withhold)
        for r in range(matrix.width):
            proofs = [proof for _, proof in prove_row(matrix, r)] if with_proofs else [None] * matrix.width
            partial.add_missing(
                (r, c, share, proofs[c])
                for c, share in enumerate(matrix.cells[r])
                if (r, c) not in hidden
            )
        return partial

    def add_share(
        self,
        x: int,
        y: int,
        share: bytes,
        origin: int = ROW,
        proof: Optional[ShareProof] = None,
    ) -> None:
        if len(share) != self.share_size:
            raise ValueError("share has wrong size")
        existing = self.cells[x][y]
        if existing is not None and existing != share:
            raise ValueError("conflicting share for cell")
        self.cells[x][y] = share
        if existing is None or self.origins[x][y] is None:
            self.origins[x][y] = origin
            self.proofs[x][y] = proof

    def add_missing(
        self, cells: Iterable[tuple[int, int, bytes, Optional[ShareProof]]]
    ) -> list[tuple[int, int, bytes, Optional[ShareProof]]]:
        """Store each (x, y, share, row proof or None) whose cell is absent,
        with origin ROW, and return those, in order; present cells are left
        as they are, unchecked against the offered share."""
        grid, origins, proofs = self.cells, self.origins, self.proofs
        added = []
        for cell in cells:
            x, y, share, proof = cell
            if grid[x][y] is None:
                if len(share) != self.share_size:
                    raise ValueError("share has wrong size")
                grid[x][y] = share
                origins[x][y] = ROW
                proofs[x][y] = proof
                added.append(cell)
        return added

    def missing(self) -> int:
        return sum(row.count(None) for row in self.cells)

    def copy(self) -> "PartialMatrix":
        """A copy that recovery can fill without touching this matrix."""
        dup = PartialMatrix(self.k, self.share_size)
        dup.cells = [list(row) for row in self.cells]
        dup.origins = [list(row) for row in self.origins]
        dup.proofs = [list(row) for row in self.proofs]
        return dup


@dataclass(frozen=True)
class CodecFault:
    """A decoded row or column disagrees with its committed root.

    Carries the decode inputs (share, position, proof origin) and, when
    known, their proofs against the data root, in the exact shape a codec
    fraud proof needs.
    """

    axis: int
    j: int
    axis_root: bytes
    shares: tuple[tuple[bytes, int, int], ...]
    proofs: tuple[Optional[ShareProof], ...]


def _line(rows: Sequence[Sequence], axis: int, j: int) -> Sequence:
    """Row j of a w x w grid (the grid's own row) or a copy of column j."""
    return rows[j] if axis == ROW else [row[j] for row in rows]


def _chosen(partial: PartialMatrix, axis: int, j: int) -> tuple[int, ...]:
    """The k decode inputs of an axis with at least k present cells: its
    first k present cells, those received before those recovery filled,
    in position order."""
    k = partial.k
    cells, origins = _line(partial.cells, axis, j), _line(partial.origins, axis, j)
    received = [
        pos for pos, cell in enumerate(cells) if cell is not None and origins[pos] is not None
    ]
    if len(received) >= k:
        return tuple(received[:k])
    filled = [pos for pos, cell in enumerate(cells) if cell is not None and origins[pos] is None]
    return tuple(sorted(received + filled[: k - len(received)]))


def _decoded(
    partial: PartialMatrix, axis: int, js: list[int], xs: tuple[int, ...]
) -> Iterator[tuple[list[bytes], frozenset[int]]]:
    """Decode the axes js, which share the inputs xs, in order: yields each
    one's decoded content and the present positions where that content
    differs from the cell.

    A run of axes is decoded when its first axis is pulled, and a call's
    symbol arrays never leave erasure. Each decoded share is compared with
    its cell: a share equal to the cell is the cell itself, and only holes
    and differing cells take the decoded bytes.
    """
    targets = erased(xs, partial.k)
    inputs = ([cells[pos] for pos in xs] for cells in (_line(partial.cells, axis, j) for j in js))
    for j, shares in zip(js, chain.from_iterable(evaluate_axes(xs, inputs, partial.k))):
        decoded = list(_line(partial.cells, axis, j))
        differs = []
        for t, share in zip(targets, shares):
            cell = decoded[t]
            if cell != share:
                if cell is not None:
                    differs.append(t)
                decoded[t] = share
        yield decoded, frozenset(differs)


def _axis_digests(
    grid: list[list[Optional[bytes]]],
    axis: int,
    j: int,
    decoded: list[bytes],
    differs: frozenset[int],
) -> list[bytes]:
    """Leaf digests of axis j's decoded content: a cell's grid digest where
    the share is the cell's bytes (hashed into the grid the first time, as
    for a hole the content fills), a fresh one where it differs."""
    digests = list(grid[j]) if axis == ROW else [row[j] for row in grid]
    for pos in differs:
        digests[pos] = merkle.leaf_hash(decoded[pos])
    for pos, digest in enumerate(digests):
        if digest is None:
            digests[pos] = digest = merkle.leaf_hash(decoded[pos])
            if axis == ROW:
                grid[j][pos] = digest
            else:
                grid[pos][j] = digest
    return digests


def _fill_proof(
    commitment: DataCommitment, x: int, y: int, axis: int, digests: list[bytes]
) -> ShareProof:
    """Proof of recovered cell (x, y) through the axis whose decoded content
    (already checked against its root, with these leaf digests) filled it."""
    j, pos = (x, y) if axis == ROW else (y, x)
    tree = merkle.MerkleTree.from_digests(digests)
    return commitment.share_proof(axis, j, tree.prove(pos))


def _fault(
    partial: PartialMatrix,
    axis: int,
    j: int,
    cells: Sequence[Optional[bytes]],
    chosen: tuple[int, ...],
    commitment: DataCommitment,
    filled_by: dict[tuple[int, int], tuple[int, list[bytes]]],
) -> CodecFault:
    """The fault of axis j, with its decode inputs and their proofs; an
    input recovery filled is proved through the axis that filled it."""
    triples = []
    proofs = []
    for pos in chosen:
        x, y = (j, pos) if axis == ROW else (pos, j)
        origin = partial.origins[x][y]
        proof = partial.proofs[x][y]
        if origin is None and (x, y) in filled_by:
            origin, filler = filled_by[(x, y)]
            proof = _fill_proof(commitment, x, y, origin, filler)
        triples.append((cells[pos], pos, ROW if origin is None else origin))
        proofs.append(proof)
    root = commitment.axis_root(axis, j)
    return CodecFault(axis, j, root, tuple(triples), tuple(proofs))


def _check_axes(
    partial: PartialMatrix,
    axis: int,
    js: list[int],
    commitment: DataCommitment,
    grid: list[list[Optional[bytes]]],
    filled_by: dict[tuple[int, int], tuple[int, list[bytes]]],
    exact: list[list[bool]],
    codeword: bool = False,
) -> Optional[CodecFault]:
    """Decode the axes js of one pass, check each against its committed
    root, and fill its holes, in j order; returns the first fault.

    The axes of one pass are disjoint, so no decode reads another's fills:
    each group of axes with the same inputs is decoded in evaluate_axes
    calls, pulled only when the first of their axes is checked. A fault
    thus stops the pass where checking axis by axis would, with the same
    cells filled before it. exact[axis][j] records whether axis j decoded
    to exactly its present cells. With codeword, the caller knows the axes
    are complete and codewords, which a decode would return unchanged, so
    they are not decoded.
    """
    chosen = {j: _chosen(partial, axis, j) for j in js}
    groups: dict[tuple[int, ...], list[int]] = {}
    for j in [] if codeword else js:
        groups.setdefault(chosen[j], []).append(j)
    streams = {xs: _decoded(partial, axis, group, xs) for xs, group in groups.items()}
    for j in js:
        cells = _line(partial.cells, axis, j)
        decoded, differs = (cells, frozenset()) if codeword else next(streams[chosen[j]])
        exact[axis][j] = not differs
        digests = _axis_digests(grid, axis, j, decoded, differs)
        if _digest_root(digests) != commitment.axis_root(axis, j):
            return _fault(partial, axis, j, cells, chosen[j], commitment, filled_by)
        for pos, cell in enumerate(cells):
            if cell is None:
                x, y = (j, pos) if axis == ROW else (pos, j)
                partial.cells[x][y] = decoded[pos]
                filled_by[(x, y)] = (axis, digests)
    return None


def recover_matrix(
    partial: PartialMatrix, commitment: DataCommitment
) -> ExtendedMatrix | CodecFault:
    """Peel absent cells axis by axis, checking each decode against its root.

    Each pass decodes its axes in pattern groups (see the module
    docstring). Returns the completed matrix, or a CodecFault for the
    first axis whose decoded content mismatches the committed root. Raises
    Unrecoverable when peeling reaches a fixpoint with cells still absent.
    Present cells are assumed to have been verified against the
    commitment.

    Each cell is leaf-hashed once for both of its axes, through a local
    w x w digest grid: an axis decode reuses a cell's grid digest where its
    decoded share is the cell's bytes, and stores the digest of a share it
    computes for a present cell or fills into a hole. A decoded share that
    differs from the present cell is hashed afresh and never stored, so a
    grid digest is always that of its cell's bytes.

    Once the matrix is complete, every axis that peeling did not decode is
    checked, rows first, then columns by index. A column c >= k is not
    decoded once every row and every column < k has decoded to exactly its
    cells (3k decodes for a complete matrix, not 4k). The rule is exact:
    those rows are codewords, so each cell of column c is one fixed linear
    combination of the same row's cells in columns < k, which makes column
    c the same combination of the codewords in columns < k, hence a
    codeword, and its decode would return its cells unchanged. Its root is
    still checked, from the grid digests, and a fault carries the inputs a
    decode would have chosen.
    """
    if commitment.matrix_width != partial.width:
        raise ValueError("commitment width does not match matrix")
    w = partial.width
    k = partial.k
    verified = [[False] * w for _ in range(2)]  # [axis][j]
    exact = [[False] * w for _ in range(2)]  # decoded to exactly its present cells
    grid: list[list[Optional[bytes]]] = [[None] * w for _ in range(w)]
    filled_by: dict[tuple[int, int], tuple[int, list[bytes]]] = {}

    changed = True
    while changed:
        changed = False
        for axis in (ROW, COLUMN):
            js = [
                j
                for j in range(w)
                if not verified[axis][j] and 0 < _line(partial.cells, axis, j).count(None) <= w - k
            ]
            fault = _check_axes(partial, axis, js, commitment, grid, filled_by, exact)
            if fault is not None:
                return fault
            for j in js:
                verified[axis][j] = True
            changed = changed or bool(js)

    if partial.missing():
        raise Unrecoverable("unrecoverable: peeling stalled with cells absent")

    # Axes never decoded above (complete from the start) still need their
    # codeword consistency checked against the committed roots: rows, then
    # columns < k, whose exactness decides the 3k rule for columns >= k.
    rows, columns = ([j for j in range(w) if not verified[axis][j]] for axis in (ROW, COLUMN))
    for axis, js in (
        (ROW, rows),
        (COLUMN, [j for j in columns if j < k]),
        (COLUMN, [j for j in columns if j >= k]),
    ):
        codeword = bool(js) and js[0] >= k and all(exact[ROW]) and all(exact[COLUMN][:k])
        fault = _check_axes(partial, axis, js, commitment, grid, filled_by, exact, codeword)
        if fault is not None:
            return fault

    return ExtendedMatrix(k, partial.share_size, partial.cells)  # type: ignore[arg-type]
