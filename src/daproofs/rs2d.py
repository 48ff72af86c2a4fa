"""Two-dimensional erasure-coded share matrix with Merkle commitments.

A block of at most k*k shares is arranged into a k x k grid and extended
three times with the systematic Reed-Solomon codec: every original row is
extended rightward, every original column downward, and the new bottom
rows rightward again (which, by linearity, agrees with extending the new
right columns downward). Each of the 2k rows and 2k columns gets its own
Merkle root, and the data root commits to the concatenated row roots then
column roots.

Indexing convention: everything is 0-based. The "virtual" data tree has
data_length = 2 * (2k)^2 leaf slots; slot r*w + c addresses the cell at
row r, column c through its row tree, and slot data_length/2 + c*w + r
addresses the same cell through its column tree (w = 2k). A share proof
against the data root is the pair (axis-tree path, root-tree path); the
root-tree leaf index for a virtual slot g is g // w.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import isqrt
from typing import Optional, Sequence

from . import merkle
from .erasure import Unrecoverable, rs_decode, rs_encode
from .merkle import MerkleProof

ROW = 0
COLUMN = 1


@dataclass
class ExtendedMatrix:
    """Fully populated 2k x 2k share grid."""

    k: int
    share_size: int
    cells: list[list[bytes]]

    _row_roots: Optional[tuple[bytes, ...]] = field(default=None, repr=False)
    _column_roots: Optional[tuple[bytes, ...]] = field(default=None, repr=False)

    @property
    def width(self) -> int:
        return 2 * self.k

    def row(self, r: int) -> list[bytes]:
        return list(self.cells[r])

    def column(self, c: int) -> list[bytes]:
        return [self.cells[r][c] for r in range(self.width)]

    def axis_roots(self) -> tuple[tuple[bytes, ...], tuple[bytes, ...]]:
        if self._row_roots is None:
            self._row_roots = tuple(merkle.root(self.cells[r]) for r in range(self.width))
            self._column_roots = tuple(
                merkle.root(self.column(c)) for c in range(self.width)
            )
        assert self._column_roots is not None
        return self._row_roots, self._column_roots

    def invalidate_roots(self) -> None:
        self._row_roots = None
        self._column_roots = None


@dataclass(frozen=True)
class DataCommitment:
    """Row and column roots plus the data root derived from them."""

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
    def data_root(self) -> bytes:
        return merkle.root(list(self.row_roots) + list(self.column_roots))

    def axis_root(self, axis: int, j: int) -> bytes:
        return self.row_roots[j] if axis == ROW else self.column_roots[j]


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
    def read_from(cls, raw: bytes) -> tuple["ShareProof", bytes]:
        if len(raw) < merkle.DIGEST_SIZE:
            raise ValueError("truncated share proof")
        axis_root = raw[: merkle.DIGEST_SIZE]
        axis_proof, rest = MerkleProof.read_from(raw[merkle.DIGEST_SIZE :])
        root_proof, rest = MerkleProof.read_from(rest)
        return cls(axis_root, axis_proof, root_proof), rest


def matrix_width_for(data_length: int) -> int:
    w = isqrt(data_length // 2)
    if 2 * w * w != data_length or w % 2:
        raise ValueError("data length is not 2*(2k)^2")
    return w


def extend_shares(shares: Sequence[bytes], k: int, share_size: int) -> ExtendedMatrix:
    """Extend up to k*k shares (zero-padded to a full grid) three ways."""
    if k < 1:
        raise ValueError("k must be positive")
    if share_size < 2 or share_size % 2:
        raise ValueError("share size must be even and at least 2")
    if len(shares) > k * k:
        raise ValueError("data too large for chosen k")
    for sh in shares:
        if len(sh) != share_size:
            raise ValueError("share has wrong size")
    padded = list(shares) + [b"\x00" * share_size] * (k * k - len(shares))
    w = 2 * k
    cells: list[list[Optional[bytes]]] = [[None] * w for _ in range(w)]
    for r in range(k):
        extended = rs_encode(padded[r * k : (r + 1) * k])
        for c in range(w):
            cells[r][c] = extended[c]
    for c in range(k):
        extended = rs_encode([cells[r][c] for r in range(k)])  # type: ignore[list-item]
        for r in range(k, w):
            cells[r][c] = extended[r]
    for r in range(k, w):
        extended = rs_encode(cells[r][:k])  # type: ignore[arg-type]
        for c in range(k, w):
            cells[r][c] = extended[c]
    return ExtendedMatrix(k, share_size, [list(row) for row in cells])  # type: ignore[arg-type]


def extend(raw: bytes, k: int, share_size: int) -> ExtendedMatrix:
    """Frame an opaque byte string into shares and extend it.

    Each share is a 2-byte start-offset field (zero: no message starts
    here, the framing used for opaque payloads) followed by payload bytes;
    the last share is zero-padded. Capacity is k*k*(share_size-2) bytes.
    """
    if share_size < 34:
        raise ValueError("share size must be at least 34")
    payload = share_size - 2
    if len(raw) > k * k * payload:
        raise ValueError("data too large for chosen k")
    shares = []
    for start in range(0, len(raw), payload):
        chunk = raw[start : start + payload]
        shares.append(b"\x00\x00" + chunk.ljust(payload, b"\x00"))
    return extend_shares(shares, k, share_size)


def commit(matrix: ExtendedMatrix) -> DataCommitment:
    """Commit to every row and column root; leaf order is rows then columns."""
    for row in matrix.cells:
        if any(cell is None for cell in row):
            raise ValueError("matrix has missing cells")
    row_roots, column_roots = matrix.axis_roots()
    return DataCommitment(row_roots, column_roots)


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
    if share is None:
        raise ValueError("cell is absent")
    row_roots, column_roots = matrix.axis_roots()
    top_leaves = list(row_roots) + list(column_roots)
    if origin == ROW:
        axis_proof = merkle.prove(matrix.row(x), y)
        top_index = x
        axis_root = row_roots[x]
    elif origin == COLUMN:
        axis_proof = merkle.prove(matrix.column(y), x)
        top_index = w + y
        axis_root = column_roots[y]
    else:
        raise ValueError("origin must be 0 (row) or 1 (column)")
    root_proof = merkle.prove(top_leaves, top_index)
    return share, ShareProof(axis_root, axis_proof, root_proof)


def verify_share(
    share: bytes, proof: MerkleProof, axis_root: bytes, matrix_width: int, index: int
) -> bool:
    """Verify a share against a single row or column root."""
    return merkle.verify_merkle_proof(share, proof, axis_root, matrix_width, index)


def verify_share_merkle_proof(
    share: bytes,
    proof: ShareProof,
    data_root: bytes,
    data_length: int,
    index: int,
) -> bool:
    """Verify a share against the data root at a virtual-tree index."""
    try:
        w = matrix_width_for(data_length)
    except ValueError:
        return False
    if not 0 <= index < data_length:
        return False
    top_index, pos = divmod(index, w)
    if not merkle.verify_merkle_proof(
        proof.axis_root, proof.root_proof, data_root, 2 * w, top_index
    ):
        return False
    return merkle.verify_merkle_proof(share, proof.axis_proof, proof.axis_root, w, pos)


class PartialMatrix:
    """2k x 2k grid with absent cells, tracking how present cells arrived.

    Cells added through add_share carry a proof origin (and optionally the
    proof itself); cells filled by recovery carry neither, and are only
    used as decode inputs when no originally received cell is available.
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
            for c in range(matrix.width):
                if (r, c) in hidden:
                    continue
                proof = None
                if with_proofs:
                    _, proof = prove_share(matrix, r, c, ROW)
                partial.add_share(r, c, matrix.cells[r][c], ROW, proof)
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

    def missing(self) -> int:
        return sum(row.count(None) for row in self.cells)


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


def _axis_cells(partial: PartialMatrix, axis: int, j: int) -> list[Optional[bytes]]:
    if axis == ROW:
        return list(partial.cells[j])
    return [partial.cells[r][j] for r in range(partial.width)]


def _fill_proof(
    commitment: DataCommitment, x: int, y: int, axis: int, content: list[bytes]
) -> ShareProof:
    """Proof of recovered cell (x, y) through the axis whose decoded content
    (already checked against its root) filled it."""
    j, pos = (x, y) if axis == ROW else (y, x)
    top_leaves = list(commitment.row_roots) + list(commitment.column_roots)
    root_proof = merkle.prove(top_leaves, j if axis == ROW else commitment.matrix_width + j)
    return ShareProof(commitment.axis_root(axis, j), merkle.prove(content, pos), root_proof)


def _decode_axis(
    partial: PartialMatrix,
    axis: int,
    j: int,
    commitment: DataCommitment,
    filled_by: dict[tuple[int, int], tuple[int, list[bytes]]],
) -> tuple[Optional[list[bytes]], Optional[CodecFault]]:
    """Decode one axis from its k best inputs and check the committed root.

    filled_by maps each recovered cell to (axis that filled it, that axis's
    decoded content); a fault proves such inputs through that axis.
    """
    k = partial.k
    cells = _axis_cells(partial, axis, j)
    candidates = [pos for pos, cell in enumerate(cells) if cell is not None]
    if len(candidates) < k:
        return None, None
    # prefer cells that arrived with a proof origin over recovered fills
    def origin_of(pos: int) -> Optional[int]:
        x, y = (j, pos) if axis == ROW else (pos, j)
        return partial.origins[x][y]

    candidates.sort(key=lambda pos: (origin_of(pos) is None, pos))
    chosen = sorted(candidates[:k])
    decoded = rs_decode([(pos, cells[pos]) for pos in chosen], k)
    committed_root = commitment.axis_root(axis, j)
    if merkle.root(decoded) != committed_root:
        triples = []
        proofs = []
        for pos in chosen:
            x, y = (j, pos) if axis == ROW else (pos, j)
            origin = partial.origins[x][y]
            proof = partial.proofs[x][y]
            if origin is None and (x, y) in filled_by:
                origin, content = filled_by[(x, y)]
                proof = _fill_proof(commitment, x, y, origin, content)
            triples.append((cells[pos], pos, ROW if origin is None else origin))
            proofs.append(proof)
        return None, CodecFault(axis, j, committed_root, tuple(triples), tuple(proofs))
    return decoded, None


def recover_matrix(
    partial: PartialMatrix, commitment: DataCommitment
) -> ExtendedMatrix | CodecFault:
    """Peel absent cells axis by axis, checking each decode against its root.

    Returns the completed matrix, or a CodecFault for the first axis whose
    decoded content mismatches the committed root. Raises Unrecoverable
    when peeling reaches a fixpoint with cells still absent. Present cells
    are assumed to have been verified against the commitment.
    """
    if commitment.matrix_width != partial.width:
        raise ValueError("commitment width does not match matrix")
    w = partial.width
    k = partial.k
    verified = [[False] * w for _ in range(2)]  # [axis][j]
    filled_by: dict[tuple[int, int], tuple[int, list[bytes]]] = {}

    changed = True
    while changed:
        changed = False
        for axis in (ROW, COLUMN):
            for j in range(w):
                if verified[axis][j]:
                    continue
                cells = _axis_cells(partial, axis, j)
                holes = [pos for pos, cell in enumerate(cells) if cell is None]
                if not holes:
                    continue
                if w - len(holes) < k:
                    continue
                decoded, fault = _decode_axis(partial, axis, j, commitment, filled_by)
                if fault is not None:
                    return fault
                assert decoded is not None
                for pos in holes:
                    x, y = (j, pos) if axis == ROW else (pos, j)
                    partial.cells[x][y] = decoded[pos]
                    filled_by[(x, y)] = (axis, decoded)
                verified[axis][j] = True
                changed = True

    if partial.missing():
        raise Unrecoverable("unrecoverable: peeling stalled with cells absent")

    # Axes never decoded above (complete from the start) still need their
    # codeword consistency checked against the committed roots.
    for axis in (ROW, COLUMN):
        for j in range(w):
            if verified[axis][j]:
                continue
            _, fault = _decode_axis(partial, axis, j, commitment, filled_by)
            if fault is not None:
                return fault

    return ExtendedMatrix(
        k, partial.share_size, [list(row) for row in partial.cells]  # type: ignore[arg-type]
    )
