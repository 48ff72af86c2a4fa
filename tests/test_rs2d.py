import os
import random
import resource
import subprocess
import sys
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daproofs import block, erasure, merkle, rs2d
from daproofs.erasure import Unrecoverable, rs_encode
from daproofs.merkle import MerkleProof
from daproofs.rs2d import (
    COLUMN,
    ROW,
    DataCommitment,
    ExtendedMatrix,
    PartialMatrix,
    ShareProof,
    commit,
    extend_shares,
    prove_row,
    prove_share,
    recover_matrix,
    share_index,
    verify_share_merkle_proof,
    verify_share_merkle_proofs,
)
from tests.oracles import lagrange_codeword, recover_every_axis, share_proof_verifies


def random_shares(rng, count, size=8):
    return [bytes(rng.randrange(256) for _ in range(size)) for _ in range(count)]


def extend(raw, k, share_size):
    return extend_shares(block.pack_shares(raw, (), share_size), k, share_size)


def with_cell(matrix, x, y, share):
    """A new matrix: matrix's grid with cell (x, y) replaced by share."""
    cells = [list(row) for row in matrix.cells]
    cells[x][y] = share
    return replace(matrix, cells=cells)


def build(k=2, size=8, seed=0):
    rng = random.Random(seed)
    matrix = extend_shares(random_shares(rng, k * k, size), k, size)
    return matrix, commit(matrix)


def test_k1_all_cells_equal():
    matrix = extend(b"x", 1, 34)
    cells = [matrix.cells[r][c] for r in range(2) for c in range(2)]
    assert len(set(cells)) == 1
    assert cells[0][2:3] == b"x"


def test_k1_commit_symmetry():
    matrix = extend(b"x", 1, 34)
    commitment = commit(matrix)
    assert commitment.row_roots[0] == commitment.row_roots[1]
    assert commitment.row_roots[0] == commitment.column_roots[0]


def test_q4_rowwise_equals_columnwise():
    # oracle: rebuild the bottom-right quadrant in the opposite order
    for seed in range(5):
        rng = random.Random(seed)
        k = 2
        shares = random_shares(rng, k * k, 6)
        matrix = extend_shares(shares, k, 6)
        for c in range(k, 2 * k):
            column_q2 = [matrix.cells[r][c] for r in range(k)]
            extended = rs_encode(column_q2)
            for r in range(k, 2 * k):
                assert matrix.cells[r][c] == extended[r]


@settings(max_examples=40)
@given(st.integers(1, 9), st.sampled_from([2, 4, 6]), st.data())
def test_extend_shares_matches_per_axis_oracle(k, size, data):
    """Two batch calls, the second extending every column of the top half,
    give the cells of the per-axis construction: rows < k rightward,
    columns < k downward, then rows >= k rightward; the calls are cut into
    runs of one to three axes."""
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    shares = random_shares(rng, data.draw(st.integers(0, k * k)), size)
    run = data.draw(st.integers(1, 3))
    calls = []
    evaluate = rs2d.evaluate_axes

    def counted(xs, axes, k):
        calls.append(0)
        for values in evaluate(xs, axes, k):
            calls[-1] += len(values)
            yield values

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rs2d, "evaluate_axes", counted)
        patch.setattr(erasure, "CALL_SYMBOLS", run * k * (size // 2))
        matrix = extend_shares(shares, k, size)
    assert calls == [k, 2 * k]
    padded = shares + [bytes(size)] * (k * k - len(shares))
    cells = [lagrange_codeword(list(enumerate(padded[r * k : (r + 1) * k])), k) for r in range(k)]
    columns = [lagrange_codeword([(r, cells[r][c]) for r in range(k)], k) for c in range(k)]
    cells += [[column[r] for column in columns] for r in range(k, 2 * k)]
    for r in range(k, 2 * k):
        cells[r] = lagrange_codeword(list(enumerate(cells[r])), k)
    assert matrix == ExtendedMatrix(k, size, cells)


def test_data_length_formula():
    matrix = extend(b"payload" * 11, 32, 64)
    commitment = commit(matrix)
    assert commitment.data_length == 2 * 64 ** 2 == 8192
    assert commitment.matrix_width == 64


def test_commit_recomputable_from_roots():
    matrix, commitment = build()
    rebuilt = DataCommitment(commitment.row_roots, commitment.column_roots)
    assert rebuilt.data_root == commitment.data_root


def test_cell_perturbation_changes_roots():
    matrix, commitment = build()
    cell = matrix.cells[1][2]
    perturbed = commit(with_cell(matrix, 1, 2, cell[:-1] + bytes([cell[-1] ^ 1])))
    assert perturbed.row_roots[1] != commitment.row_roots[1]
    assert perturbed.column_roots[2] != commitment.column_roots[2]
    assert perturbed.data_root != commitment.data_root
    # untouched axes stay put
    assert perturbed.row_roots[0] == commitment.row_roots[0]


@pytest.mark.parametrize(
    "axis,j,pos,ax,width,data_length,expected",
    [
        (ROW, 1, 2, ROW, 4, 32, 6),
        (COLUMN, 1, 2, COLUMN, 4, 32, 22),
        (COLUMN, 1, 3, ROW, 4, 32, 13),
        (ROW, 3, 0, COLUMN, 4, 32, 16 + 0 * 4 + 3),
    ],
)
def test_share_index_cases(axis, j, pos, ax, width, data_length, expected):
    assert share_index(axis, j, pos, ax, width, data_length) == expected


def test_share_index_cross_case_from_row_proof():
    # a column axis located through a row-tree proof
    assert share_index(COLUMN, 3, 0, ROW, 4, 32) == 3


def test_share_index_validation():
    with pytest.raises(ValueError):
        share_index(2, 0, 0, ROW, 4, 32)
    with pytest.raises(ValueError):
        share_index(ROW, 4, 0, ROW, 4, 32)
    with pytest.raises(ValueError):
        share_index(ROW, 0, 0, ROW, 4, 30)


def test_prove_verify_share_exhaustive_k2():
    matrix, commitment = build()
    width = matrix.width
    for x in range(width):
        for y in range(width):
            for origin in (ROW, COLUMN):
                share, proof = prove_share(matrix, x, y, origin)
                assert share == matrix.cells[x][y]
                axis_root = (
                    commitment.row_roots[x] if origin == ROW else commitment.column_roots[y]
                )
                index = y if origin == ROW else x
                assert merkle.verify_merkle_proof(share, proof.axis_proof, axis_root, width, index)
                virtual = share_index(
                    ROW if origin == ROW else COLUMN,
                    x if origin == ROW else y,
                    y if origin == ROW else x,
                    origin,
                    width,
                    commitment.data_length,
                )
                assert verify_share_merkle_proof(
                    share, proof, commitment.data_root, commitment.data_length, virtual
                )


def _fresh_proof(matrix, x, y, origin):
    """Proof from a newly built copy of matrix, with no cached trees."""
    copy = ExtendedMatrix(matrix.k, matrix.share_size, [list(row) for row in matrix.cells])
    return prove_share(copy, x, y, origin)[1].to_bytes()


def test_cached_trees_match_fresh_matrix_in_any_order():
    matrix, _ = build(k=4, seed=11)
    width = matrix.width
    cells = [(x, y) for x in range(width) for y in range(width)]
    shuffled = random.Random(5).sample(cells, len(cells))
    orders = [cells, [(x, y) for y in range(width) for x in range(width)], shuffled]
    fresh = {
        (x, y, origin): _fresh_proof(matrix, x, y, origin)
        for x, y in cells
        for origin in (ROW, COLUMN)
    }
    for order in orders:
        interleaved = [(x, y, origin) for x, y in order for origin in (ROW, COLUMN)]
        axis_by_axis = [(x, y, origin) for origin in (ROW, COLUMN) for x, y in order]
        for x, y, origin in interleaved + axis_by_axis:
            assert prove_share(matrix, x, y, origin)[1].to_bytes() == fresh[(x, y, origin)]
    # cached trees do not take part in equality
    assert matrix == ExtendedMatrix(matrix.k, matrix.share_size, [list(row) for row in matrix.cells])

    # the cached trees cannot go stale: a cell cannot be assigned, and a
    # changed grid is a new matrix, to which no cached tree carries over
    flipped = bytes(b ^ 0xFF for b in matrix.cells[2][5])
    with pytest.raises(TypeError):
        matrix.cells[2][5] = flipped
    prove_share(matrix, 2, 0, ROW)
    changed = with_cell(matrix, 2, 5, flipped)
    assert commit(changed).data_root != commit(matrix).data_root
    for x, y in [(2, 0), (2, 5), (0, 5)]:
        for origin in (ROW, COLUMN):
            assert prove_share(changed, x, y, origin)[1].to_bytes() == _fresh_proof(
                changed, x, y, origin
            )


@pytest.mark.parametrize("k", [1, 2, 4])
def test_prove_row_matches_prove_share(k):
    """prove_row gives, cell by cell, the bytes that prove_share gives on a
    fresh copy of the matrix with no cached trees."""
    matrix, _ = build(k=k, seed=k)
    for r in range(matrix.width):
        proved = prove_row(matrix, r)
        assert [share for share, _ in proved] == list(matrix.cells[r])
        for c, (_, proof) in enumerate(proved):
            assert proof.to_bytes() == _fresh_proof(matrix, r, c, ROW)


def test_add_missing_stores_only_absent_cells():
    matrix, _ = build(k=2)
    partial = PartialMatrix.from_matrix(matrix, withhold=[(0, 0), (1, 2)])
    share, proof = prove_share(matrix, 0, 0, ROW)
    offered = [
        (0, 0, share, proof),
        (0, 1, b"\x00" * matrix.share_size, None),
        (1, 2, matrix.cells[1][2], None),
    ]
    assert partial.add_missing(offered) == [offered[0], offered[2]]
    assert partial.cells[0][:2] == list(matrix.cells[0][:2])
    assert (partial.origins[0][0], partial.proofs[0][0]) == (ROW, proof)
    assert (partial.origins[1][2], partial.proofs[1][2]) == (ROW, None)
    assert partial.missing() == 0
    with pytest.raises(ValueError, match="wrong size"):
        PartialMatrix(2, matrix.share_size).add_missing([(0, 0, b"\x00", None)])


def test_verify_share_wrong_everything():
    matrix, commitment = build()
    share, proof = prove_share(matrix, 1, 2, ROW)
    width = matrix.width
    row_roots = commitment.row_roots
    assert not merkle.verify_merkle_proof(share, proof.axis_proof, row_roots[1], width, 3)
    assert not merkle.verify_merkle_proof(share, proof.axis_proof, row_roots[0], width, 2)
    virtual = share_index(ROW, 1, 2, ROW, width, commitment.data_length)
    assert not verify_share_merkle_proof(
        share, proof, commitment.data_root, commitment.data_length, virtual + 1
    )
    assert not verify_share_merkle_proof(
        share, proof, bytes(32), commitment.data_length, virtual
    )


SHARE_MUTATIONS = (
    "share",
    "index",
    "other_axis_root",
    "other_root_path",
    "other_axis_path",
    "axis_sibling",
    "root_tree_size",
)


def mutated_share_item(data, matrix, commitment, x, y, origin):
    """(share, proof, index) for cell (x, y) through its origin axis, with
    one drawn mutation in four items; "other" parts come from a drawn axis
    or cell, which mixes axis roots within a batch."""
    w = matrix.width
    share, proof = prove_share(matrix, x, y, origin)
    j, pos = (x, y) if origin == ROW else (y, x)
    index = share_index(origin, j, pos, origin, w, commitment.data_length)
    mutate = data.draw(st.integers(0, 3)) == 0
    kind = data.draw(st.sampled_from(SHARE_MUTATIONS)) if mutate else None
    axis = data.draw(st.tuples(st.sampled_from([ROW, COLUMN]), st.integers(0, w - 1)))
    cell = data.draw(st.tuples(st.integers(0, w - 1), st.integers(0, w - 1)))
    axis_root, axis_proof, root_proof = proof.axis_root, proof.axis_proof, proof.root_proof
    if kind == "share":
        share = matrix.cells[(x + 1) % w][y]
    elif kind == "index":
        index = data.draw(st.integers(-1, commitment.data_length))
    elif kind == "other_axis_root":
        axis_root = commitment.axis_root(*axis)
    elif kind == "other_root_path":
        root_proof = commitment.prove_axis_root(*axis)
    elif kind == "other_axis_path":
        axis_proof = prove_share(matrix, *cell, origin)[1].axis_proof
    elif kind == "axis_sibling" and axis_proof.siblings:
        axis_proof = MerkleProof((bytes(32),) + axis_proof.siblings[1:], pos, w)
    elif kind == "root_tree_size":
        root_proof = MerkleProof(root_proof.siblings, root_proof.leaf_index, w)
    return share, ShareProof(axis_root, axis_proof, root_proof), index


@settings(max_examples=250)
@given(st.data())
def test_batch_share_verifier_matches_per_item_oracle(data):
    k = data.draw(st.sampled_from([1, 2, 4]))
    matrix, commitment = build(k=k, seed=k)
    w = matrix.width
    cells = st.tuples(st.integers(0, w - 1), st.integers(0, w - 1), st.sampled_from([ROW, COLUMN]))
    items = [
        mutated_share_item(data, matrix, commitment, x, y, origin)
        for x, y, origin in data.draw(st.lists(cells, max_size=6))
        for _ in range(data.draw(st.integers(1, 3)))
    ]
    lengths = [commitment.data_length] * 6 + [commitment.data_length + 2, 2 * (2 * w) ** 2]
    data_length = data.draw(st.sampled_from(lengths))
    root = data.draw(st.sampled_from([commitment.data_root] * 8 + [bytes(32)]))
    expected = all(share_proof_verifies(s, p, root, data_length, i) for s, p, i in items)
    assert verify_share_merkle_proofs(items, root, data_length) is expected


@pytest.mark.parametrize("k", [4, 8])
def test_commitment_hashes_each_cell_once(k, merkle_hashes):
    leaves_hashed, _ = merkle_hashes
    matrix, _ = build(k=k, seed=k)  # commit reads the cached commitment
    fresh = ExtendedMatrix(k, matrix.share_size, [list(row) for row in matrix.cells])
    leaves_hashed.clear()
    assert fresh.commitment == commit(matrix)
    assert sum(leaves_hashed.values()) == (2 * k) ** 2


@pytest.mark.parametrize("k", [4, 8])
def test_recovery_of_complete_matrix_hashes_each_cell_once(k, merkle_hashes):
    leaves_hashed, _ = merkle_hashes
    matrix, commitment = build(k=k, seed=k)
    partial = PartialMatrix.from_matrix(matrix)
    leaves_hashed.clear()
    assert recover_matrix(partial, commitment) == matrix
    assert sum(leaves_hashed.values()) == (2 * k) ** 2


@pytest.mark.parametrize("k", [4, 8])
def test_complete_matrix_check_makes_3k_decodes(k, merkle_hashes, monkeypatch):
    leaves_hashed, nodes_hashed = merkle_hashes
    matrix, commitment = build(k=k, seed=k)
    decoded_axes = counted_batches(monkeypatch)
    partial = PartialMatrix.from_matrix(matrix)
    leaves_hashed.clear()
    nodes_hashed.clear()
    assert recover_matrix(partial, commitment) == matrix
    w = 2 * k
    # every row and every column < k, each from its first k cells: one
    # batch call for the rows, one for the columns
    assert decoded_axes == [(tuple(range(k)), w), (tuple(range(k)), k)]
    assert sum(count for _, count in decoded_axes) == 3 * k
    assert sum(leaves_hashed.values()) == w * w
    assert sum(nodes_hashed.values()) == 2 * w * (w - 1)


def test_withheld_quadrant_rows_decode_as_one_pattern(monkeypatch):
    k = 8
    matrix, commitment = build(k=k, seed=1)
    decoded_axes = counted_batches(monkeypatch)
    quadrant = [(r, c) for r in range(k) for c in range(k)]
    partial = PartialMatrix.from_matrix(matrix, withhold=quadrant)
    assert recover_matrix(partial, commitment) == matrix
    parity = tuple(range(k, 2 * k))
    # peeling: the k withheld rows as one group from their parity half;
    # the complete-matrix check: rows >= k, then columns < k from their
    # received half; columns >= k by the 3k rule
    assert decoded_axes == [(parity, k), (tuple(range(k)), k), (parity, k)]


def test_fault_stops_the_pass_before_later_calls(monkeypatch):
    k = 4
    matrix, _ = build(k=k, seed=7)
    cell = matrix.cells[2][2 * k - 1]
    matrix = with_cell(matrix, 2, 2 * k - 1, bytes([cell[0] ^ 1]) + cell[1:])
    commitment = commit(matrix)  # row 2 is not a codeword under its root
    monkeypatch.setattr(erasure, "CALL_SYMBOLS", 1)  # one axis per call
    decoded_axes = counted_batches(monkeypatch)
    fault = recover_matrix(PartialMatrix.from_matrix(matrix), commitment)
    assert isinstance(fault, rs2d.CodecFault)
    assert (fault.axis, fault.j) == (ROW, 2)
    # rows 0, 1 and 2 only: a call is made when its first axis is checked
    assert decoded_axes == [(tuple(range(k)), 1)] * 3


def counted_batches(monkeypatch) -> list[tuple[tuple[int, ...], int]]:
    """(positions, number of axes) of every batch codec call recover_matrix makes."""
    batches = []
    evaluate = rs2d.evaluate_axes

    def counted(xs, axes, k):
        for values in evaluate(xs, axes, k):
            batches.append((tuple(xs), len(values)))
            yield values

    monkeypatch.setattr(rs2d, "evaluate_axes", counted)
    return batches


def copy_partial(partial):
    copy = PartialMatrix(partial.k, partial.share_size)
    copy.cells = [list(row) for row in partial.cells]
    copy.origins = [list(row) for row in partial.origins]
    copy.proofs = [list(row) for row in partial.proofs]
    return copy


PLANTED_FAULTS = (
    "parity_cell_before_commit",
    "present_cell_differs",
    "wrong_column_root",
    "parity_row_disagrees_with_columns",
)


@settings(max_examples=150)
@given(st.data())
def test_recovery_matches_every_axis_oracle(data):
    """recover_matrix, with its digest grid and its 3k rule, returns what
    decoding every axis returns: the same cells, or the same fault with
    the same inputs and proofs."""
    k = data.draw(st.integers(2, 8), label="k")
    w = 2 * k
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    matrix = extend_shares(random_shares(rng, k * k, 4), k, 4)
    planted = data.draw(st.sampled_from(PLANTED_FAULTS), label="planted")
    x, y = data.draw(st.tuples(st.integers(0, w - 1), st.integers(0, w - 1)))
    if planted == "parity_cell_before_commit" and x < k and y < k:
        y += k
    if planted == "parity_row_disagrees_with_columns" and x < k:
        x += k
    c = data.draw(st.integers(k, w - 1), label="c")
    tampered = with_cell(matrix, x, y, bytes([matrix.cells[x][y][0] ^ 1]) + matrix.cells[x][y][1:])
    honest = commit(matrix)
    if planted == "parity_cell_before_commit":
        shown, commitment = tampered, commit(tampered)
    elif planted == "present_cell_differs":
        shown, commitment = tampered, honest
    elif planted == "parity_row_disagrees_with_columns":
        # every row a codeword under its root, and the column roots those of
        # the honest columns: columns < k pass their roots but not exactly
        grid = [list(row) for row in matrix.cells]
        grid[x] = rs_encode(random_shares(rng, k, 4))
        shown = ExtendedMatrix(k, 4, grid)
        commitment = DataCommitment(commit(shown).row_roots, honest.column_roots)
    else:
        roots = honest.column_roots
        shown = matrix
        commitment = DataCommitment(honest.row_roots, roots[:c] + (bytes(32),) + roots[c + 1 :])
    cells = st.tuples(st.integers(0, w - 1), st.integers(0, w - 1))
    # more than k cells of column c withheld: the rows fill them, and the
    # column is checked from received and filled inputs
    column_rows = st.lists(st.integers(0, w - 1), unique=True, min_size=k + 1, max_size=w)
    withheld = data.draw(st.one_of(
        st.just([]),
        st.lists(cells, unique=True, max_size=k * k),
        column_rows.map(lambda rows: [(row, c) for row in rows]),
    ))
    partial = PartialMatrix.from_matrix(shown, withheld, with_proofs=data.draw(st.booleans()))

    def outcome(recover):
        try:
            return recover(copy_partial(partial), commitment)
        except Unrecoverable:
            return "unrecoverable"

    assert outcome(recover_matrix) == outcome(recover_every_axis)


def test_recovery_random_patterns():
    matrix, commitment = build(seed=3)
    rng = random.Random(12)
    cells = [(r, c) for r in range(4) for c in range(4)]
    for _ in range(40):
        withheld = rng.sample(cells, 8)
        partial = PartialMatrix.from_matrix(matrix, withhold=withheld)
        result = recover_matrix(partial, commitment)
        assert isinstance(result, rs2d.ExtendedMatrix)
        assert result.cells == matrix.cells


def test_recovery_idempotent_on_complete_matrix():
    matrix, commitment = build(seed=4)
    partial = PartialMatrix.from_matrix(matrix)
    result = recover_matrix(partial, commitment)
    assert isinstance(result, rs2d.ExtendedMatrix)
    assert result.cells == matrix.cells


def test_recovered_matrix_recommits():
    matrix, commitment = build(seed=5)
    partial = PartialMatrix.from_matrix(matrix, withhold=[(0, 0), (1, 1), (2, 2), (3, 3)])
    result = recover_matrix(partial, commitment)
    assert commit(result).data_root == commitment.data_root


def test_submatrix_erasure_unrecoverable():
    matrix, commitment = build(seed=6)
    withheld = [(r, c) for r in range(3) for c in range(3)]
    partial = PartialMatrix.from_matrix(matrix, withhold=withheld)
    with pytest.raises(Unrecoverable):
        recover_matrix(partial, commitment)


def test_corrupted_parity_yields_fault():
    matrix, _ = build(seed=7)
    cell = matrix.cells[0][3]
    matrix = with_cell(matrix, 0, 3, cell[:-1] + bytes([cell[-1] ^ 1]))
    commitment = commit(matrix)  # commitment embeds the inconsistency
    partial = PartialMatrix.from_matrix(matrix, with_proofs=True)
    result = recover_matrix(partial, commitment)
    assert isinstance(result, rs2d.CodecFault)
    assert result.axis in (ROW, COLUMN)
    assert len(result.shares) >= matrix.k
    taken = [pos for _, pos, _ in result.shares]
    assert len(set(taken)) == len(taken)


def test_extend_shares_rejects_k_above_max_k_before_padding():
    """Under a 1 GB address-space cap, since padding (MAX_K + 1)^2 shares
    would take about 4 GB: only a check made first raises ValueError."""
    code = (
        "from daproofs import erasure, rs2d\n"
        "try:\n"
        "    rs2d.extend_shares([], erasure.MAX_K + 1, 2)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    cap = (1 << 30, 1 << 30)
    run = subprocess.run(
        [sys.executable, "-c", code],
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, cap),
        env={**os.environ, "PYTHONPATH": str(Path(rs2d.__file__).parents[1])},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.stdout == f"k must be in 1..{erasure.MAX_K}\n", run.stderr


def test_extend_capacity_and_errors():
    with pytest.raises(ValueError):
        extend(b"x" * (4 * 32 + 1), 2, 34)
    with pytest.raises(ValueError):
        extend_shares([b"x" * 8] * 5, 2, 8)
    with pytest.raises(ValueError):
        extend_shares([b"x" * 7], 2, 8)


def test_recovery_threshold_boundary_exhaustive_seven():
    # every 7-cell erasure (strictly below (k+1)^2 - 1 = 8 is plenty) recovers
    matrix, commitment = build(seed=8)
    cells = [(r, c) for r in range(4) for c in range(4)]
    for withheld in combinations(cells, 2):
        partial = PartialMatrix.from_matrix(matrix, withhold=list(withheld))
        result = recover_matrix(partial, commitment)
        assert isinstance(result, rs2d.ExtendedMatrix)
