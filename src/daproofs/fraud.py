"""Fraud proof generation and verification.

Two kinds of proof exist. A transition proof demonstrates that replaying
one period of a block's data from its committed pre-root does not land on
the committed post-root (or, for the block-final slice, on the header's
state root after the producer's fee payout). A codec proof demonstrates
that the content of one committed row or column, reconstructed from
proven shares, does not hash to its committed axis root.

The slice rule is block.read_period, which the prover calls on the
parsed data at block start and at every trace, and the verifier on the
proof's shares, at each period their first share opens: block start if
the run starts there, and each trace that starts in that share. A period
is an optional pre-state trace (absent only at block start, where the
previous block's state root stands in), then at most p transfers, then a
post-state trace. Whatever follows the last trace is the block-final
slice: it has no post-state trace, possibly no transfers, and its replay
is checked against the header state root after the fee payout. An empty
block is one such slice, the fee payout alone from the previous state
root. Both layouts (in-band traces and the double tree) replay a slice
through the same fold. More than p transfers after block start or a
trace violate the period criterion. The run of shares from that start
through the (p+1)-th transfer, with no witnesses, is then the transition
proof: no such run of an honest block overflows.

check_block is the one order in which an honest full node checks a block
it holds enough shares of. It recovers the matrix, checking every row and
column against its committed root, and a mismatch yields a codec proof.
Only then does it replay the recovered data, and the first faulty period
yields a transition proof.

The wire decoders read through merkle.Reader and raise only ValueError
on a malformed record. The verifiers never raise on attacker-supplied
input: any structural defect, failed membership proof, or unusable
witness makes them return False. A proof only verifies True when every
share and witness is properly bound to the committed block and the
replayed result still disagrees with the commitment. A True verdict
permanently rejects the header in the client's header store.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

from . import merkle, rs2d
from .block import (
    DEFAULT_PERIOD,
    BlockHeader,
    BuiltBlock,
    DoubleTreeBlock,
    DoubleTreeHeader,
    ParseError,
    PeriodOverflow,
    parse_shares_with_spans,
    read_period,
)
from .erasure import Unrecoverable, rs_decode
from .merkle import MerkleProof, Reader
from .rs2d import COLUMN, ROW, CodecFault, ShareProof, share_index
from .smt import SparseProof, StateTree, WitnessError
from .state import (
    ERR,
    StateWitness,
    Transaction,
    _apply_rules,
    apply_fee_payout,
    make_tx_witness,
    make_witness,
    payout_keys,
    root_fee_payout,
    root_transition,
)


class HeaderStore:
    """Headers a client has downloaded, plus its permanent rejections."""

    def __init__(self) -> None:
        self.headers: dict[bytes, BlockHeader] = {}
        self.dt_headers: dict[bytes, DoubleTreeHeader] = {}
        self.rejected: set[bytes] = set()

    def add(self, header: BlockHeader) -> bytes:
        block_hash = header.block_hash()
        self.headers[block_hash] = header
        return block_hash

    def add_double_tree(self, header: DoubleTreeHeader) -> bytes:
        block_hash = header.block_hash()
        self.dt_headers[block_hash] = header
        return block_hash

    def get(self, block_hash: bytes) -> Optional[BlockHeader]:
        return self.headers.get(block_hash)

    def prev_state_root(self, header: BlockHeader) -> Optional[bytes]:
        """State root of the parent block of an in-band header, if known."""
        prev = self.headers.get(header.prev_hash)
        return prev.state_root if prev else None

    def reject(self, block_hash: bytes) -> None:
        self.rejected.add(block_hash)

    def is_rejected(self, block_hash: bytes) -> bool:
        return block_hash in self.rejected


# --- Transition fraud proofs -------------------------------------------------


@dataclass(frozen=True)
class TransitionFraudProof:
    """Shares of one period, their data-root proofs, and replay witnesses.

    start_index is the position of the first share within the block's
    original (pre-extension) share sequence. payout_witness is present
    only for the block-final slice, which replays the fee payout against
    the header state root.
    """

    block_hash: bytes
    start_index: int
    shares: tuple[bytes, ...]
    origins: tuple[int, ...]
    share_proofs: tuple[ShareProof, ...]
    witnesses: tuple[StateWitness, ...]
    payout_witness: Optional[StateWitness] = None


def _replay_disagrees(
    pre_root: Optional[bytes],
    txs: Sequence[Transaction],
    witnesses: Sequence[StateWitness],
    post_root: Optional[bytes],
    payout_witness: Optional[StateWitness],
    header: Union[BlockHeader, DoubleTreeHeader],
) -> bool:
    """Stateless replay of one slice; True iff it disagrees with the commitment.

    Folds root_transition over the transfers from pre_root, then compares
    against post_root or, for the block-final slice (no post_root), against
    the header state root after the producer's fee payout. An unknown
    pre-root, a misplaced or missing payout witness, or an unusable witness
    makes the slice unconvincing (False).
    """
    if pre_root is None or (post_root is not None and payout_witness is not None):
        return False
    inter: Union[bytes, object] = pre_root
    try:
        for tx, witness in zip(txs, witnesses):
            inter = root_transition(inter, tx, witness)
        if post_root is not None:
            return inter is ERR or inter != post_root
        producer = header.additional_data
        if len(producer) == 32 and inter is not ERR:
            if payout_witness is None:
                return False
            inter = root_fee_payout(inter, producer, payout_witness)
    except WitnessError:
        return False
    return inter is ERR or inter != header.state_root


def _replay_period(
    tree: StateTree,
    txs: Sequence[Transaction],
    declared_post: Optional[bytes],
    producer: bytes,
    state_root: bytes,
) -> Optional[tuple[list[StateWitness], Optional[StateWitness]]]:
    """Replay one period on the prover's full tree, advancing it in place.

    None means the period, replayed without witnesses, lands on
    declared_post (or, for the block-final slice, on state_root after the
    fee payout). Otherwise its touched keys are reset to their pre-trace
    values and it replays again, proving each transfer's keys first, for
    what a proof of the slice needs: the transfer witnesses, padded with
    empty ones (never examined by the ERR fold) after an illegal transfer,
    and the payout witness of a block-final slice that replayed cleanly.
    """
    keys = {key for tx in txs for key in tx.touched_keys()}
    if declared_post is None:
        keys.update(payout_keys(producer))
    snapshot = [(key, tree.get(key)) for key in keys]
    if all(_apply_rules(tree, tx) for tx in txs):
        if declared_post is not None and tree.root() == declared_post:
            return None
        if declared_post is None and apply_fee_payout(tree, producer) == state_root:
            return None
    for key, value in snapshot:
        tree.update(key, value)
    witnesses: list[StateWitness] = []
    for tx in txs:
        witnesses.append(make_tx_witness(tree, tx))
        if not _apply_rules(tree, tx):
            witnesses += [StateWitness(())] * (len(txs) - len(witnesses))
            return witnesses, None
    payout_witness = make_witness(tree, payout_keys(producer)) if declared_post is None else None
    return witnesses, payout_witness


def verify_transition_fraud_proof(
    proof: TransitionFraudProof, store: HeaderStore, p: int = DEFAULT_PERIOD
) -> bool:
    """True iff the proof pins an inconsistent period of a known block."""
    header = store.get(proof.block_hash)
    if header is None:
        return False
    try:
        width = rs2d.matrix_width_for(header.data_length)
    except ValueError:
        return False
    k = width // 2

    count = len(proof.shares)
    if count == 0 or len(proof.origins) != count or len(proof.share_proofs) != count:
        return False
    y = proof.start_index
    if y < 0 or y + count > k * k:
        return False

    items = []
    try:
        for a, (share, origin, share_proof) in enumerate(
            zip(proof.shares, proof.origins, proof.share_proofs)
        ):
            row, col = divmod(y + a, k)
            virtual = share_index(ROW, row, col, origin, width, header.data_length)
            items.append((share, share_proof, virtual))
    except ValueError:
        return False
    if not rs2d.verify_share_merkle_proofs(items, header.data_root, header.data_length):
        return False

    try:
        run = parse_shares_with_spans(proof.shares)
    except ParseError:
        return False
    # the periods the run's first share opens, each checked alone: block
    # start at share 0, then each trace that starts in that share, so the
    # proof holds whichever of them its period follows
    starts = [(0, True)] if y == 0 else []
    starts += [
        (i, False)
        for i, pm in enumerate(run)
        if pm.first_share == 0 and isinstance(pm.message, bytes)
    ]
    for i, at_block_start in starts:
        try:
            slice_ = read_period(run[i:], at_block_start, p)
        except PeriodOverflow:
            # no run of an honest block overflows, so the run alone is the proof
            if not proof.witnesses and proof.payout_witness is None:
                return True
            continue
        except ParseError:
            continue
        if slice_.post_root is None and y + count != k * k:
            continue
        if len(proof.witnesses) != len(slice_.txs):
            continue
        pre_root = slice_.pre_root
        if pre_root is None:
            pre_root = store.prev_state_root(header)
        if _replay_disagrees(
            pre_root, slice_.txs, proof.witnesses, slice_.post_root, proof.payout_witness, header
        ):
            return True
    return False


def generate_transition_fraud_proof(
    built: BuiltBlock, prev_state: StateTree
) -> Optional[TransitionFraudProof]:
    """Replay a block and emit a proof for the first faulty period.

    Returns None when every period replays to its boundary trace and the
    header state root matches the final payout. The prover needs the full
    block data and the previous block's state. A period with more than p
    transfers is proven by its run of shares through the (p+1)-th
    transfer, with no witnesses.
    """
    shares = built.shares
    parsed = parse_shares_with_spans(shares)
    tree = prev_state.copy()
    start = 0  # index of the period's pre-root trace, or 0 at block start
    at_block_start = True
    while True:
        y = 0 if at_block_start else parsed[start].first_share
        try:
            slice_ = read_period(parsed[start:], at_block_start, built.p)
        except PeriodOverflow:
            end_share = parsed[start + built.p + (not at_block_start)].last_share
            witnesses, payout_witness = [], None
            break
        replay = _replay_period(
            tree, slice_.txs, slice_.post_root, built.producer, built.header.state_root
        )
        if replay is not None:
            witnesses, payout_witness = replay
            end_share = slice_.messages[-1].last_share if slice_.post_root else len(shares) - 1
            break
        if slice_.post_root is None:
            return None
        start += len(slice_.messages) - 1  # the post-root opens the next period
        at_block_start = False

    share_run = shares[y : end_share + 1]
    share_proofs = [
        rs2d.prove_share(built.matrix, *divmod(y + offset, built.matrix.k), ROW)[1]
        for offset in range(len(share_run))
    ]
    return TransitionFraudProof(
        block_hash=built.header.block_hash(),
        start_index=y,
        shares=tuple(share_run),
        origins=tuple([ROW] * len(share_run)),
        share_proofs=tuple(share_proofs),
        witnesses=tuple(witnesses),
        payout_witness=payout_witness,
    )


# --- Codec fraud proofs -------------------------------------------------------


@dataclass(frozen=True)
class CodecFraudProof:
    """An axis root plus enough proven shares to reconstruct that axis."""

    block_hash: bytes
    axis: int
    j: int
    axis_root: bytes
    axis_root_proof: MerkleProof
    shares: tuple[tuple[bytes, int, int], ...]  # (share, pos, proof origin)
    share_proofs: tuple[ShareProof, ...]


def generate_codec_fraud_proof(
    fault: CodecFault, block_hash: bytes, commitment: rs2d.DataCommitment
) -> CodecFraudProof:
    """Wrap a recovery fault into a verifiable proof.

    Every decode input must carry its data-root proof. Recovery tracks
    those for shares that arrived from the network and proves the cells it
    filled itself through the axis that filled them; a share that arrived
    without a proof raises ValueError.
    """
    if any(proof is None for proof in fault.proofs):
        raise ValueError("codec fault lacks share proofs for some inputs")
    return CodecFraudProof(
        block_hash=block_hash,
        axis=fault.axis,
        j=fault.j,
        axis_root=fault.axis_root,
        axis_root_proof=commitment.prove_axis_root(fault.axis, fault.j),
        shares=fault.shares,
        share_proofs=tuple(fault.proofs),  # type: ignore[arg-type]
    )


def verify_codec_fraud_proof(proof: CodecFraudProof, store: HeaderStore) -> bool:
    """True iff the proven shares reconstruct an axis whose root differs
    from the committed one."""
    header = store.get(proof.block_hash)
    if header is None:
        return False
    try:
        width = rs2d.matrix_width_for(header.data_length)
    except ValueError:
        return False
    k = width // 2
    if proof.axis not in (ROW, COLUMN) or not 0 <= proof.j < width:
        return False

    # one memo for the whole check: the share proofs reuse the root path
    # checked here, and the decoded axis reuses the digests of the input
    # shares it reproduces and of the nodes above them
    memo = merkle.HashMemo()
    top = rs2d.top_index(proof.axis, proof.j, width)
    if not merkle.verify_merkle_proofs(
        [(proof.axis_root, proof.axis_root_proof, top)], header.data_root, 2 * width, memo
    ):
        return False

    # too few shares, or two at one position, make rs_decode raise below
    if len(proof.share_proofs) != len(proof.shares):
        return False

    items = []
    for (share, pos, ax), share_proof in zip(proof.shares, proof.share_proofs):
        try:
            virtual = share_index(
                proof.axis, proof.j, pos, ax, width, header.data_length
            )
        except ValueError:
            return False
        items.append((share, share_proof, virtual))
    if not rs2d.verify_share_merkle_proofs(
        items, header.data_root, header.data_length, memo
    ):
        return False

    try:
        recovered = rs_decode([(pos, share) for share, pos, _ in proof.shares], k)
    except (Unrecoverable, ValueError):
        return False
    digests = [memo.leaf(share) for share in recovered]
    return merkle.MerkleTree.from_digests(digests, memo).root != proof.axis_root


# --- The honest full node's check ---------------------------------------------


def check_block(
    partial: rs2d.PartialMatrix, built: BuiltBlock, prev_state: StateTree
) -> Union[TransitionFraudProof, CodecFraudProof, None]:
    """A proof of the block's first fault, codec before transition, or None.

    Recovers the matrix from the shares in partial against built's
    commitment, filling partial in place, and raises rs2d.Unrecoverable
    when too few shares are present. The transition replay runs on the
    recovered data, and a period-criterion violation yields a transition
    proof too.
    """
    result = rs2d.recover_matrix(partial, built.commitment)
    if isinstance(result, CodecFault):
        return generate_codec_fraud_proof(result, built.header.block_hash(), built.commitment)
    return generate_transition_fraud_proof(replace(built, matrix=result), prev_state)


# --- Double-tree transition fraud proofs --------------------------------------


@dataclass(frozen=True)
class DoubleTreeFraudProof:
    """Transition fraud proof against separate transfer and trace trees."""

    block_hash: bytes
    pre_trace: Optional[tuple[bytes, MerkleProof, int]]  # (trace, proof, x)
    post_trace: Optional[tuple[bytes, MerkleProof]]
    start_index: int
    txs: tuple[Transaction, ...]
    tx_proofs: tuple[MerkleProof, ...]
    witnesses: tuple[StateWitness, ...]
    payout_witness: Optional[StateWitness] = None


def verify_double_tree_fraud_proof(
    proof: DoubleTreeFraudProof,
    store: HeaderStore,
    p: int = DEFAULT_PERIOD,
    prev_state_root: Optional[bytes] = None,
) -> bool:
    """Verifier for the two-tree layout.

    The period a transfer belongs to is pure index arithmetic here, so in
    addition to the membership checks the proof must cover its period
    completely: from the period's first transfer to its last (or to the
    block's last transfer when no post-trace is given). The first period's
    pre-root is prev_state_root; without it that period's proof is False.
    """
    header = store.dt_headers.get(proof.block_hash)
    if header is None:
        return False
    count = len(proof.txs)
    if len(proof.tx_proofs) != count or len(proof.witnesses) != count:
        return False
    y = proof.start_index
    if y < 0 or y + count > header.tx_length:
        return False

    if proof.pre_trace is not None:
        trace, trace_proof, x = proof.pre_trace
        if not merkle.verify_merkle_proof(
            trace, trace_proof, header.trace_root, header.trace_length, x
        ):
            return False
    else:
        x = -1

    if proof.post_trace is not None:
        post, post_proof = proof.post_trace
        if not merkle.verify_merkle_proof(
            post, post_proof, header.trace_root, header.trace_length, x + 1
        ):
            return False

    # Period membership and completeness: the run starts where period x
    # starts, holds at most p transfers, and ends at the period (or block)
    # boundary.
    if y != (x + 1) * p or count > p:
        return False
    if proof.post_trace is not None:
        if y + count != (x + 2) * p:
            return False
    else:
        if y + count != header.tx_length:
            return False

    items = list(zip([tx.to_bytes() for tx in proof.txs], proof.tx_proofs, range(y, y + count)))
    if not merkle.verify_merkle_proofs(items, header.tx_root, header.tx_length):
        return False

    pre_root = proof.pre_trace[0] if proof.pre_trace is not None else prev_state_root
    post_root = proof.post_trace[0] if proof.post_trace is not None else None
    return _replay_disagrees(
        pre_root, proof.txs, proof.witnesses, post_root, proof.payout_witness, header
    )


def generate_double_tree_fraud_proof(
    built: DoubleTreeBlock, prev_state: StateTree
) -> Optional[DoubleTreeFraudProof]:
    """Replay a double-tree block; emit a proof for the first faulty period."""
    header = built.header
    tree = prev_state.copy()
    p = built.p
    n = len(built.txs)
    period_count = (n + p - 1) // p if n else 0

    for x in range(-1, max(period_count - 1, 0)):
        start = (x + 1) * p
        end = min((x + 2) * p, n)
        txs = built.txs[start:end]
        has_post = x + 1 < len(built.traces)
        declared_post = built.traces[x + 1] if has_post else None

        replay = _replay_period(tree, txs, declared_post, built.producer, header.state_root)
        if replay is not None:
            witnesses, payout_witness = replay
            # each tree is built once, and only when a proof needs it
            pre = post = None
            if built.traces:
                traces = merkle.MerkleTree(built.traces)
                pre = (built.traces[x], traces.prove(x), x) if x >= 0 else None
                if declared_post is not None:
                    post = (declared_post, traces.prove(x + 1))
            tx_proofs: tuple[MerkleProof, ...] = ()
            if txs:
                tx_tree = merkle.MerkleTree([tx.to_bytes() for tx in built.txs])
                tx_proofs = tuple(map(tx_tree.prove, range(start, end)))
            return DoubleTreeFraudProof(
                block_hash=header.block_hash(),
                pre_trace=pre,
                post_trace=post,
                start_index=start,
                txs=tuple(txs),
                tx_proofs=tx_proofs,
                witnesses=tuple(witnesses),
                payout_witness=payout_witness,
            )
    return None


# --- Client-side application ---------------------------------------------------


def apply_fraud_proof(
    proof: Union[TransitionFraudProof, CodecFraudProof],
    store: HeaderStore,
    p: int = DEFAULT_PERIOD,
) -> bool:
    """Verify a wire proof of either in-band kind, transition or codec;
    permanently reject the header on True."""
    if isinstance(proof, TransitionFraudProof):
        ok = verify_transition_fraud_proof(proof, store, p)
    else:
        ok = verify_codec_fraud_proof(proof, store)
    if ok:
        store.reject(proof.block_hash)
    return ok


# --- Wire formats ---------------------------------------------------------------

_TRANSITION_TAG = b"T"
_CODEC_TAG = b"C"


def _encode_witness(witness: StateWitness) -> bytes:
    out = [len(witness.entries).to_bytes(2, "big")]
    for key, value, proof in witness.entries:
        out.append(key)
        out.append(len(value).to_bytes(2, "big"))
        out.append(value)
        out.append(proof.to_bytes())
    return b"".join(out)


def _read_witness(reader: Reader) -> StateWitness:
    entries = []
    for _ in range(reader.uint(2)):
        key = reader.take(32)
        value = reader.take(reader.uint(2))
        entries.append((key, value, SparseProof.read(reader, key, value)))
    return StateWitness(tuple(entries))


def encode_transition_fraud_proof(proof: TransitionFraudProof) -> bytes:
    if not proof.shares:
        raise ValueError("proof has no shares")
    share_size = len(proof.shares[0])
    out = [
        _TRANSITION_TAG,
        proof.block_hash,
        proof.start_index.to_bytes(8, "big"),
        share_size.to_bytes(4, "big"),
        len(proof.shares).to_bytes(2, "big"),
    ]
    out.extend(proof.shares)
    out.append(bytes(proof.origins))
    for sp in proof.share_proofs:
        out.append(sp.to_bytes())
    out.append(len(proof.witnesses).to_bytes(2, "big"))
    for witness in proof.witnesses:
        out.append(_encode_witness(witness))
    if proof.payout_witness is None:
        out.append(b"\x00")
    else:
        out.append(b"\x01")
        out.append(_encode_witness(proof.payout_witness))
    return b"".join(out)


def decode_transition_fraud_proof(raw: bytes) -> TransitionFraudProof:
    return Reader(raw).whole(_read_transition_fraud_proof)


def _read_transition_fraud_proof(reader: Reader) -> TransitionFraudProof:
    if reader.take(1) != _TRANSITION_TAG:
        raise ValueError("not a transition fraud proof")
    block_hash = reader.take(32)
    start_index = reader.uint(8)
    share_size = reader.uint(4)
    count = reader.uint(2)
    blob = reader.take(count * share_size)
    # keyword arguments are evaluated in order, which is wire order
    return TransitionFraudProof(
        block_hash=block_hash,
        start_index=start_index,
        shares=tuple(blob[i * share_size : (i + 1) * share_size] for i in range(count)),
        origins=tuple(reader.take(count)),
        share_proofs=tuple(ShareProof.read(reader) for _ in range(count)),
        witnesses=tuple(_read_witness(reader) for _ in range(reader.uint(2))),
        payout_witness=_read_witness(reader) if reader.uint(1) == 1 else None,
    )


def encode_codec_fraud_proof(proof: CodecFraudProof) -> bytes:
    if not proof.shares:
        raise ValueError("proof has no shares")
    share_size = len(proof.shares[0][0])
    out = [
        _CODEC_TAG,
        proof.block_hash,
        bytes([proof.axis]),
        proof.j.to_bytes(8, "big"),
        proof.axis_root,
        proof.axis_root_proof.to_bytes(),
        share_size.to_bytes(4, "big"),
        len(proof.shares).to_bytes(2, "big"),
    ]
    for share, pos, ax in proof.shares:
        out.append(pos.to_bytes(8, "big"))
        out.append(bytes([ax]))
        out.append(share)
    for sp in proof.share_proofs:
        out.append(sp.to_bytes())
    return b"".join(out)


def decode_codec_fraud_proof(raw: bytes) -> CodecFraudProof:
    return Reader(raw).whole(_read_codec_fraud_proof)


def _read_codec_fraud_proof(reader: Reader) -> CodecFraudProof:
    if reader.take(1) != _CODEC_TAG:
        raise ValueError("not a codec fraud proof")
    block_hash = reader.take(32)
    axis = reader.uint(1)
    j = reader.uint(8)
    axis_root = reader.take(32)
    axis_root_proof = MerkleProof.read(reader)
    share_size = reader.uint(4)
    count = reader.uint(2)
    shares = []
    for _ in range(count):
        pos, ax = reader.uint(8), reader.uint(1)
        shares.append((reader.take(share_size), pos, ax))
    share_proofs = tuple(ShareProof.read(reader) for _ in range(count))
    return CodecFraudProof(
        block_hash, axis, j, axis_root, axis_root_proof, tuple(shares), share_proofs
    )


def encode_fraud_proof(proof: Union[TransitionFraudProof, CodecFraudProof]) -> bytes:
    if isinstance(proof, TransitionFraudProof):
        return encode_transition_fraud_proof(proof)
    return encode_codec_fraud_proof(proof)


def decode_fraud_proof(raw: bytes) -> Union[TransitionFraudProof, CodecFraudProof]:
    if raw[:1] == _TRANSITION_TAG:
        return decode_transition_fraud_proof(raw)
    if raw[:1] == _CODEC_TAG:
        return decode_codec_fraud_proof(raw)
    raise ValueError("unknown fraud proof tag")
