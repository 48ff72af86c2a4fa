"""Block data layout: message framing into shares, periods, and headers.

Block data is a stream of length-prefixed messages packed contiguously
into fixed-size shares. A message is a Transaction or a 32-byte
intermediate state root (a "trace"), and the parser hands out those two
types. Every share starts with a 2-byte field holding the 1-based
payload position of the first message that starts inside it, or 0 when
none does, so a parser can enter the stream at any share boundary. The
field is 2 bytes and 1-based (rather than a raw byte index) so that
"no start here" is unambiguous even for a message starting at payload
position 0, and so share sizes above 256 bytes still fit.

No other module knows this layout: pack_shares is its one packer, and
the parser spans each message by share indexes, not byte offsets.

A trace is emitted after every p transfers, and p is at least
min_period(share_size), so that every period's fraud proof can name its
slice by a share. The block's final state root lives in the header only
and includes the producer's fee payout, so the data stream ends either
with a boundary trace or with a partial run of transfers. read_period is
the one rule for where a period starts and ends; the fraud prover and
verifier both slice through it.

A BuiltBlock is its header, its extended matrix and p: the original
shares (the matrix's top-left k x k quadrant), the commitment and the
producer (the header's additional data) all derive from those.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

from . import merkle, rs2d
from .erasure import MAX_K
from .merkle import DIGEST_SIZE, hash_bytes
from .rs2d import DataCommitment, ExtendedMatrix
from .smt import StateTree
from .state import Transaction, _apply_rules, apply_fee_payout

MSG_TX = 1
MSG_TRACE = 2

MIN_SHARE_SIZE = 34
MAX_SHARE_SIZE = 65535

DEFAULT_PERIOD = 10

# Default producer identity credited with fees by built blocks.
DEFAULT_PRODUCER = hash_bytes(b"producer:0")


class ParseError(Exception):
    """Share run or message stream is malformed."""


class PeriodError(ParseError):
    """Message list violates the period criterion."""


def _check_share_size(share_size: int, error: type[Exception] = ValueError) -> None:
    if not MIN_SHARE_SIZE <= share_size <= MAX_SHARE_SIZE:
        raise error(f"share size must be in {MIN_SHARE_SIZE}..{MAX_SHARE_SIZE}")


def min_period(share_size: int) -> int:
    """Smallest period length p at which every transition proof verifies.

    A proof names its slice by the share in which the slice's pre-root
    trace starts, and the verifier enters that share at the first message
    starting in it, reading share 0 as block start. On the wire a transfer
    is 91 bytes and a trace 35, so the first trace starts at payload byte
    91p and later ones 91p + 35 apart. Once 91p fills a share payload,
    every trace starts past share 0 and in a share of its own.
    """
    return max(1, -(-(share_size - 2) // (3 + Transaction.WIRE_SIZE)))


def shares_needed(tx_count: int, p: int, share_size: int) -> int:
    """Shares that serialize_shares fills with tx_count transfers and a
    trace after every p-th: 91 framed bytes per transfer and 35 per trace,
    over a payload of share_size - 2 bytes per share."""
    stream = (3 + Transaction.WIRE_SIZE) * tx_count + (3 + DIGEST_SIZE) * (tx_count // p)
    return -(-stream // (share_size - 2))


def pack_shares(stream: bytes, starts: Sequence[int], share_size: int) -> list[bytes]:
    """Cut a payload stream into shares of share_size bytes, the last one
    zero-padded. Each share opens with the 1-based offset of the first of
    the ascending stream positions starts that falls inside it, or 0."""
    _check_share_size(share_size)
    payload_size = share_size - 2
    offsets = [0] * -(-len(stream) // payload_size)
    for start in reversed(starts):  # the first start in a share is written last
        offsets[start // payload_size] = start % payload_size + 1
    shares = []
    for index, offset in enumerate(offsets):
        chunk = bytes(stream[index * payload_size : (index + 1) * payload_size])
        shares.append(offset.to_bytes(2, "big") + chunk.ljust(payload_size, b"\x00"))
    return shares


def serialize_shares(
    messages: Sequence[Union[Transaction, bytes]], share_size: int
) -> list[bytes]:
    """Pack transfers and traces into shares of share_size bytes each."""
    stream = bytearray()
    starts: list[int] = []
    for message in messages:
        starts.append(len(stream))
        if isinstance(message, Transaction):
            stream += bytes([MSG_TX, 0, Transaction.WIRE_SIZE]) + message.to_bytes()
        elif len(message) == DIGEST_SIZE:
            stream += bytes([MSG_TRACE, 0, DIGEST_SIZE]) + message
        else:
            raise ValueError("trace message must be 32 bytes")
    return pack_shares(stream, starts, share_size)


@dataclass(frozen=True)
class ParsedMessage:
    message: Union[Transaction, bytes]  # a transfer, or a trace's 32-byte root
    first_share: int  # index in the parsed run of the share holding its first byte
    last_share: int   # and of the share holding its last byte


def parse_shares_with_spans(shares: Sequence[bytes]) -> list[ParsedMessage]:
    """Parse a contiguous share run into messages with their share spans.

    The first message is located through the offset field of the first
    share in which any message starts; bytes before it (the tail of an
    earlier message) are skipped, and a trailing partial message is
    dropped. Structural damage (a share size out of range, bad offsets,
    unknown tags, undecodable bodies) raises ParseError.
    """
    if not shares:
        return []
    share_size = len(shares[0])
    _check_share_size(share_size, ParseError)
    payload_size = share_size - 2
    payloads = []
    first_start: Optional[int] = None
    for idx, share in enumerate(shares):
        if len(share) != share_size:
            raise ParseError("shares must all have the same size")
        offset = int.from_bytes(share[:2], "big")
        if offset > payload_size:
            raise ParseError("share offset field out of range")
        if offset and first_start is None:
            first_start = idx * payload_size + offset - 1
        payloads.append(share[2:])
    if first_start is None:
        return []
    stream = b"".join(payloads)
    messages: list[ParsedMessage] = []
    pos = first_start
    while pos < len(stream):
        tag = stream[pos]
        if tag == 0:
            break  # zero padding after the last message
        if tag not in (MSG_TX, MSG_TRACE):
            raise ParseError("unknown message tag")
        if pos + 3 > len(stream):
            break  # header of a message continuing past the run
        length = int.from_bytes(stream[pos + 1 : pos + 3], "big")
        body = stream[pos + 3 : pos + 3 + length]
        if len(body) < length:
            break  # body continues past the run
        message: Union[Transaction, bytes] = body
        if tag == MSG_TX:
            try:
                message = Transaction.from_bytes(body)
            except ValueError as exc:
                raise ParseError(str(exc)) from exc
        elif length != DIGEST_SIZE:
            raise ParseError("trace message must be 32 bytes")
        messages.append(
            ParsedMessage(message, pos // payload_size, (pos + 2 + length) // payload_size)
        )
        pos += 3 + length
    return messages


@dataclass(frozen=True)
class PeriodSlice:
    """One replay unit: optional boundary traces around at most p transfers,
    and the parsed messages it was read from, pre-root through post-root."""

    pre_root: Optional[bytes]
    txs: tuple[Transaction, ...]
    post_root: Optional[bytes]
    messages: tuple[ParsedMessage, ...]


def read_period(
    run: Sequence[ParsedMessage], at_block_start: bool, p: int = DEFAULT_PERIOD
) -> PeriodSlice:
    """The period that a run of parsed messages opens.

    At block start the pre-root is the previous block's state root, so the
    slice opens with the run's first message, and an empty run is the
    empty block's final slice. Elsewhere transfers before the run's first
    trace spill over from the previous period, and that trace is the
    pre-root. Transfers then run up to the next trace, the post-root;
    messages after it belong to the following period. A slice that reaches
    the end of the run without one is the block-final slice. More than p
    transfers, or a mid-block run without a trace, violate the period
    criterion and raise PeriodError.
    """
    if p < 1:
        raise ValueError("period length must be positive")
    start = 0
    pre_root: Optional[bytes] = None
    if not at_block_start:
        start = next((i for i, pm in enumerate(run) if isinstance(pm.message, bytes)), -1)
        if start < 0:
            raise PeriodError("period criterion violated: no pre-root trace")
        pre_root = run[start].message
    txs: list[Transaction] = []
    for end in range(start if at_block_start else start + 1, len(run)):
        message = run[end].message
        if isinstance(message, bytes):
            return PeriodSlice(pre_root, tuple(txs), message, tuple(run[start : end + 1]))
        txs.append(message)
        if len(txs) > p:
            raise PeriodError("period criterion violated: too many transfers")
    return PeriodSlice(pre_root, tuple(txs), None, tuple(run[start:]))


@dataclass(frozen=True)
class BlockHeader:
    """Chain header; the wire layout is
    prevHash(32) dataRoot(32) stateRoot(32) dataLength(8) adLen(2) additionalData."""

    prev_hash: bytes
    data_root: bytes
    data_length: int
    state_root: bytes
    additional_data: bytes = b""

    def to_bytes(self) -> bytes:
        return (
            self.prev_hash
            + self.data_root
            + self.state_root
            + self.data_length.to_bytes(8, "big")
            + len(self.additional_data).to_bytes(2, "big")
            + self.additional_data
        )

    @classmethod
    def read(cls, reader: merkle.Reader) -> "BlockHeader":
        return cls(  # keyword arguments are evaluated in order, which is wire order
            prev_hash=reader.take(32),
            data_root=reader.take(32),
            state_root=reader.take(32),
            data_length=reader.uint(8),
            additional_data=reader.take(reader.uint(2)),
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "BlockHeader":
        return merkle.Reader(raw).whole(cls.read)

    def block_hash(self) -> bytes:
        return hash_bytes(self.to_bytes())


MODE_HONEST = "honest"
MODE_INVALID_TRANSITION = "invalid-transition"
MODE_INVALID_CODE = "invalid-code"

_MODES = (MODE_HONEST, MODE_INVALID_TRANSITION, MODE_INVALID_CODE)


@dataclass
class BuiltBlock:
    header: BlockHeader
    matrix: ExtendedMatrix
    p: int = DEFAULT_PERIOD

    @property
    def shares(self) -> list[bytes]:
        """The k*k original framed shares, padding included, row-major."""
        k = self.matrix.k
        return [share for row in self.matrix.cells[:k] for share in row[:k]]

    @property
    def commitment(self) -> DataCommitment:
        return self.matrix.commitment

    @property
    def producer(self) -> bytes:
        return self.header.additional_data


def _tamper(data: bytes) -> bytes:
    """Flip the low bit of the last byte: the producer's one corruption."""
    return data[:-1] + bytes([data[-1] ^ 0x01])


def _replay_block(
    prev_state: StateTree, txs: Sequence[Transaction], p: int, producer: bytes
) -> tuple[list[bytes], bytes]:
    """Apply txs to a copy of prev_state: the root after every p-th transfer,
    and the final state root after the producer's fee payout. Raises
    ValueError on an illegal transfer or an overflowing payout."""
    state = prev_state.copy()
    traces: list[bytes] = []
    for index, tx in enumerate(txs):
        if not _apply_rules(state, tx):
            raise ValueError(f"transfer {index} is illegal against the running state")
        if (index + 1) % p == 0:
            traces.append(state.root())
    state_root = apply_fee_payout(state, producer)
    if not isinstance(state_root, bytes):
        raise ValueError("the fee payout overflows the producer's balance")
    return traces, state_root


def check_layout(k: int, share_size: int, p: int, tx_count: int) -> None:
    """Raise ValueError unless build_block can frame tx_count transfers at
    period p into at most k*k shares of share_size bytes."""
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k must be in 1..{MAX_K}")
    _check_share_size(share_size)
    if share_size % 2:
        raise ValueError("share size must be even")
    if p < min_period(share_size):
        raise ValueError(f"period length must be at least {min_period(share_size)}")
    if shares_needed(tx_count, p, share_size) > k * k:
        raise ValueError("data too large for chosen k")


def build_block(
    prev: BlockHeader,
    prev_state: StateTree,
    txs: Sequence[Transaction],
    k: int,
    share_size: int,
    p: int = DEFAULT_PERIOD,
    producer: bytes = DEFAULT_PRODUCER,
    mode: str = MODE_HONEST,
    corrupt: str = "trace",
) -> BuiltBlock:
    """Assemble a block from transfers, honestly or with a planted fault.

    invalid-transition corrupts the first boundary trace (or the header
    state root when corrupt="header" or no trace exists); invalid-code
    replaces one parity cell before committing.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown block mode {mode!r}")
    check_layout(k, share_size, p, len(txs))

    traces, state_root = _replay_block(prev_state, txs, p, producer)
    if mode == MODE_INVALID_TRANSITION:
        if corrupt == "trace" and traces:
            traces[0] = _tamper(traces[0])
        else:
            state_root = _tamper(state_root)

    messages: list[Union[Transaction, bytes]] = []
    for index, tx in enumerate(txs):
        messages.append(tx)
        if (index + 1) % p == 0:
            messages.append(traces[index // p])

    matrix = rs2d.extend_shares(serialize_shares(messages, share_size), k, share_size)

    if mode == MODE_INVALID_CODE:
        # replace one parity cell before committing
        row = matrix.cells[0]
        matrix = replace(matrix, cells=(row[:-1] + (_tamper(row[-1]),),) + matrix.cells[1:])

    commitment = rs2d.commit(matrix)
    header = BlockHeader(
        prev_hash=prev.block_hash(),
        data_root=commitment.data_root,
        data_length=commitment.data_length,
        state_root=state_root,
        additional_data=producer,
    )
    return BuiltBlock(header, matrix, p)


def genesis_header(state: StateTree) -> BlockHeader:
    """Synthetic chain anchor for a starting state."""
    return BlockHeader(
        prev_hash=b"\x00" * 32,
        data_root=b"\x00" * 32,
        data_length=0,
        state_root=state.root(),
        additional_data=b"",
    )


# --- Double-tree layout: separate transfer and trace commitments. -----------
#
# This variant commits transfers and traces in two plain Merkle trees and
# keys periods by arithmetic on transfer indexes instead of in-band
# boundaries. It does not use shares and takes no part in availability
# sampling; it exists to exercise the alternative fraud-proof verifier.


@dataclass(frozen=True)
class DoubleTreeHeader:
    prev_hash: bytes
    tx_root: bytes
    tx_length: int
    trace_root: bytes
    trace_length: int
    state_root: bytes
    additional_data: bytes = b""

    def to_bytes(self) -> bytes:
        return (
            self.prev_hash
            + self.tx_root
            + self.tx_length.to_bytes(8, "big")
            + self.trace_root
            + self.trace_length.to_bytes(8, "big")
            + self.state_root
            + len(self.additional_data).to_bytes(2, "big")
            + self.additional_data
        )

    def block_hash(self) -> bytes:
        return hash_bytes(self.to_bytes())


@dataclass
class DoubleTreeBlock:
    header: DoubleTreeHeader
    txs: list[Transaction]
    traces: list[bytes]
    p: int

    @property
    def producer(self) -> bytes:
        return self.header.additional_data


def build_double_tree_block(
    prev_state_root: bytes,
    prev_state: StateTree,
    txs: Sequence[Transaction],
    p: int = DEFAULT_PERIOD,
    producer: bytes = DEFAULT_PRODUCER,
    mode: str = MODE_HONEST,
) -> DoubleTreeBlock:
    """Double-tree block; traces are strictly interior (one per full period
    that is followed by more transfers), so every period is provable."""
    if mode not in (MODE_HONEST, MODE_INVALID_TRANSITION):
        raise ValueError(f"unsupported double-tree mode {mode!r}")
    if p < 1:
        raise ValueError("period length must be positive")
    traces, state_root = _replay_block(prev_state, txs, p, producer)
    # only boundaries followed by more transfers: multiples of p below n
    traces = traces[: max(len(txs) - 1, 0) // p]
    if mode == MODE_INVALID_TRANSITION:
        if traces:
            traces[0] = _tamper(traces[0])
        else:
            state_root = _tamper(state_root)

    tx_root = merkle.root([tx.to_bytes() for tx in txs]) if txs else b"\x00" * 32
    trace_root = merkle.root(traces) if traces else b"\x00" * 32
    header = DoubleTreeHeader(
        prev_hash=prev_state_root,
        tx_root=tx_root,
        tx_length=len(txs),
        trace_root=trace_root,
        trace_length=len(traces),
        state_root=state_root,
        additional_data=producer,
    )
    return DoubleTreeBlock(header, list(txs), traces, p)
