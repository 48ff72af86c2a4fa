"""Block data layout: message framing into shares, periods, and headers.

Block data is a stream of length-prefixed messages (transfers and
intermediate state roots, "traces") packed contiguously into fixed-size
shares. Every share starts with a 2-byte field holding the 1-based
payload position of the first message that starts inside it, or 0 when
none does, so a parser can enter the stream at any share boundary. The
field is 2 bytes and 1-based (rather than a raw byte index) so that
"no start here" is unambiguous even for a message starting at payload
position 0, and so share sizes above 256 bytes still fit.

A trace is emitted after every p transfers, and p is at least
min_period(share_size), so that every period's fraud proof can name its
slice by a share. The block's final state root lives in the header only
and includes the producer's fee payout, so the data stream ends either
with a boundary trace or with a partial run of transfers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import merkle, rs2d
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


@dataclass(frozen=True)
class Message:
    kind: int
    body: bytes

    def __post_init__(self) -> None:
        if self.kind == MSG_TX:
            if len(self.body) != Transaction.WIRE_SIZE:
                raise ValueError("transfer message must be 88 bytes")
        elif self.kind == MSG_TRACE:
            if len(self.body) != DIGEST_SIZE:
                raise ValueError("trace message must be 32 bytes")
        else:
            raise ValueError("unknown message kind")

    @classmethod
    def transaction(cls, tx: Transaction) -> "Message":
        return cls(MSG_TX, tx.to_bytes())

    @classmethod
    def trace(cls, root: bytes) -> "Message":
        return cls(MSG_TRACE, root)

    def as_transaction(self) -> Transaction:
        if self.kind != MSG_TX:
            raise ValueError("not a transfer message")
        return Transaction.from_bytes(self.body)

    @property
    def is_trace(self) -> bool:
        return self.kind == MSG_TRACE


@dataclass(frozen=True)
class PeriodSlice:
    """One replay unit: optional boundary traces around at most p transfers."""

    pre_root: Optional[bytes]
    post_root: Optional[bytes]
    txs: tuple[Transaction, ...]


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


def serialize_shares(messages: Sequence[Message], share_size: int) -> list[bytes]:
    """Pack messages into shares of share_size bytes each."""
    _check_share_size(share_size)
    payload_size = share_size - 2
    stream = bytearray()
    starts: list[int] = []
    for msg in messages:
        if len(msg.body) > 0xFFFF:
            raise ValueError("message too large to frame")
        starts.append(len(stream))
        stream.append(msg.kind)
        stream += len(msg.body).to_bytes(2, "big")
        stream += msg.body
    if not stream:
        return []
    shares = []
    start_iter = iter(starts)
    next_start = next(start_iter, None)
    for base in range(0, len(stream), payload_size):
        chunk = bytes(stream[base : base + payload_size]).ljust(payload_size, b"\x00")
        offset = 0
        while next_start is not None and next_start < base:
            next_start = next(start_iter, None)
        if next_start is not None and next_start < base + payload_size:
            offset = next_start - base + 1
        shares.append(offset.to_bytes(2, "big") + chunk)
    return shares


@dataclass(frozen=True)
class ParsedMessage:
    message: Message
    start: int  # byte offset of the message header within the payload stream
    end: int    # one past the last body byte


def parse_shares_with_spans(shares: Sequence[bytes]) -> list[ParsedMessage]:
    """Parse a contiguous share run into messages with byte spans.

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
        try:
            message = Message(tag, body)
            if tag == MSG_TX:
                message.as_transaction()
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        messages.append(ParsedMessage(message, pos, pos + 3 + length))
        pos += 3 + length
    return messages


def parse_shares(shares: Sequence[bytes]) -> list[Message]:
    return [parsed.message for parsed in parse_shares_with_spans(shares)]


def parse_period(messages: Sequence[Message], p: int = DEFAULT_PERIOD) -> PeriodSlice:
    """Extract the leading period from a message list.

    The slice is an optional leading trace, then transfers up to the next
    trace (the post-root) or the end of the list. Messages after the
    closing trace belong to the following period and are ignored. More
    than p transfers before the closing trace violate the period
    criterion and raise PeriodError.
    """
    if p < 1:
        raise ValueError("period length must be positive")
    if not messages:
        raise PeriodError("period criterion violated: no messages")
    idx = 0
    pre_root: Optional[bytes] = None
    if messages[0].is_trace:
        pre_root = messages[0].body
        idx = 1
    txs: list[Transaction] = []
    post_root: Optional[bytes] = None
    for msg in messages[idx:]:
        if msg.is_trace:
            post_root = msg.body
            break
        txs.append(msg.as_transaction())
        if len(txs) > p:
            raise PeriodError("period criterion violated: too many transfers")
    return PeriodSlice(pre_root, post_root, tuple(txs))


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
MODE_WITHHOLD = "withhold"

_MODES = (MODE_HONEST, MODE_INVALID_TRANSITION, MODE_INVALID_CODE, MODE_WITHHOLD)


@dataclass
class BuiltBlock:
    header: BlockHeader
    matrix: ExtendedMatrix
    commitment: DataCommitment
    shares: list[bytes]            # the k*k original framed shares, padding included
    messages: list[Message]
    traces: list[bytes]            # boundary traces as they appear in the data
    producer: bytes
    p: int = DEFAULT_PERIOD


def _tamper(data: bytes) -> bytes:
    """Flip the low bit of the last byte: the producer's one corruption."""
    return data[:-1] + bytes([data[-1] ^ 0x01])


def _replay_block(
    prev_state: StateTree, txs: Sequence[Transaction], p: int, producer: bytes
) -> tuple[list[bytes], bytes]:
    """Apply txs to a copy of prev_state: the root after every p-th transfer,
    and the final state root after the producer's fee payout."""
    state = prev_state.copy()
    traces: list[bytes] = []
    for index, tx in enumerate(txs):
        if not _apply_rules(state, tx):
            raise ValueError(f"transfer {index} is illegal against the running state")
        if (index + 1) % p == 0:
            traces.append(state.root())
    return traces, apply_fee_payout(state, producer)


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
    replaces one parity cell before committing. withhold builds honestly;
    which cells go unserved is the serving side's business.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown block mode {mode!r}")
    _check_share_size(share_size)
    if share_size % 2:
        raise ValueError("share size must be even")
    if p < min_period(share_size):
        raise ValueError(f"period length must be at least {min_period(share_size)}")

    traces, state_root = _replay_block(prev_state, txs, p, producer)
    if mode == MODE_INVALID_TRANSITION:
        if corrupt == "trace" and traces:
            traces[0] = _tamper(traces[0])
        else:
            state_root = _tamper(state_root)

    messages: list[Message] = []
    for index, tx in enumerate(txs):
        messages.append(Message.transaction(tx))
        if (index + 1) % p == 0:
            messages.append(Message.trace(traces[index // p]))

    shares = serialize_shares(messages, share_size)
    if len(shares) > k * k:
        raise ValueError("data too large for chosen k")
    shares += [b"\x00" * share_size] * (k * k - len(shares))
    matrix = rs2d.extend_shares(shares, k, share_size)

    if mode == MODE_INVALID_CODE:
        # replace one parity cell before committing
        row, col = 0, matrix.width - 1
        matrix.cells[row][col] = _tamper(matrix.cells[row][col])
        matrix.invalidate_roots()

    commitment = rs2d.commit(matrix)
    header = BlockHeader(
        prev_hash=prev.block_hash(),
        data_root=commitment.data_root,
        data_length=commitment.data_length,
        state_root=state_root,
        additional_data=producer,
    )
    return BuiltBlock(
        header=header,
        matrix=matrix,
        commitment=commitment,
        shares=shares,
        messages=messages,
        traces=traces,
        producer=producer,
        p=p,
    )


def original_share_count(data_length: int) -> int:
    """Number of pre-extension shares committed by a header: (w/2)^2."""
    width = rs2d.matrix_width_for(data_length)
    return (width // 2) ** 2


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


def period(tx_index: int, p: int) -> int:
    """Trace index holding the pre-state for the transfer at tx_index.

    -1 means the pre-state is the previous block's state root.
    """
    if tx_index < 0:
        raise ValueError("transfer index must be non-negative")
    if p < 1:
        raise ValueError("period length must be positive")
    return tx_index // p - 1


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
    producer: bytes
    p: int


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
    return DoubleTreeBlock(header, list(txs), traces, producer, p)
