import random

import pytest

from daproofs import block, rs2d
from daproofs.block import (
    BlockHeader,
    Message,
    ParseError,
    PeriodError,
    build_block,
    build_double_tree_block,
    genesis_header,
    min_period,
    parse_period,
    parse_shares,
    parse_shares_with_spans,
    period,
    serialize_shares,
)
from daproofs.state import ERR, apply_transaction, collect_fees
from tests.conftest import account_key, transfer_chain


def tx_message(rng, keys=None, nonce=0):
    keys = keys or [account_key("m1"), account_key("m2")]
    from daproofs.state import Transaction

    return Message.transaction(
        Transaction(keys[0], keys[1], rng.randrange(100), rng.randrange(4), nonce)
    )


def random_messages(rng, count):
    msgs = []
    nonce = 0
    for _ in range(count):
        if rng.random() < 0.25:
            msgs.append(Message.trace(bytes(rng.randrange(256) for _ in range(32))))
        else:
            msgs.append(tx_message(rng, nonce=nonce))
            nonce += 1
    return msgs


def test_single_tx_offset_is_one():
    rng = random.Random(0)
    shares = serialize_shares([tx_message(rng)], 256)
    assert len(shares) == 1
    assert shares[0][:2] == (1).to_bytes(2, "big")


def test_spanning_message_offset_zero():
    # share 0 holds the head of one long-enough run; the message that
    # spans into share 1 leaves share 1 with no message start
    rng = random.Random(1)
    msgs = [tx_message(rng, nonce=i) for i in range(2)]
    shares = serialize_shares(msgs, 128)  # payload 126; second tx spans shares 0-1
    assert len(shares) == 2
    assert int.from_bytes(shares[0][:2], "big") == 1
    assert int.from_bytes(shares[1][:2], "big") == 0


def test_round_trip_random_message_lists():
    rng = random.Random(2)
    for trial in range(1000):
        msgs = random_messages(rng, rng.randrange(1, 12))
        share_size = rng.choice([34, 64, 101 * 2, 256])
        shares = serialize_shares(msgs, share_size)
        assert parse_shares(shares) == msgs


def test_empty_cases():
    assert serialize_shares([], 64) == []
    assert parse_shares([]) == []
    assert parse_shares([b"\x00" * 64]) == []


def test_mid_block_slice_skips_partial_leading_message():
    rng = random.Random(3)
    msgs = [tx_message(rng, nonce=i) for i in range(6)]
    shares = serialize_shares(msgs, 64)
    assert len(shares) >= 3
    spans = parse_shares_with_spans(shares)
    # drop the first share: the message spilling into share 1 is skipped,
    # parsing resumes at the first message that starts in share 1
    tail = parse_shares(shares[1:])
    payload = 62
    expected = [pm.message for pm in spans if pm.start >= payload]
    assert tail == expected
    assert tail  # the slice is non-trivial


def test_parse_rejects_bad_framing():
    good = serialize_shares([tx_message(random.Random(4))], 64)
    bad_offset = (63).to_bytes(2, "big") + good[0][2:]
    with pytest.raises(ParseError):
        parse_shares([bad_offset])
    bad_tag = good[0][:2] + b"\x07" + good[0][3:]
    with pytest.raises(ParseError):
        parse_shares([bad_tag])
    with pytest.raises(ParseError):
        parse_shares([good[0], good[0][:10]])


def test_parse_period_examples():
    rng = random.Random(5)
    t1, t2 = tx_message(rng, nonce=0), tx_message(rng, nonce=1)
    pre, post = Message.trace(b"\x01" * 32), Message.trace(b"\x02" * 32)
    slice_ = parse_period([pre, t1, t2, post], p=10)
    assert slice_.pre_root == pre.body
    assert slice_.post_root == post.body
    assert [tx.nonce for tx in slice_.txs] == [0, 1]

    txs = [tx_message(rng, nonce=i) for i in range(11)]
    with pytest.raises(PeriodError):
        parse_period([pre] + txs + [post], p=10)

    head = parse_period([t1, post], p=10)
    assert head.pre_root is None and head.post_root == post.body

    # messages after the closing trace belong to the next period
    slice_ = parse_period([pre, t1, post, t2], p=10)
    assert len(slice_.txs) == 1

    with pytest.raises(PeriodError):
        parse_period([], p=10)


def test_header_wire_round_trip():
    header = BlockHeader(b"\x01" * 32, b"\x02" * 32, 512, b"\x03" * 32, b"prod")
    assert BlockHeader.from_bytes(header.to_bytes()) == header
    other = BlockHeader(b"\x01" * 32, b"\x02" * 32, 512, b"\x03" * 32, b"other")
    assert other.block_hash() != header.block_hash()


def test_honest_block_ten_txs_one_trailing_trace(base_state):
    tree, keys = base_state
    rng = random.Random(6)
    txs = transfer_chain(keys, 10, rng)
    built = build_block(genesis_header(tree), tree, txs, k=4, share_size=128, p=10)
    kinds = [m.kind for m in built.messages]
    assert kinds == [block.MSG_TX] * 10 + [block.MSG_TRACE]
    assert len(built.traces) == 1
    # replay oracle: fold the transfers, then the payout
    replay = tree.copy()
    for tx in txs:
        assert apply_transaction(replay, tx) is not ERR
    assert replay.root() == built.traces[0]
    assert collect_fees(replay, built.producer).root() == built.header.state_root


def test_honest_block_satisfies_period_criterion(base_state):
    tree, keys = base_state
    rng = random.Random(7)
    txs = transfer_chain(keys, 23, rng)
    built = build_block(genesis_header(tree), tree, txs, k=4, share_size=256, p=10)
    run = 0
    for msg in built.messages:
        if msg.is_trace:
            run = 0
        else:
            run += 1
            assert run <= 10
    assert parse_shares(built.shares) == built.messages


def test_block_data_round_trips_through_matrix(base_state):
    tree, keys = base_state
    rng = random.Random(8)
    built = build_block(
        genesis_header(tree), tree, transfer_chain(keys, 12, rng), k=4, share_size=128
    )
    # original shares live in the top-left quadrant, row-major
    k = built.matrix.k
    for index, share in enumerate(built.shares):
        r, c = divmod(index, k)
        assert built.matrix.cells[r][c] == share
    assert built.header.data_length == 2 * (2 * k) ** 2


def test_invalid_code_block_yields_fault(base_state):
    tree, keys = base_state
    rng = random.Random(9)
    built = build_block(
        genesis_header(tree), tree, transfer_chain(keys, 8, rng),
        k=4, share_size=128, mode="invalid-code",
    )
    partial = rs2d.PartialMatrix.from_matrix(built.matrix, with_proofs=True)
    result = rs2d.recover_matrix(partial, built.commitment)
    assert isinstance(result, rs2d.CodecFault)


def test_withhold_mode_builds_honestly(base_state):
    tree, keys = base_state
    rng = random.Random(10)
    txs = transfer_chain(keys, 8, rng)
    honest = build_block(genesis_header(tree), tree, txs, k=4, share_size=128)
    withheld = build_block(
        genesis_header(tree), tree, txs, k=4, share_size=128, mode="withhold"
    )
    assert honest.header == withheld.header


def test_illegal_transfer_rejected_by_builder(base_state):
    tree, keys = base_state
    from daproofs.state import Transaction

    bad = Transaction(keys[0], keys[1], amount=10 ** 9, fee=0, nonce=0)
    with pytest.raises(ValueError, match="illegal"):
        build_block(genesis_header(tree), tree, [bad], k=4, share_size=128)


def test_builders_reject_nonpositive_period(base_state):
    tree, keys = base_state
    txs = transfer_chain(keys, 3, random.Random(12))
    for p in (0, -1):
        with pytest.raises(ValueError, match="period"):
            build_block(genesis_header(tree), tree, txs, k=4, share_size=128, p=p)
        with pytest.raises(ValueError, match="period"):
            build_double_tree_block(tree.root(), tree, txs, p=p)


@pytest.mark.parametrize(
    "share_size,floor",
    [(34, 1), (92, 1), (94, 2), (128, 2), (184, 2), (186, 3), (256, 3), (1024, 12)],
)
def test_min_period_fills_one_share_payload_with_transfers(share_size, floor):
    assert min_period(share_size) == floor


@pytest.mark.parametrize(
    "tx_index,p,expected",
    [(0, 10, -1), (9, 10, -1), (10, 10, 0), (25, 10, 1), (199, 10, 18)],
)
def test_period_mapping(tx_index, p, expected):
    assert period(tx_index, p) == expected


def test_double_tree_block_traces_interior(base_state):
    tree, keys = base_state
    rng = random.Random(11)
    txs = transfer_chain(keys, 20, rng)
    built = build_double_tree_block(tree.root(), tree, txs, p=10)
    # a boundary at the end of the block does not get a trace
    assert built.header.trace_length == len(built.traces) == 1
    assert built.header.tx_length == 20
    replay = tree.copy()
    for tx in txs[:10]:
        apply_transaction(replay, tx)
    assert replay.root() == built.traces[0]
