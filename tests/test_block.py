import random

import pytest

from daproofs import block, rs2d
from daproofs.block import (
    BlockHeader,
    ParseError,
    PeriodError,
    PeriodSlice,
    build_block,
    build_double_tree_block,
    check_layout,
    genesis_header,
    min_period,
    parse_shares_with_spans,
    read_period,
    serialize_shares,
    shares_needed,
)
from daproofs.erasure import MAX_K
from daproofs.state import ERR, Transaction, apply_transaction
from tests.conftest import account_key, transfer_chain
from tests.oracles import collect_fees


def parse_shares(shares):
    return [parsed.message for parsed in parse_shares_with_spans(shares)]


def tx_message(rng, keys=None, nonce=0):
    keys = keys or [account_key("m1"), account_key("m2")]
    return Transaction(keys[0], keys[1], rng.randrange(100), rng.randrange(4), nonce)


def random_messages(rng, count):
    msgs = []
    nonce = 0
    for _ in range(count):
        if rng.random() < 0.25:
            msgs.append(bytes(rng.randrange(256) for _ in range(32)))
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
    spans = parse_shares_with_spans(shares)
    assert [(pm.first_share, pm.last_share) for pm in spans] == [(0, 0), (0, 1)]


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
    expected = [pm.message for pm in spans if pm.first_share >= 1]
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
    # a trace body is a 32-byte root; any other length is a framing error
    for length in (31, 33):
        bad_trace = b"\x00\x01\x02" + length.to_bytes(2, "big") + b"\x05" * length
        with pytest.raises(ParseError, match="32 bytes"):
            parse_shares([bad_trace.ljust(64, b"\x00")])
    with pytest.raises(ValueError, match="32 bytes"):
        serialize_shares([b"\x05" * 31], 64)


def test_parse_period_examples():
    rng = random.Random(5)
    t1, t2 = tx_message(rng, nonce=0), tx_message(rng, nonce=1)
    pre, post = b"\x01" * 32, b"\x02" * 32

    def read(messages, at_block_start, p=10):
        return read_period(
            parse_shares_with_spans(serialize_shares(messages, 256)), at_block_start, p
        )

    slice_ = read([pre, t1, t2, post], False)
    assert (slice_.pre_root, slice_.txs, slice_.post_root) == (pre, (t1, t2), post)
    assert [pm.message for pm in slice_.messages] == [pre, t1, t2, post]

    txs = [tx_message(rng, nonce=i) for i in range(11)]
    with pytest.raises(PeriodError):
        read([pre] + txs + [post], False)

    # at block start the previous state root stands in for the pre-root
    head = read([t1, post], True)
    assert head.pre_root is None and head.txs == (t1,) and head.post_root == post
    lead = read([post, t1], True)
    assert lead.pre_root is None and lead.txs == () and lead.post_root == post

    # mid-block, transfers before the first trace belong to the prior period,
    # and messages after the closing trace to the next one
    slice_ = read([t1, pre, t2, post, t1], False)
    assert (slice_.pre_root, slice_.txs, slice_.post_root) == (pre, (t2,), post)
    assert [pm.message for pm in slice_.messages] == [pre, t2, post]

    # without a closing trace the slice is block-final
    tail = read([pre, t1], False)
    assert tail.post_root is None and tail.txs == (t1,)

    # an empty run is the empty block's final slice at block start only
    assert read_period([], True) == PeriodSlice(None, (), None, ())
    with pytest.raises(PeriodError):
        read_period([], False)
    with pytest.raises(PeriodError):
        read([t1, t2], False)


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
    messages = parse_shares(built.shares)
    assert messages[:10] == txs and len(messages) == 11
    # replay oracle: fold the transfers, then the payout
    replay = tree.copy()
    for tx in txs:
        assert apply_transaction(replay, tx) is not ERR
    assert replay.root() == messages[10]
    assert collect_fees(replay, built.producer).root() == built.header.state_root


def test_honest_block_satisfies_period_criterion(base_state):
    tree, keys = base_state
    rng = random.Random(7)
    txs = transfer_chain(keys, 23, rng)
    built = build_block(genesis_header(tree), tree, txs, k=4, share_size=256, p=10)
    messages = parse_shares(built.shares)
    # replay oracle: after every 10th transfer comes the root it leaves
    replay = tree.copy()
    expected = []
    for count, tx in enumerate(txs, 1):
        assert apply_transaction(replay, tx) is not ERR
        expected.append(tx)
        if count % 10 == 0:
            expected.append(replay.root())
    assert messages == expected
    run = 0
    for msg in messages:
        if isinstance(msg, bytes):
            run = 0
        else:
            run += 1
            assert run <= 10


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


def test_shares_needed_matches_serialization():
    # the closed form counts the shares serialize_shares fills, and
    # check_layout admits exactly the layouts that fit k*k of them
    rng = random.Random(21)
    trace = bytes(32)
    for share_size in (34, 36, 92, 94, 128, 256):
        for p in range(min_period(share_size), min_period(share_size) + 4):
            messages = []
            for tx_count in range(41):
                shares = len(serialize_shares(messages, share_size))
                assert shares_needed(tx_count, p, share_size) == shares
                for k in (1, 2, 4, 8):
                    if shares <= k * k:
                        check_layout(k, share_size, p, tx_count)
                    else:
                        with pytest.raises(ValueError, match="too large"):
                            check_layout(k, share_size, p, tx_count)
                messages.append(tx_message(rng, nonce=tx_count))
                if (tx_count + 1) % p == 0:
                    messages.append(trace)


def test_layout_rejects_k_above_max_k(base_state):
    tree, _ = base_state
    with pytest.raises(ValueError, match="k must be in"):
        check_layout(MAX_K + 1, 256, 10, 0)
    with pytest.raises(ValueError, match="k must be in"):
        build_block(genesis_header(tree), tree, [], k=MAX_K + 1, share_size=256)


def test_oversize_block_rejected_before_replay(base_state, monkeypatch):
    tree, keys = base_state
    txs = transfer_chain(keys, 12, random.Random(13))
    assert shares_needed(12, 1, 34) > 16

    def no_replay(*args):
        raise AssertionError("an oversize block was replayed")

    monkeypatch.setattr(block, "_replay_block", no_replay)
    with pytest.raises(ValueError, match="too large"):
        build_block(genesis_header(tree), tree, txs, k=4, share_size=34, p=1)


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
