import random

import pytest

from daproofs.smt import StateTree, WitnessError
from daproofs.state import (
    ERR,
    FEES_KEY,
    U64_MAX,
    AccountValue,
    StateWitness,
    Transaction,
    apply_fee_payout,
    apply_transaction,
    make_tx_witness,
    make_witness,
    payout_keys,
    root_fee_payout,
    root_transition,
)
from tests.conftest import account_key, funded_state, transfer_chain
from tests.oracles import collect_fees, total_supply, transition, valid


def simple_tx(sender, recipient, amount=5, fee=1, nonce=0):
    return Transaction(sender, recipient, amount, fee, nonce)


def balances(tree, *keys):
    return [AccountValue.decode(tree.get(key)).balance for key in keys]


def test_transfer_arithmetic():
    tree = StateTree()
    a, b = account_key("a"), account_key("b")
    tree.update(a, AccountValue(10, 0).encode())
    new = transition(tree, simple_tx(a, b, amount=5, fee=1))
    assert new is not ERR
    assert balances(new, a, b, FEES_KEY) == [4, 5, 1]
    assert AccountValue.decode(new.get(a)).nonce == 1
    # the input tree is untouched
    assert balances(tree, a, b) == [10, 0]


def test_insufficient_funds_is_err():
    tree = StateTree()
    a, b = account_key("a"), account_key("b")
    tree.update(a, AccountValue(3, 0).encode())
    assert transition(tree, simple_tx(a, b, amount=5, fee=0)) is ERR


def test_nonce_mismatch_is_err():
    tree, keys = funded_state(2)
    assert transition(tree, simple_tx(keys[0], keys[1], nonce=1)) is ERR


def test_err_absorbs():
    tree, keys = funded_state(2)
    assert transition(ERR, simple_tx(keys[0], keys[1])) is ERR
    assert root_transition(ERR, simple_tx(keys[0], keys[1]), StateWitness(())) is ERR


def test_valid_iff_no_err():
    tree, keys = funded_state(2)
    good = [simple_tx(keys[0], keys[1], nonce=0), simple_tx(keys[0], keys[1], nonce=1)]
    assert valid(good, tree)
    bad = [simple_tx(keys[0], keys[1], nonce=0), simple_tx(keys[0], keys[1], nonce=0)]
    assert not valid(bad, tree)


def test_self_transfer():
    tree = StateTree()
    a = account_key("self")
    tree.update(a, AccountValue(10, 0).encode())
    new = transition(tree, simple_tx(a, a, amount=4, fee=1))
    account = AccountValue.decode(new.get(a))
    assert (account.balance, account.nonce) == (9, 1)


def test_witness_equivalence_random_transactions():
    """Stateless replay through witnesses tracks the full tree exactly."""
    rng = random.Random(99)
    tree, keys = funded_state(6)
    txs = transfer_chain(keys, 1000, rng)
    for tx in txs:
        witness = make_tx_witness(tree, tx)
        root_before = tree.root()
        stateless = root_transition(root_before, tx, witness)
        result = apply_transaction(tree, tx)
        assert stateless == result  # bytes equality, or both ERR
        if result is not ERR:
            assert stateless == tree.root()


def test_witness_err_cases_match_full_tree():
    tree, keys = funded_state(2, balance=10)
    overdraw = simple_tx(keys[0], keys[1], amount=50, fee=0)
    witness = make_tx_witness(tree, overdraw)
    assert root_transition(tree.root(), overdraw, witness) is ERR
    assert transition(tree, overdraw) is ERR


def test_witness_missing_key_raises():
    tree, keys = funded_state(2)
    tx = simple_tx(keys[0], keys[1])
    witness = make_witness(tree, [keys[0], FEES_KEY])  # recipient omitted
    with pytest.raises(WitnessError):
        root_transition(tree.root(), tx, witness)


def test_witness_wrong_root_raises():
    tree, keys = funded_state(2)
    tx = simple_tx(keys[0], keys[1])
    witness = make_tx_witness(tree, tx)
    other = StateTree()
    with pytest.raises(WitnessError):
        root_transition(other.root(), tx, witness)


def test_witness_overcomplete_accepted():
    tree, keys = funded_state(4)
    tx = simple_tx(keys[0], keys[1])
    witness = make_witness(tree, list(tx.touched_keys()) + [keys[2], keys[3]])
    assert root_transition(tree.root(), tx, witness) == transition(tree, tx).root()


def test_collect_fees():
    tree = StateTree()
    producer = account_key("producer")
    tree.update(FEES_KEY, AccountValue(7, 0).encode())
    paid = collect_fees(tree, producer)
    assert balances(paid, producer, FEES_KEY) == [7, 0]
    # zero fees: no-op
    again = collect_fees(paid, producer)
    assert again.root() == paid.root()


def test_block_fee_fold_oracle():
    rng = random.Random(5)
    tree, keys = funded_state(5)
    txs = transfer_chain(keys, 60, rng)
    running = tree.copy()
    for tx in txs:
        assert apply_transaction(running, tx) is not ERR
    fee_sum = sum(tx.fee for tx in txs)
    assert AccountValue.decode(running.get(FEES_KEY)).balance == fee_sum
    producer = account_key("producer")
    paid = collect_fees(running, producer)
    assert AccountValue.decode(paid.get(producer)).balance == fee_sum


def test_root_fee_payout_matches_full_tree():
    rng = random.Random(6)
    tree, keys = funded_state(3)
    for tx in transfer_chain(keys, 25, rng):
        apply_transaction(tree, tx)
    producer = account_key("producer")
    witness = make_witness(tree, payout_keys(producer))
    stateless = root_fee_payout(tree.root(), producer, witness)
    assert stateless == collect_fees(tree, producer).root()


def test_conservation():
    rng = random.Random(13)
    tree, keys = funded_state(4)
    supply = total_supply(tree)
    for tx in transfer_chain(keys, 200, rng):
        result = apply_transaction(tree, tx)
        assert result is not ERR
        assert total_supply(tree) == supply


def test_determinism():
    tree, keys = funded_state(3)
    tx = simple_tx(keys[0], keys[1])
    assert transition(tree, tx).root() == transition(tree, tx).root()


def test_transaction_wire_round_trip():
    tx = Transaction(account_key("x"), account_key("y"), 123, 45, 6)
    raw = tx.to_bytes()
    assert len(raw) == 88
    assert Transaction.from_bytes(raw) == tx
    with pytest.raises(ValueError):
        Transaction.from_bytes(raw[:-1])


def test_transaction_validation():
    a, b = account_key("a"), account_key("b")
    with pytest.raises(ValueError):
        Transaction(b"short", b, 1, 1, 0)
    with pytest.raises(ValueError):
        Transaction(a, b, 2 ** 64, 0, 0)
    with pytest.raises(ValueError):
        Transaction(a, b, 2 ** 64 - 1, 1, 0)  # amount + fee overflows


def test_account_value_encoding():
    assert AccountValue(0, 0).encode() == b""
    assert AccountValue.decode(b"") == AccountValue(0, 0)
    assert AccountValue.decode(AccountValue(5, 9).encode()) == AccountValue(5, 9)
    with pytest.raises(ValueError):
        AccountValue.decode(b"\x00" * 7)


@pytest.mark.parametrize("past", ["recipient", "fees", "nonce"])
def test_transfer_past_u64_max_is_illegal_on_both_replays(past):
    """A credit or nonce bump that would pass U64_MAX is illegal, on the full
    tree and statelessly; one unit less reaches U64_MAX exactly."""
    a, b = account_key("a"), account_key("b")
    for over in (1, 0):
        tree = StateTree()
        nonce = U64_MAX - 1 + over if past == "nonce" else 7
        tree.update(a, AccountValue(100, nonce).encode())
        if past == "recipient":
            tree.update(b, AccountValue(U64_MAX - 5 + over, 0).encode())
        if past == "fees":
            tree.update(FEES_KEY, AccountValue(U64_MAX - 2 + over, 0).encode())
        tx = simple_tx(a, b, amount=5, fee=2, nonce=nonce)
        root, witness = tree.root(), make_tx_witness(tree, tx)
        stateless = root_transition(root, tx, witness)
        full = apply_transaction(tree, tx)
        if over:
            assert stateless is ERR and full is ERR
            assert tree.root() == root
        else:
            assert stateless == full == tree.root() != root
            ceiling = {"recipient": b, "fees": FEES_KEY, "nonce": a}[past]
            value = AccountValue.decode(tree.get(ceiling))
            assert U64_MAX in (value.balance, value.nonce)


def test_payout_past_u64_max_is_err_on_both_replays():
    producer = account_key("producer")
    for over in (1, 0):
        tree = StateTree()
        tree.update(producer, AccountValue(U64_MAX - 3 + over, 0).encode())
        tree.update(FEES_KEY, AccountValue(3, 0).encode())
        root = tree.root()
        stateless = root_fee_payout(root, producer, make_witness(tree, payout_keys(producer)))
        full = apply_fee_payout(tree, producer)
        if over:
            assert stateless is ERR and full is ERR
            assert tree.root() == root
        else:
            assert stateless == full == tree.root() != root
            assert balances(tree, producer, FEES_KEY) == [U64_MAX, 0]
