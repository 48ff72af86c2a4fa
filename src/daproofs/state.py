"""Account-based state machine over the sparse Merkle tree.

Accounts are keyed by 32-byte identifiers and hold a balance and a nonce;
an absent key is an account with balance 0 and nonce 0. A transfer is
legal when its nonce equals the sender's stored nonce and the sender can
cover amount plus fee; applying it debits the sender, bumps the sender
nonce, credits the recipient, and accrues the fee into the reserved
accumulator key. Illegal transfers yield ERR, which absorbs: once a
replay hits ERR it stays ERR. Balances, the fee total and nonces are
unsigned 64-bit: a transfer that would carry one past U64_MAX is
illegal, and a fee payout that would is ERR too, which makes its block
invalid. A stateless step whose witness proves a value that does not
decode as an account is ERR as well: no honest state commits one.

Replay works either on a full tree (apply_transaction) or statelessly from a
root plus a witness (root_transition). Both run one rule set that does
not read the lazy root: full-tree replays read it only at traces, the
stateless fold after every transfer. A witness that fails verification
or does not cover the touched keys raises WitnessError; that is distinct
from ERR, which means the transaction itself is illegal. Verifiers rely
on the distinction: a bad witness invalidates a fraud proof, while an
illegal transaction is exactly what a fraud proof demonstrates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Union

from .merkle import hash_bytes
from .smt import SparseProof, StateTree, WitnessError, WitnessSubtree

U64_MAX = (1 << 64) - 1

# Reserved state key accumulating transaction fees within a block.
FEES_KEY = hash_bytes(b"__fees__")


class _ErrType:
    """Absorbing error value produced by illegal transitions."""

    _instance: Optional["_ErrType"] = None

    def __new__(cls) -> "_ErrType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ERR"


ERR = _ErrType()

StateRoot = Union[bytes, _ErrType]


@dataclass(frozen=True)
class Transaction:
    """Balance transfer; wire format is from(32) to(32) amount(8) fee(8) nonce(8)."""

    sender: bytes
    recipient: bytes
    amount: int
    fee: int
    nonce: int

    WIRE_SIZE = 88

    def __post_init__(self) -> None:
        if len(self.sender) != 32 or len(self.recipient) != 32:
            raise ValueError("account keys must be 32 bytes")
        for name in ("amount", "fee", "nonce"):
            v = getattr(self, name)
            if not 0 <= v <= U64_MAX:
                raise ValueError(f"{name} out of 64-bit range")
        if self.amount + self.fee > U64_MAX:
            raise ValueError("amount plus fee overflows")

    def to_bytes(self) -> bytes:
        return (
            self.sender
            + self.recipient
            + self.amount.to_bytes(8, "big")
            + self.fee.to_bytes(8, "big")
            + self.nonce.to_bytes(8, "big")
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Transaction":
        if len(raw) != cls.WIRE_SIZE:
            raise ValueError("transaction record must be 88 bytes")
        return cls(
            sender=raw[0:32],
            recipient=raw[32:64],
            amount=int.from_bytes(raw[64:72], "big"),
            fee=int.from_bytes(raw[72:80], "big"),
            nonce=int.from_bytes(raw[80:88], "big"),
        )

    def touched_keys(self) -> tuple[bytes, ...]:
        """Keys read or written, in canonical order."""
        return tuple(sorted({self.sender, self.recipient, FEES_KEY}))


@dataclass(frozen=True)
class AccountValue:
    balance: int = 0
    nonce: int = 0

    def encode(self) -> bytes:
        if self.balance == 0 and self.nonce == 0:
            return b""
        return self.balance.to_bytes(8, "big") + self.nonce.to_bytes(8, "big")

    @classmethod
    def decode(cls, raw: bytes) -> "AccountValue":
        if raw == b"":
            return cls()
        if len(raw) != 16:
            raise ValueError("account value must be empty or 16 bytes")
        return cls(int.from_bytes(raw[:8], "big"), int.from_bytes(raw[8:], "big"))


@dataclass(frozen=True)
class StateWitness:
    """Key-value pairs plus membership proofs against one state root."""

    entries: tuple[tuple[bytes, bytes, SparseProof], ...]

    def keys(self) -> set[bytes]:
        return {key for key, _, _ in self.entries}


def _apply_rules(view: StateTree, tx: Transaction) -> bool:
    """Run the transfer on a full tree or a witness subtree without reading
    its root; False means illegal, and the view is then untouched."""
    sender = AccountValue.decode(view.get(tx.sender))
    charge = tx.amount + tx.fee
    if tx.nonce != sender.nonce or sender.balance < charge:
        return False
    # the sender, recipient and fee accumulator may share a key, so each
    # credit reads what the step before it wrote
    writes = {tx.sender: AccountValue(sender.balance - charge, sender.nonce + 1)}
    recipient = writes.get(tx.recipient) or AccountValue.decode(view.get(tx.recipient))
    writes[tx.recipient] = AccountValue(recipient.balance + tx.amount, recipient.nonce)
    fees = writes.get(FEES_KEY) or AccountValue.decode(view.get(FEES_KEY))
    writes[FEES_KEY] = AccountValue(fees.balance + tx.fee, 0)
    if any(max(account.balance, account.nonce) > U64_MAX for account in writes.values()):
        return False
    for key, account in writes.items():
        view.update(key, account.encode())
    return True


def apply_transaction(tree: StateTree, tx: Transaction) -> StateRoot:
    """In-place transfer; returns the new root or ERR if the transfer is illegal.

    The tree is only modified when the transfer is legal.
    """
    return tree.root() if _apply_rules(tree, tx) else ERR


def make_witness(tree: StateTree, keys: Iterable[bytes]) -> StateWitness:
    """Minimal witness: one proven entry per key, in canonical order."""
    entries = tuple(
        (key, tree.get(key), tree.prove(key)) for key in sorted(set(keys))
    )
    return StateWitness(entries)


def make_tx_witness(tree: StateTree, tx: Transaction) -> StateWitness:
    return make_witness(tree, tx.touched_keys())


def root_transition(state_root: StateRoot, tx: Transaction, witness: StateWitness) -> StateRoot:
    """Stateless replay of one transfer from a root and a witness.

    Returns the post-root, or ERR when the transfer is illegal or a
    witnessed value does not decode as an account. Raises
    WitnessError when the witness is unusable (bad proofs, inconsistent
    entries, or missing touched keys); callers verifying fraud proofs
    treat that as a malformed proof, not as evidence of fraud.
    """
    if state_root is ERR:
        return ERR
    assert isinstance(state_root, bytes)
    return _witnessed_step(state_root, witness, tx.touched_keys(), _apply_rules, tx)


def _witnessed_step(
    state_root: bytes, witness: StateWitness, keys: tuple[bytes, ...], rule: Callable, arg: object
) -> StateRoot:
    """Run rule(view, arg) on the witness subtree of state_root: its root,
    or ERR when the rule fails or a witnessed value does not decode as an
    account. Raises WitnessError unless the witness covers keys."""
    subtree = WitnessSubtree.from_entries(state_root, witness.entries)
    if set(keys) - subtree.covered:
        raise WitnessError("witness does not cover the step's keys")
    try:
        legal = rule(subtree, arg)
    except ValueError:  # a proven value that is no account: no honest state holds one
        return ERR
    return subtree.root() if legal else ERR


def _apply_payout(view: StateTree, producer: bytes) -> bool:
    """Credit accrued fees to the producer and reset the accumulator, on a
    full tree or a witness subtree; nothing changes when no fees accrued.
    False means the producer's balance would pass U64_MAX, which makes the
    block invalid, and the view is then untouched."""
    fees = AccountValue.decode(view.get(FEES_KEY))
    if fees.balance == 0:
        return True
    account = AccountValue.decode(view.get(producer))
    if account.balance + fees.balance > U64_MAX:
        return False
    view.update(producer, AccountValue(account.balance + fees.balance, account.nonce).encode())
    view.update(FEES_KEY, b"")
    return True


def apply_fee_payout(tree: StateTree, producer: bytes) -> StateRoot:
    """Credit accrued fees to the producer and reset the accumulator; ERR
    when the payout overflows."""
    if len(producer) != 32:
        raise ValueError("producer key must be 32 bytes")
    return tree.root() if _apply_payout(tree, producer) else ERR


def payout_keys(producer: bytes) -> tuple[bytes, ...]:
    return tuple(sorted({producer, FEES_KEY}))


def root_fee_payout(state_root: bytes, producer: bytes, witness: StateWitness) -> StateRoot:
    """Stateless fee payout replay; ERR when the payout overflows or a
    witnessed value does not decode as an account. Raises WitnessError on
    unusable witnesses."""
    return _witnessed_step(state_root, witness, payout_keys(producer), _apply_payout, producer)
