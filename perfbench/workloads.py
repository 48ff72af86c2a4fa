"""The benchmark's four workloads, driven through the daproofs public API.

Each workload derives all of its inputs (transfers, sample coordinates,
simulator seeds) from the seed it is given, builds its fixtures in
`setup`, and runs one closed-loop iteration of operations, one after
another, in `iteration`. Every operation is checked: a program exception
counts the operation as failed, and a wrong output is recorded as a check
failure, which makes the run incorrect. Each iteration also returns
SHA-256 digests of its outputs (data roots, recovered matrices, proof
encodings, verdict lists) so runs can be compared byte for byte.

Why these four (see README.md for the metrics each layer should move):
- block-1mb: the paper's ~1 MB block (k=64); erasure, rs2d and merkle do
  nearly all of the work.
- replay-full: a k=16 block filled to ~88% with ~600 transfers; smt,
  state, block and fraud do nearly all of the work, the codec almost none.
- sampling-k32: the light-client sampling protocol in the simulator, where
  full nodes check complete matrices and clients verify proofs, many times
  over.
- client-table: the paper's minimum-client table; the only user of prob.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import os
import random
import subprocess
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

import numpy as np

from daproofs import block, fraud, prob, rs2d, sim
from daproofs.merkle import hash_bytes
from daproofs.smt import StateTree
from daproofs.state import AccountValue, StateWitness

SRC = Path(__file__).resolve().parent.parent / "src"


def digest(*parts: bytes) -> str:
    """SHA-256 over length-prefixed parts, as hex."""
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()


def _matrix_digest(matrix: rs2d.ExtendedMatrix) -> str:
    return digest(*(cell for row in matrix.cells for cell in row))


def _witness_parts(witness: Optional[StateWitness]) -> list[bytes]:
    if witness is None:
        return [b"-"]
    parts = []
    for key, value, proof in witness.entries:
        parts += [key, value, proof.to_bytes()]
    return parts


def double_tree_proof_bytes(proof: fraud.DoubleTreeFraudProof) -> bytes:
    """SHA-256 of a canonical serialization of a double-tree proof, which
    has no wire format of its own."""
    parts = [proof.block_hash, proof.start_index.to_bytes(8, "big")]
    if proof.pre_trace is not None:
        trace, trace_proof, x = proof.pre_trace
        parts += [trace, trace_proof.to_bytes(), x.to_bytes(8, "big", signed=True)]
    if proof.post_trace is not None:
        parts += [proof.post_trace[0], proof.post_trace[1].to_bytes()]
    parts += [tx.to_bytes() for tx in proof.txs]
    parts += [tx_proof.to_bytes() for tx_proof in proof.tx_proofs]
    for witness in proof.witnesses:
        parts += _witness_parts(witness)
    parts += _witness_parts(proof.payout_witness)
    return bytes.fromhex(digest(*parts))


def proof_bytes(proof: Any) -> bytes:
    """Canonical bytes of any fraud proof, using only untraced encoders."""
    if isinstance(proof, fraud.TransitionFraudProof):
        return fraud.encode_transition_fraud_proof(proof)
    if isinstance(proof, fraud.CodecFraudProof):
        return fraud.encode_codec_fraud_proof(proof)
    return double_tree_proof_bytes(proof)


# --- recording ------------------------------------------------------------------


_REF_RNG = np.random.default_rng(0)
_REF_TABLE = _REF_RNG.integers(0, 1 << 16, size=(1 << 18) + 1).astype(np.uint16)
_REF_LEFT = _REF_RNG.integers(0, 1 << 17, size=(64, 40)).astype(np.int64)
_REF_RIGHT = _REF_RNG.integers(0, 1 << 17, size=(40, 256)).astype(np.int64)
_REF_GOOD = np.full(4000, 13384, dtype=np.int64)
_REF_BAD = np.full(4000, 3000, dtype=np.int64)


def _sha256_work() -> None:
    node = bytes(32)
    for _ in range(2200):
        node = hashlib.sha256(b"\x01" + node + node).digest()


def _dict_work() -> None:
    table: dict[int, int] = {}
    for i in range(9000):
        table[(i * 7919) & 4095] = table.get(i & 4095, 0) ^ i


def _gather_work() -> None:
    acc = np.zeros((_REF_LEFT.shape[0], _REF_RIGHT.shape[1]), dtype=np.uint16)
    for i in range(_REF_LEFT.shape[1]):
        acc ^= _REF_TABLE[_REF_LEFT[:, i, None] + _REF_RIGHT[None, i, :]]


def _events_work() -> None:
    queue: list[tuple[int, int, Callable[[], None]]] = []
    fired: list[int] = []
    for i in range(900):
        heapq.heappush(queue, ((i * 7919) % 997, i, lambda i=i: fired.append(i)))
    while queue:
        heapq.heappop(queue)[2]()


def _hypergeometric_work() -> None:
    rng = np.random.default_rng(7)
    for _ in range(3):
        rng.hypergeometric(_REF_GOOD, _REF_BAD, 10)


# Reference work, about 2 ms of each kind daproofs does: SHA-256 over short
# inputs, Python dict and integer traffic, the table gathers of a GF(2^16)
# matrix product, an event queue of closures as in the simulator, and
# hypergeometric draws as in the Monte Carlo client counts. It never changes with the program, so its time tracks the
# machine's speed for that kind of work.
REFERENCE_WORK = {
    "sha256": _sha256_work,
    "dict": _dict_work,
    "gather": _gather_work,
    "events": _events_work,
    "hypergeometric": _hypergeometric_work,
}


class Recorder:
    """Op outcomes, timed samples and output digests of one run.

    An op fails when the program raises inside it or when one of its
    output checks fails; both count in `failed`. Digests of an op's outputs
    are kept only when the op succeeds, so a defective output is never
    pinned as the expected one.

    Between ops, at most every REF_INTERVAL seconds, the recorder times the
    workload's kinds of REFERENCE_WORK, sampling the machine's speed for
    that work across the run.
    """

    REF_INTERVAL = 0.25

    def __init__(self, reference_kinds: tuple[str, ...]) -> None:
        self.reference_work = [REFERENCE_WORK[kind] for kind in reference_kinds]
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.refs: list[tuple[float, float]] = []  # start, seconds
        self.ref_seconds = 0.0
        self.attempted: Counter[str] = Counter()
        self.failed: Counter[str] = Counter()
        self.errors: dict[str, str] = {}
        self.outputs: dict[str, str] = {}
        self.on_op: Optional[Callable[[str], None]] = None

    def op(self, name: str) -> "_Op":
        return _Op(self, name)

    def reference(self, force: bool = False) -> None:
        """Time the reference work, unless it last ended less than
        REF_INTERVAL ago."""
        start = perf_counter()
        if not force and self.refs and start - sum(self.refs[-1]) < self.REF_INTERVAL:
            return
        for work in self.reference_work:
            work()
        seconds = perf_counter() - start
        self.refs.append((start, seconds))
        self.ref_seconds += seconds


class _Op:
    """One attempted operation; see Recorder."""

    def __init__(self, recorder: Recorder, name: str) -> None:
        self.recorder = recorder
        self.name = name
        self.problem: Optional[str] = None
        self.outputs: dict[str, str] = {}

    def __enter__(self) -> "_Op":
        self.recorder.attempted[self.name] += 1
        if self.recorder.on_op is not None:
            self.recorder.on_op(self.name)
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if exc_type is not None:
            if not issubclass(exc_type, Exception):
                return False
            self.problem = f"{exc_type.__name__}: {exc}"
        if self.problem is None:
            self.recorder.outputs.update(self.outputs)
        else:
            self.recorder.failed[self.name] += 1
            self.recorder.errors.setdefault(self.name, self.problem)
        self.recorder.reference()
        return True

    def time(self, metric: str, fn: Callable[[], Any], scale: float = 1.0) -> Any:
        start = perf_counter()
        result = fn()
        self.recorder.samples[metric].append((perf_counter() - start) * scale)
        return result

    def check(self, condition: bool, message: str) -> None:
        if not condition and self.problem is None:
            self.problem = f"check: {message}"

    def output(self, key: str, value: str) -> None:
        self.outputs[key] = value


def _round_trip(op: _Op, proof: Any, store: fraud.HeaderStore, prefix: str) -> None:
    """Encode a proof, then time decoding and verifying it as a light client."""
    encoded = fraud.encode_fraud_proof(proof)
    op.recorder.samples[f"{prefix}_proof_bytes"].append(len(encoded))

    def decode_and_verify() -> tuple[Any, bool]:
        decoded = fraud.decode_fraud_proof(encoded)
        return decoded, fraud.apply_fraud_proof(decoded, store)

    metric = "fraud_verify_ms" if prefix == "transition" else f"{prefix}_verify_ms"
    decoded, ok = op.time(metric, decode_and_verify, 1000.0)
    op.check(ok, f"{prefix} proof does not verify")
    op.check(
        fraud.encode_fraud_proof(decoded) == encoded,
        f"{prefix} proof changes in an encode/decode round trip",
    )
    op.output(f"{prefix}_proof", digest(encoded))


# --- shared fixtures --------------------------------------------------------------


def _accounts(rng: random.Random, count: int) -> dict[bytes, int]:
    return {
        hash_bytes(f"bench-account:{i}".encode()): 10_000 + rng.randrange(1000)
        for i in range(count)
    }


def _genesis(balances: dict[bytes, int]) -> StateTree:
    tree = StateTree()
    for key, balance in balances.items():
        tree.update(key, AccountValue(balance, 0).encode())
    return tree


def _copy_partial(
    src: rs2d.PartialMatrix, withhold: frozenset[tuple[int, int]] = frozenset()
) -> rs2d.PartialMatrix:
    dup = rs2d.PartialMatrix(src.k, src.share_size)
    dup.cells = [list(row) for row in src.cells]
    dup.origins = [list(row) for row in src.origins]
    dup.proofs = [list(row) for row in src.proofs]
    for r, c in withhold:
        dup.cells[r][c] = dup.origins[r][c] = dup.proofs[r][c] = None
    return dup


# --- block-1mb ----------------------------------------------------------------------


@dataclass(frozen=True)
class BlockParams:
    k: int = 64
    share_size: int = 256
    transfers: int = 25
    accounts: int = 8
    samples: int = 32


class BlockWorkload:
    """The paper's ~1 MB block: build, recover, check, sample, prove fraud.

    Op codec-fraud-partial withholds cells (0, 0..k) of the invalid-code
    block before generating a codec proof. Row 0 is then decoded partly
    from a cell recovered through its column, which carries no share proof,
    so generate_codec_fraud_proof raises ValueError ("codec fault lacks
    share proofs"). That is a known defect of the program; the op is kept
    and counted as failed on every attempt until the program can prove
    this fault.
    """

    name = "block-1mb"
    reference_kinds = ("sha256", "dict", "gather")

    def __init__(self, seed: int, params: BlockParams = BlockParams()) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        self.params = params
        self.balances = _accounts(rng, params.accounts)
        self.txs = sim.make_transactions(
            rng, list(self.balances), self.balances, params.transfers
        )
        w = 2 * params.k
        self.coords = [divmod(cell, w) for cell in rng.sample(range(w * w), params.samples)]
        self.quadrant = [(r, c) for r in range(params.k) for c in range(params.k)]
        self.partial_withheld = frozenset((0, c) for c in range(params.k + 1))

    def setup(self, rep: int) -> dict[str, str]:
        p = self.params
        self.genesis_state = _genesis(self.balances)
        self.genesis = block.genesis_header(self.genesis_state)
        build = partial(
            block.build_block, self.genesis, self.genesis_state, self.txs,
            k=p.k, share_size=p.share_size,
        )
        self.bad_code = build(mode=block.MODE_INVALID_CODE)
        self.bad_trace = build(mode=block.MODE_INVALID_TRANSITION)
        self.bad_code_hash = self.bad_code.header.block_hash()
        # A full node holds the share proofs of the cells it received. Only
        # those on the two axes through the corrupted parity cell (0, w-1)
        # can be inputs of a codec proof, so only those are proved here.
        matrix = self.bad_code.matrix
        w = matrix.width
        self.held = rs2d.PartialMatrix(p.k, p.share_size)
        for r in range(w):
            for c in range(w):
                proof = None
                if r == 0 or c == w - 1:
                    _, proof = rs2d.prove_share(matrix, r, c, rs2d.ROW)
                self.held.add_share(r, c, matrix.cells[r][c], rs2d.ROW, proof)
        self.store = fraud.HeaderStore()
        for header in (self.genesis, self.bad_code.header, self.bad_trace.header):
            self.store.add(header)
        return {
            "invalid_code_data_root": digest(self.bad_code.header.data_root),
            "invalid_transition_data_root": digest(self.bad_trace.header.data_root),
        }

    def iteration(self, rec: Recorder) -> None:
        p = self.params
        honest: Any = None
        with rec.op("build") as op:
            honest = op.time(
                "block_build_s",
                lambda: block.build_block(
                    self.genesis, self.genesis_state, self.txs,
                    k=p.k, share_size=p.share_size,
                ),
            )
            op.output("honest_data_root", digest(honest.header.data_root))

        for name, metric, withhold in (
            ("recover", "recover_s", self.quadrant),
            ("full-check", "full_check_s", ()),
        ):
            with rec.op(name) as op:
                received = rs2d.PartialMatrix.from_matrix(honest.matrix, withhold=withhold)
                result = op.time(
                    metric, lambda: rs2d.recover_matrix(received, honest.commitment)
                )
                ok = isinstance(result, rs2d.ExtendedMatrix)
                op.check(ok and result.cells == honest.matrix.cells,
                          f"{name}: recovered cells differ from the built cells")
                if ok:
                    op.output(f"{name}_matrix", _matrix_digest(result))

        header = honest.header if honest is not None else None
        sample_proofs = []
        failed_before = rec.failed["sample"]
        for r, c in self.coords:
            with rec.op("sample") as op:
                def serve_and_verify(r: int = r, c: int = c) -> tuple[bytes, Any, bool]:
                    share, proof = rs2d.prove_share(honest.matrix, r, c, rs2d.ROW)
                    index = rs2d.share_index(
                        rs2d.ROW, r, c, rs2d.ROW, honest.matrix.width, header.data_length
                    )
                    ok = rs2d.verify_share_merkle_proof(
                        share, proof, header.data_root, header.data_length, index
                    )
                    return share, proof, ok

                share, proof, ok = op.time("sample_ms", serve_and_verify, 1000.0)
                op.check(ok and share == honest.matrix.cells[r][c],
                          f"sample ({r},{c}) does not verify")
                sample_proofs.append(proof.to_bytes())
        if rec.failed["sample"] == failed_before:
            rec.outputs["sample_proofs"] = digest(*sample_proofs)

        for name, withhold in (
            ("codec-fraud", frozenset()),
            ("codec-fraud-partial", self.partial_withheld),
        ):
            with rec.op(name) as op:
                received = _copy_partial(self.held, withhold)

                def generate() -> Optional[fraud.CodecFraudProof]:
                    fault = rs2d.recover_matrix(received, self.bad_code.commitment)
                    if not isinstance(fault, rs2d.CodecFault):
                        return None
                    return fraud.generate_codec_fraud_proof(
                        fault, self.bad_code_hash, self.bad_code.commitment
                    )

                prefix = "codec" if name == "codec-fraud" else "codec_partial"
                proof = op.time(f"{prefix}_gen_s", generate)
                op.check(proof is not None, f"{name}: invalid code went undetected")
                if proof is not None:
                    _round_trip(op, proof, self.store, prefix)

        with rec.op("transition-fraud") as op:
            proof = op.time(
                "transition_gen_s",
                lambda: fraud.generate_transition_fraud_proof(
                    self.bad_trace, self.genesis_state
                ),
            )
            op.check(proof is not None, "corrupt trace went undetected")
            if proof is not None:
                _round_trip(op, proof, self.store, "transition")


# --- replay-full ----------------------------------------------------------------------


@dataclass(frozen=True)
class ReplayParams:
    k: int = 16
    share_size: int = 256
    transfers: int = 600
    accounts: int = 64


class ReplayWorkload:
    """A k=16 block filled to ~88%: build, replay, prove a bad state root."""

    name = "replay-full"
    reference_kinds = ("sha256", "dict", "gather")

    def __init__(self, seed: int, params: ReplayParams = ReplayParams()) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        self.params = params
        self.balances = _accounts(rng, params.accounts)
        self.txs = sim.make_transactions(
            rng, list(self.balances), self.balances, params.transfers
        )

    def setup(self, rep: int) -> dict[str, str]:
        p = self.params
        self.genesis_state = _genesis(self.balances)
        self.genesis = block.genesis_header(self.genesis_state)
        self.bad_root = block.build_block(
            self.genesis, self.genesis_state, self.txs, k=p.k, share_size=p.share_size,
            mode=block.MODE_INVALID_TRANSITION, corrupt="header",
        )
        self.bad_double_tree = block.build_double_tree_block(
            self.genesis_state.root(), self.genesis_state, self.txs,
            mode=block.MODE_INVALID_TRANSITION,
        )
        self.store = fraud.HeaderStore()
        self.store.add(self.genesis)
        self.store.add(self.bad_root.header)
        self.store.add_double_tree(self.bad_double_tree.header)
        return {
            "bad_root_data_root": digest(self.bad_root.header.data_root),
            "double_tree_block_hash": digest(self.bad_double_tree.header.block_hash()),
        }

    def iteration(self, rec: Recorder) -> None:
        p = self.params
        honest: Any = None
        with rec.op("build") as op:
            honest = op.time(
                "block_build_s",
                lambda: block.build_block(
                    self.genesis, self.genesis_state, self.txs,
                    k=p.k, share_size=p.share_size,
                ),
            )
            op.output("honest_data_root", digest(honest.header.data_root))
            op.output("honest_state_root", digest(honest.header.state_root))

        with rec.op("replay") as op:
            proof = op.time(
                "replay_s",
                lambda: fraud.generate_transition_fraud_proof(honest, self.genesis_state),
            )
            op.check(proof is None, "honest block yields a transition proof")

        with rec.op("transition-fraud") as op:
            proof = op.time(
                "transition_gen_s",
                lambda: fraud.generate_transition_fraud_proof(
                    self.bad_root, self.genesis_state
                ),
            )
            op.check(proof is not None, "corrupt state root went undetected")
            if proof is not None:
                _round_trip(op, proof, self.store, "transition")

        with rec.op("double-tree-fraud") as op:
            proof = op.time(
                "double_tree_gen_s",
                lambda: fraud.generate_double_tree_fraud_proof(
                    self.bad_double_tree, self.genesis_state
                ),
            )
            op.check(proof is not None, "corrupt double-tree trace went undetected")
            if proof is not None:
                ok = op.time(
                    "double_tree_verify_ms",
                    lambda: fraud.verify_double_tree_fraud_proof(
                        proof, self.store, prev_state_root=self.genesis_state.root()
                    ),
                    1000.0,
                )
                op.check(ok, "double-tree proof does not verify")
                op.output("double_tree_proof", digest(double_tree_proof_bytes(proof)))


# --- sampling-k32 ---------------------------------------------------------------------


@dataclass(frozen=True)
class SamplingParams:
    k: int = 32
    share_size: int = 256
    s: int = 10
    light_clients: int = 200
    full_nodes: int = 4
    delay: int = 5
    tx_count: int = 12


# invalid-transition is left out: one round verifies its ~50 ms proof once per
# client, ~40 s in all; replay-full measures that verify path.
ADVERSARIES = ("honest", "invalid-code", "withhold")


class SamplingWorkload:
    """Simulated sampling rounds, cycling through three adversaries.

    Each iteration draws new client samples (simulator seed), because the
    cost of a round depends on them by up to ±15%: which cells reach the
    full nodes first decides how often they attempt recovery. Outputs of
    the first iteration are the ones digested.
    """

    name = "sampling-k32"
    reference_kinds = ("sha256", "gather", "events")

    def __init__(self, seed: int, params: SamplingParams = SamplingParams()) -> None:
        self.seed = seed
        self.params = params
        self.iterations = 0

    def _config(self, adversary: str, block_seed: int) -> sim.SimConfig:
        p = self.params
        return sim.SimConfig(
            k=p.k, share_size=p.share_size, s=p.s, full_nodes=p.full_nodes,
            light_clients=p.light_clients, delay=p.delay, adversary=adversary,
            withhold_pattern="submatrix", tx_count=p.tx_count, seed=1000 * self.seed,
            block_seed=block_seed,
        )

    def setup(self, rep: int) -> dict[str, str]:
        # prepare_scenario caches by config, so each repetition prepares a
        # fresh block of its own
        block_seed = 1000 * self.seed + rep
        self.rounds = []
        digests = {}
        for adversary in ADVERSARIES:
            config = self._config(adversary, block_seed)
            scenario = sim.prepare_scenario(config)
            self.rounds.append((config, scenario))
            digests[f"{adversary}_data_root"] = digest(scenario.built.header.data_root)
        return digests

    def iteration(self, rec: Recorder) -> None:
        first = self.iterations == 0
        self.iterations += 1
        for config, scenario in self.rounds:
            config = replace(config, seed=config.seed + self.iterations - 1)
            adversary = config.adversary
            with rec.op(f"round-{adversary}") as op:
                verdict = op.time(
                    f"round_{adversary.replace('-', '_')}_s",
                    lambda: sim.run_sampling(config, scenario),
                )
                rec.samples["client_verdicts"].append(len(verdict.per_client))
                self._check(op, config, scenario, verdict)
                if first:
                    op.output(f"{adversary}_verdicts", digest(*(
                        f"{v.client_id}:{v.verdict}:{v.tick}".encode()
                        for v in verdict.per_client
                    )))

    def _check(self, op: _Op, config: sim.SimConfig, scenario: Any, verdict: Any) -> None:
        verdicts = [v.verdict for v in verdict.per_client]
        adversary = config.adversary
        op.check(len(verdicts) == config.light_clients, f"{adversary}: missing verdicts")
        if adversary == "honest":
            op.check(all(v == sim.VERDICT_ACCEPT for v in verdicts),
                      "honest: a client did not accept")
        elif adversary == "invalid-code":
            op.check(all(v == sim.VERDICT_FRAUD for v in verdicts),
                      "invalid-code: a client did not reject with a fraud proof")
        else:
            # clients draw their samples from generators seeded as below
            for v in verdict.per_client:
                rng = random.Random(f"{config.seed}:client:{v.client_id}")
                cells = sim.draw_coordinates(rng, 2 * config.k, config.s)
                if scenario.withheld.intersection(cells):
                    op.check(v.verdict != sim.VERDICT_ACCEPT,
                              f"withhold: client {v.client_id} accepted a withheld sample")


# --- client-table -----------------------------------------------------------------------


# The paper's table: k=16 exact, k=64 by Monte Carlo, good to 1%.
PAPER_TABLE = {
    (16, 2): (692, 0.0), (16, 10): (138, 0.0), (16, 50): (28, 0.0),
    (64, 2): (11289, 0.01), (64, 10): (2258, 0.01), (64, 50): (451, 0.01),
}


@dataclass(frozen=True)
class TableParams:
    rows: tuple[tuple[int, int], ...] = tuple(PAPER_TABLE)
    expected: dict = field(default_factory=lambda: dict(PAPER_TABLE))


class TableWorkload:
    """prob.min_clients for the paper's table rows, called as a user would,
    with its default Monte Carlo seed, so the work is the same for every
    seed. Set-up is a fresh interpreter importing daproofs: the only
    set-up the probability path has.
    """

    name = "client-table"
    # exact big-rational counts, then Monte Carlo hypergeometric draws
    reference_kinds = ("dict", "hypergeometric")

    def __init__(self, seed: int, params: TableParams = TableParams()) -> None:
        self.params = params

    def setup(self, rep: int) -> dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (str(SRC), env.get("PYTHONPATH", "")) if part
        )
        subprocess.run(
            [sys.executable, "-c", "import daproofs"], env=env, check=True, timeout=120
        )
        return {}

    def iteration(self, rec: Recorder) -> None:
        values: dict[tuple[int, int], int] = {}
        start = perf_counter()
        for k, s in self.params.rows:
            with rec.op("min-clients") as op:
                got = op.time("min_clients_s", lambda: prob.min_clients(k, s))
                values[(k, s)] = got
                op.check(got >= 1, f"min_clients({k}, {s}) = {got}")
                if (k, s) in self.params.expected:
                    want, tolerance = self.params.expected[(k, s)]
                    op.check(abs(got - want) <= math.ceil(want * tolerance),
                             f"min_clients({k}, {s}) = {got}, paper {want}")
                fewer_samples = [v for (k2, s2), v in values.items() if k2 == k and s2 < s]
                op.check(all(v >= got for v in fewer_samples),
                         f"min_clients({k}, {s}) exceeds a count for fewer samples")
                op.output(f"min_clients_{k}_{s}", digest(str(got).encode()))
        rec.samples["client_table_s"].append(perf_counter() - start)


WORKLOADS = {
    cls.name: cls for cls in (BlockWorkload, ReplayWorkload, SamplingWorkload, TableWorkload)
}
