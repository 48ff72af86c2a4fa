"""Deterministic discrete-event simulation of availability sampling.

One producer (the only possibly-dishonest party) builds a block and
serves data; honest full nodes download, gossip, recover, and emit fraud
proofs; light clients run the sampling protocol and reach a verdict:

  accept             all s sampled shares arrived with valid proofs and
                     no fraud proof showed up inside the response window
  reject-unavailable a sample was denied or timed out, or the advertised
                     axis roots do not hash to the header's data root
  reject-fraudproof  a verified fraud proof arrived before acceptance

Time is integer ticks; every hop costs the configured delay. Topology:
full nodes form a complete graph and all talk to the producer; each
client talks to one full node. Sample requests go client -> full node,
are answered locally when the full node has the cell, and are forwarded
to the producer otherwise. All randomness comes from generators seeded
from the config, so a config determines the entire event trace.

Adversary policies:
  honest              serve everything
  invalid-transition  serve everything; one boundary trace is corrupt
  invalid-code        serve everything; one parity cell was corrupted
                      before committing
  withhold            never serve cells matching the configured pattern
  selective           standard model: answer requests in arrival order,
                      releasing new cells while the distinct-release
                      budget lasts, and go permanently dark at the first
                      request that would exceed it (so the accepting
                      clients are exactly a prefix of the request order);
                      enhanced model: requests arrive as one uniformly
                      shuffled, unlinkable pool and the producer serves
                      the first `limit` of them and denies the rest,
                      which denies a uniformly random subset of fixed
                      size d = max(0, c*s - limit)
"""

from __future__ import annotations

import csv
import heapq
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import fraud, rs2d
from .block import (
    BlockHeader,
    BuiltBlock,
    MODE_HONEST,
    MODE_INVALID_CODE,
    MODE_INVALID_TRANSITION,
    MODE_WITHHOLD,
    build_block,
    genesis_header,
)
from .fraud import CodecFraudProof, HeaderStore, TransitionFraudProof
from .merkle import hash_bytes
from .prob import recovery_threshold, sample_distinct
from .rs2d import ROW, DataCommitment, PartialMatrix, ShareProof
from .smt import StateTree
from .state import AccountValue, Transaction

ADVERSARY_MODES = ("honest", "withhold", "selective", "invalid-transition", "invalid-code")
NETWORK_MODELS = ("standard", "enhanced")

VERDICT_ACCEPT = "accept"
VERDICT_UNAVAILABLE = "reject-unavailable"
VERDICT_FRAUD = "reject-fraudproof"


@dataclass
class SimConfig:
    k: int = 4
    share_size: int = 128
    s: int = 3
    p: int = 10
    full_nodes: int = 2
    light_clients: int = 8
    super_light_clients: int = 0
    delay: int = 5
    response_window_factor: int = 2
    network_model: str = "standard"
    adversary: str = "honest"
    withhold_pattern: str = "all"
    selective_limit: Optional[int] = None
    tx_count: int = 12
    seed: int = 0
    block_seed: int = 1

    def __post_init__(self) -> None:
        if self.adversary not in ADVERSARY_MODES:
            raise ValueError(f"unknown adversary {self.adversary!r}")
        if self.network_model not in NETWORK_MODELS:
            raise ValueError(f"unknown network model {self.network_model!r}")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if not 1 <= self.s <= (2 * self.k) ** 2:
            raise ValueError("s must be between 1 and the number of cells (2k)^2")
        if self.p < 1:
            raise ValueError("period length must be positive")
        if self.full_nodes < 1:
            raise ValueError("need at least one honest full node")
        if self.light_clients < 1:
            raise ValueError("need at least one light client")
        if self.super_light_clients > self.light_clients:
            raise ValueError("more super-light clients than clients")
        if self.delay < 1:
            raise ValueError("delay must be at least one tick")

    @property
    def effective_selective_limit(self) -> int:
        if self.selective_limit is not None:
            return self.selective_limit
        return (self.k + 1) ** 2

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "SimConfig":
        values: dict[str, object] = {}
        for raw_line in Path(path).read_text().splitlines():
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw_line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in cls.__dataclass_fields__:
                raise ValueError(f"unknown config key {key!r}")
            if key in ("network_model", "adversary", "withhold_pattern"):
                values[key] = value
            elif key == "selective_limit":
                values[key] = None if value in ("", "none") else int(value)
            else:
                values[key] = int(value)
        return cls(**values)  # type: ignore[arg-type]


@dataclass
class ClientVerdict:
    client_id: int
    super_light: bool
    verdict: str
    tick: int


@dataclass
class SimVerdict:
    config: SimConfig
    per_client: list[ClientVerdict]
    recovered_by_full_node: bool
    recovered_tick: Optional[int]
    soundness_holds: bool
    agreement_holds: bool
    denied_requests: int
    deceived_clients: list[int]
    fraud_proof_ticks: list[tuple[int, str]]
    events: list[tuple[int, str, str, str]]
    horizon: int

    @property
    def accepting_clients(self) -> list[int]:
        return [v.client_id for v in self.per_client if v.verdict == VERDICT_ACCEPT]


# --- scenario construction -----------------------------------------------------


def _genesis_accounts(rng: random.Random, count: int = 8) -> list[tuple[bytes, int]]:
    return [
        (hash_bytes(f"account:{i}".encode()), 10_000 + rng.randrange(1000))
        for i in range(count)
    ]


def make_transactions(
    rng: random.Random, keys: Sequence[bytes], balances: dict[bytes, int], count: int
) -> list[Transaction]:
    nonces = {key: 0 for key in keys}
    funds = dict(balances)
    txs = []
    for _ in range(count):
        sender = keys[rng.randrange(len(keys))]
        recipient = keys[rng.randrange(len(keys))]
        amount = rng.randrange(1, 50)
        fee = rng.randrange(0, 5)
        if funds[sender] < amount + fee:
            amount, fee = 1, 0
        txs.append(
            Transaction(
                sender=sender,
                recipient=recipient,
                amount=amount,
                fee=fee,
                nonce=nonces[sender],
            )
        )
        nonces[sender] += 1
        funds[sender] -= amount + fee
        funds[recipient] = funds.get(recipient, 0) + amount
    return txs


@dataclass
class Scenario:
    """Everything derived from the block-side config, reusable across seeds."""

    genesis_state: StateTree
    genesis: BlockHeader
    built: BuiltBlock
    commitment: DataCommitment
    cell_proofs: dict[tuple[int, int], tuple[bytes, ShareProof]]
    withheld: frozenset[tuple[int, int]]


_SCENARIO_CACHE: dict[tuple, Scenario] = {}


def _withheld_cells(config: SimConfig, width: int) -> frozenset[tuple[int, int]]:
    if config.adversary != "withhold":
        return frozenset()
    pattern = config.withhold_pattern
    if pattern == "all":
        return frozenset((r, c) for r in range(width) for c in range(width))
    if pattern == "submatrix":
        side = config.k + 1
        return frozenset((r, c) for r in range(side) for c in range(side))
    if pattern.startswith("random:"):
        count = int(pattern.split(":", 1)[1])
        rng = random.Random(f"withhold:{config.block_seed}")
        cells = [(r, c) for r in range(width) for c in range(width)]
        rng.shuffle(cells)
        return frozenset(cells[:count])
    raise ValueError(f"unknown withhold pattern {pattern!r}")


def scenario_key(config: SimConfig) -> tuple:
    return (
        config.k,
        config.share_size,
        config.p,
        config.tx_count,
        config.adversary,
        config.withhold_pattern,
        config.block_seed,
    )


def prepare_scenario(config: SimConfig) -> Scenario:
    key = scenario_key(config)
    cached = _SCENARIO_CACHE.get(key)
    if cached is not None:
        return cached
    _SCENARIO_CACHE.clear()  # keep only the latest: a scenario holds a whole block

    rng = random.Random(f"block:{config.block_seed}")
    accounts = _genesis_accounts(rng)
    genesis_state = StateTree()
    for account_key, balance in accounts:
        genesis_state.update(account_key, AccountValue(balance, 0).encode())
    genesis = genesis_header(genesis_state)

    txs = make_transactions(
        rng,
        [key_ for key_, _ in accounts],
        {key_: balance for key_, balance in accounts},
        config.tx_count,
    )
    mode = {
        "honest": MODE_HONEST,
        "withhold": MODE_WITHHOLD,
        "selective": MODE_HONEST,
        "invalid-transition": MODE_INVALID_TRANSITION,
        "invalid-code": MODE_INVALID_CODE,
    }[config.adversary]
    built = build_block(
        genesis,
        genesis_state,
        txs,
        k=config.k,
        share_size=config.share_size,
        p=config.p,
        mode=mode,
    )
    width = built.matrix.width
    cells = [(r, c) for r in range(width) for c in range(width)]  # row-major: one tree per row
    cell_proofs = {cell: rs2d.prove_share(built.matrix, *cell, ROW) for cell in cells}
    scenario = Scenario(
        genesis_state=genesis_state,
        genesis=genesis,
        built=built,
        commitment=built.commitment,
        cell_proofs=cell_proofs,
        withheld=_withheld_cells(config, width),
    )
    _SCENARIO_CACHE[key] = scenario
    return scenario


def draw_coordinates(rng: random.Random, width: int, s: int) -> list[tuple[int, int]]:
    """s unique matrix coordinates, drawn without replacement."""
    cells = rng.sample(range(width * width), s)
    return [divmod(cell, width) for cell in cells]


# --- the event loop -------------------------------------------------------------


class _Engine:
    def __init__(self) -> None:
        self._queue: list[tuple[int, int, Callable[[], None]]] = []
        self._seq = 0
        self.now = 0
        self.events: list[tuple[int, str, str, str]] = []

    def schedule(self, delay: int, handler: Callable[[], None]) -> None:
        heapq.heappush(self._queue, (self.now + delay, self._seq, handler))
        self._seq += 1

    def log(self, actor: str, kind: str, detail: str = "") -> None:
        self.events.append((self.now, actor, kind, detail))

    def run(self) -> int:
        while self._queue:
            tick, _, handler = heapq.heappop(self._queue)
            self.now = tick
            handler()
        return self.now


class _Producer:
    """Serves block data according to the adversary policy."""

    def __init__(self, sim: "_Simulation") -> None:
        self.sim = sim
        self.released: set[tuple[int, int]] = set()
        self.dark = False
        self.denied_requests = 0
        self.enhanced_pool: list[tuple[int, int, tuple[int, int]]] = []
        self.enhanced_scheduled = False
        self.enhanced_served = 0

    def full_download(self, node: "_FullNode") -> None:
        config = self.sim.config
        if config.adversary == "selective":
            return  # nothing is volunteered; only sampled shares leave
        cells = []
        for (r, c), payload in self.sim.scenario.cell_proofs.items():
            if (r, c) in self.sim.scenario.withheld:
                continue
            cells.append((r, c, payload[0], payload[1]))
        engine = self.sim.engine
        engine.log("producer", "serve-block", f"fullnode={node.node_id} cells={len(cells)}")
        engine.schedule(config.delay, lambda: node.receive_cells(cells))

    def sample_request(self, client_id: int, request_id: int, cell: tuple[int, int]) -> None:
        config = self.sim.config
        if config.adversary == "selective" and config.network_model == "enhanced":
            self.enhanced_pool.append((client_id, request_id, cell))
            if not self.enhanced_scheduled:
                self.enhanced_scheduled = True
                self.sim.engine.schedule(0, self._process_enhanced_pool)
            return
        self._answer(client_id, request_id, cell)

    def _answer(self, client_id: int, request_id: int, cell: tuple[int, int]) -> None:
        config = self.sim.config
        engine = self.sim.engine
        if config.adversary in ("honest", "invalid-transition", "invalid-code"):
            self._serve(client_id, request_id, cell)
            return
        if config.adversary == "withhold":
            if cell in self.sim.scenario.withheld:
                self.denied_requests += 1
                engine.log("producer", "ignore", f"client={client_id} cell={cell}")
                return  # silence; the client times out
            self._serve(client_id, request_id, cell)
            return
        # selective, standard model
        limit = config.effective_selective_limit
        if self.dark:
            self._deny(client_id, request_id, cell)
            return
        if cell in self.released:
            self._serve(client_id, request_id, cell)
            return
        if len(self.released) < limit:
            self.released.add(cell)
            self._serve(client_id, request_id, cell)
            return
        self.dark = True
        engine.log("producer", "go-dark", f"released={len(self.released)}")
        self._deny(client_id, request_id, cell)

    def _process_enhanced_pool(self) -> None:
        """Serve the first `limit` pooled requests, deny the rest.

        The pool order is a uniform shuffle of unlinkable requests, so the
        denied set is a uniformly random subset of fixed size."""
        config = self.sim.config
        pool = list(self.enhanced_pool)
        self.enhanced_pool.clear()
        self.enhanced_scheduled = False
        self.sim.shuffle_rng.shuffle(pool)
        limit = config.effective_selective_limit
        for client_id, request_id, cell in pool:
            if self.enhanced_served < limit:
                self.enhanced_served += 1
                self.released.add(cell)
                self._serve(client_id, request_id, cell)
            else:
                self._deny(client_id, request_id, cell)

    def _serve(self, client_id: int, request_id: int, cell: tuple[int, int]) -> None:
        share, proof = self.sim.scenario.cell_proofs[cell]
        node = self.sim.client_node(client_id)
        self.sim.engine.schedule(
            self.sim.config.delay,
            lambda: node.relay_response(client_id, request_id, cell, share, proof),
        )

    def _deny(self, client_id: int, request_id: int, cell: tuple[int, int]) -> None:
        self.denied_requests += 1
        node = self.sim.client_node(client_id)
        self.sim.engine.log("producer", "deny", f"client={client_id} cell={cell}")
        self.sim.engine.schedule(
            self.sim.config.delay,
            lambda: node.relay_denial(client_id, request_id, cell),
        )


class _FullNode:
    def __init__(self, sim: "_Simulation", node_id: int) -> None:
        self.sim = sim
        self.node_id = node_id
        self.store = HeaderStore()
        self.store.add(sim.scenario.genesis)
        self.partial = PartialMatrix(sim.config.k, sim.config.share_size)
        self.recovered_tick: Optional[int] = None
        self.fault_reported = False
        self.transition_checked = False
        self.half_seen = 0

    def receive_header(self, header: BlockHeader) -> None:
        self.store.add(header)
        self.sim.engine.log(f"fullnode:{self.node_id}", "header", header.block_hash().hex()[:12])
        producer = self.sim.producer
        self.sim.engine.schedule(self.sim.config.delay, lambda: producer.full_download(self))

    def receive_cells(
        self, cells: list[tuple[int, int, bytes, ShareProof]], gossip: bool = False
    ) -> None:
        added = []
        for r, c, share, proof in cells:
            if self.partial.cells[r][c] is None:
                self.partial.add_share(r, c, share, ROW, proof)
                added.append((r, c, share, proof))
        if not added:
            return
        if gossip:
            for peer in self.sim.full_nodes:
                if peer is not self:
                    self.sim.engine.schedule(
                        self.sim.config.delay,
                        lambda peer=peer, added=added: peer.receive_cells(added),
                    )
        self._try_recover()

    def relay_request(self, client_id: int, request_id: int, cell: tuple[int, int]) -> None:
        r, c = cell
        self.sim.engine.log(
            f"fullnode:{self.node_id}", "request", f"client={client_id} cell=({r},{c})"
        )
        share = self.partial.cells[r][c]
        proof = self.partial.proofs[r][c]
        if share is not None and proof is not None:
            self.sim.engine.schedule(
                self.sim.config.delay,
                lambda: self.sim.clients[client_id].receive_share(
                    request_id, cell, share, proof
                ),
            )
            return
        producer = self.sim.producer
        self.sim.engine.schedule(
            self.sim.config.delay,
            lambda: producer.sample_request(client_id, request_id, cell),
        )

    def relay_response(
        self, client_id: int, request_id: int, cell: tuple[int, int], share: bytes, proof: ShareProof
    ) -> None:
        # keep a copy: client-bound shares pass through this node
        self.receive_cells([(cell[0], cell[1], share, proof)], gossip=True)
        self.sim.engine.schedule(
            self.sim.config.delay,
            lambda: self.sim.clients[client_id].receive_share(request_id, cell, share, proof),
        )

    def relay_denial(self, client_id: int, request_id: int, cell: tuple[int, int]) -> None:
        self.sim.engine.schedule(
            self.sim.config.delay,
            lambda: self.sim.clients[client_id].receive_denial(request_id, cell),
        )

    def receive_gossip(self, cells: list[tuple[int, int, bytes, ShareProof]]) -> None:
        self.receive_cells(cells, gossip=True)

    def _try_recover(self) -> None:
        if self.fault_reported:
            return
        sim = self.sim
        width = self.partial.width
        present = width * width - self.partial.missing()
        if self.recovered_tick is None and present == width * width:
            self.recovered_tick = sim.engine.now
            sim.engine.log(f"fullnode:{self.node_id}", "full-data", f"tick={sim.engine.now}")
        if present < recovery_threshold(sim.config.k) and present < width * width:
            return
        work = _copy_partial(self.partial)
        try:
            result = rs2d.recover_matrix(work, sim.scenario.commitment)
        except rs2d.Unrecoverable:
            return
        if isinstance(result, rs2d.CodecFault):
            self.fault_reported = True
            proof = fraud.generate_codec_fraud_proof(
                result, sim.block_hash, sim.scenario.commitment
            )
            sim.engine.log(f"fullnode:{self.node_id}", "codec-fraud", f"axis={result.axis} j={result.j}")
            self._broadcast_fraud(proof)
            return
        if self.recovered_tick is None:
            self.recovered_tick = sim.engine.now
            sim.engine.log(f"fullnode:{self.node_id}", "recovered", f"tick={sim.engine.now}")
        self._check_transitions(result)

    def _check_transitions(self, matrix: rs2d.ExtendedMatrix) -> None:
        if self.transition_checked:
            return
        self.transition_checked = True
        sim = self.sim
        k = sim.config.k
        shares = [matrix.cells[i // k][i % k] for i in range(k * k)]
        rebuilt = BuiltBlock(
            header=sim.scenario.built.header,
            matrix=matrix,
            commitment=sim.scenario.commitment,
            shares=shares,  # type: ignore[arg-type]
            messages=[],
            traces=[],
            producer=sim.scenario.built.producer,
            p=sim.config.p,
        )
        proof = fraud.generate_transition_fraud_proof(rebuilt, sim.scenario.genesis_state)
        if proof is not None:
            sim.engine.log(f"fullnode:{self.node_id}", "transition-fraud", f"y={proof.start_index}")
            self._broadcast_fraud(proof)

    def _broadcast_fraud(self, proof: Union[TransitionFraudProof, CodecFraudProof]) -> None:
        sim = self.sim
        sim.note_fraud_proof(proof)
        for peer in sim.full_nodes:
            if peer is not self:
                sim.engine.schedule(sim.config.delay, lambda peer=peer: peer.receive_fraud(proof))
        for client in sim.clients:
            if sim.client_node(client.client_id) is self:
                sim.engine.schedule(
                    sim.config.delay, lambda client=client: client.receive_fraud(proof)
                )

    def receive_fraud(self, proof: Union[TransitionFraudProof, CodecFraudProof]) -> None:
        if self.store.is_rejected(proof.block_hash):
            return
        if not fraud.apply_fraud_proof(proof, self.store, self.sim.config.p):
            return
        for client in self.sim.clients:
            if self.sim.client_node(client.client_id) is self:
                self.sim.engine.schedule(
                    self.sim.config.delay, lambda client=client: client.receive_fraud(proof)
                )


def _copy_partial(partial: PartialMatrix) -> PartialMatrix:
    dup = PartialMatrix(partial.k, partial.share_size)
    dup.cells = [list(row) for row in partial.cells]
    dup.origins = [list(row) for row in partial.origins]
    dup.proofs = [list(row) for row in partial.proofs]
    return dup


class _Client:
    def __init__(self, sim: "_Simulation", client_id: int, super_light: bool) -> None:
        self.sim = sim
        self.client_id = client_id
        self.super_light = super_light
        self.store = HeaderStore()
        self.store.add(sim.scenario.genesis)
        self.rng = random.Random(f"{sim.config.seed}:client:{client_id}")
        self.coordinates: list[tuple[int, int]] = []
        self.pending: dict[int, tuple[int, int]] = {}
        self.failed = False
        self.verdict: Optional[ClientVerdict] = None
        self.roots: Optional[DataCommitment] = None
        self.gossip_buffer: list[tuple[int, int, bytes, ShareProof]] = []

    def receive_header(self, header: BlockHeader, commitment: DataCommitment) -> None:
        sim = self.sim
        self.store.add(header)
        if not self.super_light:
            if commitment.data_root != header.data_root:
                self._finish(VERDICT_UNAVAILABLE)
                return
            self.roots = commitment
        self.coordinates = draw_coordinates(self.rng, 2 * sim.config.k, sim.config.s)
        node = sim.client_node(self.client_id)
        for request_id, cell in enumerate(self.coordinates):
            self.pending[request_id] = cell
            sim.engine.schedule(
                sim.config.delay,
                lambda request_id=request_id, cell=cell: node.relay_request(
                    self.client_id, request_id, cell
                ),
            )
        deadline = (4 + sim.config.response_window_factor) * sim.config.delay
        sim.engine.schedule(deadline, self._deadline)

    def receive_share(
        self, request_id: int, cell: tuple[int, int], share: bytes, proof: ShareProof
    ) -> None:
        sim = self.sim
        if self.verdict or request_id not in self.pending:
            return
        header = sim.scenario.built.header
        ok = rs2d.verify_share_merkle_proof(
            share,
            proof,
            header.data_root,
            header.data_length,
            rs2d.share_index(ROW, cell[0], cell[1], ROW, 2 * sim.config.k, header.data_length),
        )
        if ok and not self.super_light:
            assert self.roots is not None
            ok = proof.axis_root == self.roots.row_roots[cell[0]]
        if not ok:
            self.failed = True
            del self.pending[request_id]
            self._maybe_finish_unavailable()
            return
        del self.pending[request_id]
        self.gossip_buffer.append((cell[0], cell[1], share, proof))
        if not self.pending:
            self._complete()

    def receive_denial(self, request_id: int, cell: tuple[int, int]) -> None:
        if self.verdict or request_id not in self.pending:
            return
        self.failed = True
        del self.pending[request_id]
        self._maybe_finish_unavailable()

    def _maybe_finish_unavailable(self) -> None:
        if self.failed and not self.pending:
            self._finish(VERDICT_UNAVAILABLE)

    def _complete(self) -> None:
        sim = self.sim
        if self.failed:
            self._finish(VERDICT_UNAVAILABLE)
            return
        node = sim.client_node(self.client_id)
        batch = list(self.gossip_buffer)
        sim.engine.schedule(sim.config.delay, lambda: node.receive_gossip(batch))
        window = sim.config.response_window_factor * sim.config.delay
        sim.engine.log(f"client:{self.client_id}", "sampled", f"tick={sim.engine.now}")
        sim.engine.schedule(window, self._accept_if_quiet)

    def _accept_if_quiet(self) -> None:
        if self.verdict is not None:
            return
        if self.store.is_rejected(self.sim.block_hash):
            self._finish(VERDICT_FRAUD)
            return
        self._finish(VERDICT_ACCEPT)

    def _deadline(self) -> None:
        if self.verdict is not None or not self.pending:
            return
        self.failed = True
        self.pending.clear()
        self._finish(VERDICT_UNAVAILABLE)

    def receive_fraud(self, proof: Union[TransitionFraudProof, CodecFraudProof]) -> None:
        if self.store.is_rejected(proof.block_hash):
            return
        if not fraud.apply_fraud_proof(proof, self.store, self.sim.config.p):
            return
        if self.verdict is None:
            self._finish(VERDICT_FRAUD)

    def _finish(self, verdict: str) -> None:
        if self.verdict is not None:
            return
        self.verdict = ClientVerdict(
            self.client_id, self.super_light, verdict, self.sim.engine.now
        )
        self.sim.engine.log(f"client:{self.client_id}", "verdict", verdict)


class _Simulation:
    def __init__(self, config: SimConfig, scenario: Scenario) -> None:
        self.config = config
        self.scenario = scenario
        self.engine = _Engine()
        self.block_hash = scenario.built.header.block_hash()
        self.shuffle_rng = random.Random(f"{config.seed}:mixnet")
        self.producer = _Producer(self)
        self.full_nodes = [_FullNode(self, i) for i in range(config.full_nodes)]
        super_light_ids = set(range(config.light_clients - config.super_light_clients, config.light_clients))
        self.clients = [
            _Client(self, i, i in super_light_ids) for i in range(config.light_clients)
        ]
        self.fraud_proof_ticks: list[tuple[int, str]] = []
        self._seen_proofs: set[bytes] = set()

    def client_node(self, client_id: int) -> _FullNode:
        return self.full_nodes[client_id % len(self.full_nodes)]

    def note_fraud_proof(self, proof: Union[TransitionFraudProof, CodecFraudProof]) -> None:
        kind = "transition" if isinstance(proof, TransitionFraudProof) else "codec"
        marker = fraud.encode_fraud_proof(proof)[:64]
        if marker in self._seen_proofs:
            return
        self._seen_proofs.add(marker)
        self.fraud_proof_ticks.append((self.engine.now, kind))

    def run(self) -> SimVerdict:
        config = self.config
        header = self.scenario.built.header
        commitment = self.scenario.commitment
        for node in self.full_nodes:
            self.engine.schedule(config.delay, lambda node=node: node.receive_header(header))
        for client in self.clients:
            self.engine.schedule(
                2 * config.delay,
                lambda client=client: client.receive_header(header, commitment),
            )
        horizon = self.engine.run()

        per_client = []
        for client in self.clients:
            if client.verdict is None:
                client.verdict = ClientVerdict(
                    client.client_id, client.super_light, VERDICT_UNAVAILABLE, horizon
                )
            per_client.append(client.verdict)

        recovered_ticks = [
            node.recovered_tick for node in self.full_nodes if node.recovered_tick is not None
        ]
        recovered = bool(recovered_ticks)
        recovered_tick = min(recovered_ticks) if recovered_ticks else None
        accepts = [v for v in per_client if v.verdict == VERDICT_ACCEPT]
        soundness = recovered if accepts else True
        agreement = len({v.verdict == VERDICT_ACCEPT for v in per_client}) <= 1
        return SimVerdict(
            config=config,
            per_client=per_client,
            recovered_by_full_node=recovered,
            recovered_tick=recovered_tick,
            soundness_holds=soundness,
            agreement_holds=agreement,
            denied_requests=self.producer.denied_requests,
            deceived_clients=[v.client_id for v in accepts]
            if config.adversary == "selective"
            else [],
            fraud_proof_ticks=self.fraud_proof_ticks,
            events=self.engine.events,
            horizon=horizon,
        )


def run_sampling(config: SimConfig, scenario: Optional[Scenario] = None) -> SimVerdict:
    """Run the full sampling protocol once; see module docstring."""
    if scenario is None:
        scenario = prepare_scenario(config)
    return _Simulation(config, scenario).run()


def selective_disclosure_run(config: SimConfig, scenario: Optional[Scenario] = None) -> SimVerdict:
    if config.adversary != "selective":
        raise ValueError("selective_disclosure_run needs adversary=selective")
    return run_sampling(config, scenario)


def predicted_deceived_prefix(config: SimConfig) -> list[int]:
    """Replay the request-budget arithmetic on the clients' sample draws.

    Standard model only: walks requests in client order, releasing new
    cells until the budget would overflow, and returns the clients whose
    requests were all answered before the producer went dark.
    """
    if config.network_model != "standard":
        raise ValueError("prefix prediction applies to the standard model")
    limit = config.effective_selective_limit
    released: set[tuple[int, int]] = set()
    deceived = []
    for client_id in range(config.light_clients):
        rng = random.Random(f"{config.seed}:client:{client_id}")
        served_all = True
        for cell in draw_coordinates(rng, 2 * config.k, config.s):
            if cell in released:
                continue
            if len(released) < limit:
                released.add(cell)
                continue
            served_all = False
            break
        if not served_all:
            break  # the producer is dark; nobody later is served either
        deceived.append(client_id)
    return deceived


def recovery_experiment(
    k: int, s: int, c: int, seeds: Sequence[int]
) -> float:
    """Fraction of seeded runs whose c clients collectively draw at least
    gamma distinct shares (each client draws s without replacement)."""
    n = (2 * k) ** 2
    gamma = recovery_threshold(k)
    hits = 0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        draws = sample_distinct(rng, n, s, c)
        if np.unique(draws).size >= gamma:
            hits += 1
    return hits / len(seeds)


# --- output helpers --------------------------------------------------------------


def write_events_csv(events: Sequence[tuple[int, str, str, str]], path: Union[str, Path]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["tick", "actor", "kind", "detail"])
        writer.writerows(events)


def write_verdicts_csv(verdict: SimVerdict, path: Union[str, Path]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["client_id", "super_light", "verdict", "tick"])
        for v in verdict.per_client:
            writer.writerow([v.client_id, int(v.super_light), v.verdict, v.tick])
