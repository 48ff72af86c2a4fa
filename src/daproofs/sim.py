"""Deterministic discrete-event simulation of availability sampling.

One producer (the only possibly-dishonest party) builds a block and
serves data; honest full nodes download, gossip, recover, and emit fraud
proofs; light clients run the sampling protocol and reach a verdict:

  accept             all s sampled shares arrived with valid proofs and
                     no fraud proof showed up inside the response window
  reject-unavailable a sample was denied or timed out, or the advertised
                     axis roots do not hash to the header's data root
  reject-fraudproof  a verified fraud proof arrived before acceptance

Time is integer ticks. Every message crosses a hop through one call,
`_Simulation.send`, which delivers it `delay` ticks later; the only other
scheduled events are local timers (a client's sampling deadline and
response window, the enhanced pool's same-tick flush, and the header a
client receives two hops after the start). Topology:
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

from . import fraud, rs2d
from .block import (
    BlockHeader,
    BuiltBlock,
    MODE_HONEST,
    MODE_INVALID_CODE,
    MODE_INVALID_TRANSITION,
    build_block,
    check_layout,
    genesis_header,
)
from .fraud import CodecFraudProof, HeaderStore, TransitionFraudProof
from .merkle import hash_bytes
from .prob import recovery_threshold
from .rs2d import ROW, DataCommitment, PartialMatrix, ShareProof
from .smt import StateTree
from .state import AccountValue, Transaction

# the two faulty producers build with the block mode of the same name
ADVERSARY_MODES = (MODE_HONEST, "withhold", "selective", MODE_INVALID_TRANSITION, MODE_INVALID_CODE)
NETWORK_MODELS = ("standard", "enhanced")

VERDICT_ACCEPT = "accept"
VERDICT_UNAVAILABLE = "reject-unavailable"
VERDICT_FRAUD = "reject-fraudproof"

FraudProof = Union[TransitionFraudProof, CodecFraudProof]


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
        if self.full_nodes < 1:
            raise ValueError("need at least one honest full node")
        if self.light_clients < 1:
            raise ValueError("need at least one light client")
        if not 0 <= self.super_light_clients <= self.light_clients:
            raise ValueError("super-light clients must be between 0 and the client count")
        if self.delay < 1:
            raise ValueError("delay must be at least one tick")
        if self.response_window_factor < 0:
            raise ValueError("response window factor must not be negative")
        if self.selective_limit is not None and self.selective_limit < 0:
            raise ValueError("selective limit must not be negative")
        if self.tx_count < 0:
            raise ValueError("transaction count must not be negative")
        check_layout(self.k, self.share_size, self.p, self.tx_count)
        _parse_withhold_pattern(self.withhold_pattern, self.k)

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
    cell_proofs: dict[tuple[int, int], tuple[bytes, ShareProof]]
    withheld: frozenset[tuple[int, int]]


def _parse_withhold_pattern(pattern: str, k: int) -> tuple[str, int]:
    """("all", 0), ("submatrix", 0) or ("random", N) with 0 <= N <= (2k)^2."""
    name, colon, count = pattern.partition(":")
    if name in ("all", "submatrix") and not colon:
        return name, 0
    if name == "random" and count.isdecimal() and int(count) <= (2 * k) ** 2:
        return name, int(count)
    raise ValueError(
        f"unknown withhold pattern {pattern!r}; expected all, submatrix or random:N"
        f" with 0 <= N <= {(2 * k) ** 2}"
    )


def _withheld_cells(config: SimConfig, width: int) -> frozenset[tuple[int, int]]:
    if config.adversary != "withhold":
        return frozenset()
    name, count = _parse_withhold_pattern(config.withhold_pattern, config.k)
    if name == "submatrix":
        return frozenset((r, c) for r in range(config.k + 1) for c in range(config.k + 1))
    cells = [(r, c) for r in range(width) for c in range(width)]
    if name == "random":
        random.Random(f"withhold:{config.block_seed}").shuffle(cells)
        cells = cells[:count]
    return frozenset(cells)


def prepare_scenario(config: SimConfig) -> Scenario:
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
    faulty = config.adversary in (MODE_INVALID_TRANSITION, MODE_INVALID_CODE)
    built = build_block(
        genesis,
        genesis_state,
        txs,
        k=config.k,
        share_size=config.share_size,
        p=config.p,
        mode=config.adversary if faulty else MODE_HONEST,
    )
    width = built.matrix.width
    cells = [(r, c) for r in range(width) for c in range(width)]  # row-major: one tree per row
    cell_proofs = {cell: rs2d.prove_share(built.matrix, *cell, ROW) for cell in cells}
    return Scenario(
        genesis_state=genesis_state,
        genesis=genesis,
        built=built,
        cell_proofs=cell_proofs,
        withheld=_withheld_cells(config, width),
    )


def draw_coordinates(rng: random.Random, width: int, s: int) -> list[tuple[int, int]]:
    """s unique matrix coordinates, drawn without replacement."""
    cells = rng.sample(range(width * width), s)
    return [divmod(cell, width) for cell in cells]


# --- the event loop -------------------------------------------------------------


class _Engine:
    def __init__(self) -> None:
        self._queue: list[tuple[int, int, Callable[..., None], tuple]] = []
        self._seq = 0
        self.now = 0
        self.events: list[tuple[int, str, str, str]] = []

    def schedule(self, delay: int, handler: Callable[..., None], *args: object) -> None:
        heapq.heappush(self._queue, (self.now + delay, self._seq, handler, args))
        self._seq += 1

    def log(self, actor: str, kind: str, detail: str = "") -> None:
        self.events.append((self.now, actor, kind, detail))

    def run(self) -> int:
        while self._queue:
            tick, _, handler, args = heapq.heappop(self._queue)
            self.now = tick
            handler(*args)
        return self.now


class _Producer:
    """Serves block data according to the adversary policy."""

    def __init__(self, sim: "_Simulation") -> None:
        self.sim = sim
        self.released: set[tuple[int, int]] = set()
        self.dark = False
        self.denied_requests = 0
        # (client, request id, cell); non-empty exactly while a flush is scheduled
        self.enhanced_pool: list[tuple[_Client, int, tuple[int, int]]] = []
        self.enhanced_served = 0

    def full_download(self, node: "_FullNode") -> None:
        sim = self.sim
        if sim.config.adversary == "selective":
            return  # nothing is volunteered; only sampled shares leave
        cells = [
            (r, c, share, proof)
            for (r, c), (share, proof) in sim.scenario.cell_proofs.items()
            if (r, c) not in sim.scenario.withheld
        ]
        sim.engine.log("producer", "serve-block", f"fullnode={node.node_id} cells={len(cells)}")
        sim.send(node.receive_cells, cells)

    def sample_request(self, client: "_Client", request_id: int, cell: tuple[int, int]) -> None:
        config = self.sim.config
        if config.adversary == "selective" and config.network_model == "enhanced":
            if not self.enhanced_pool:
                self.sim.engine.schedule(0, self._process_enhanced_pool)
            self.enhanced_pool.append((client, request_id, cell))
        else:
            self._answer(client, request_id, cell)

    def _answer(self, client: "_Client", request_id: int, cell: tuple[int, int]) -> None:
        if cell in self.sim.scenario.withheld:
            self.denied_requests += 1  # silence; the client times out
            self.sim.engine.log("producer", "ignore", f"client={client.client_id} cell={cell}")
        elif self.sim.config.adversary == "selective" and not self._release(cell):
            self._deny(client, request_id, cell)
        else:
            self._serve(client, request_id, cell)

    def _release(self, cell: tuple[int, int]) -> bool:
        """Standard model: release cells while the distinct-release budget
        lasts; the first request past it turns the producer dark for good."""
        if not self.dark and cell not in self.released:
            if len(self.released) >= self.sim.config.effective_selective_limit:
                self.dark = True
                self.sim.engine.log("producer", "go-dark", f"released={len(self.released)}")
        if self.dark:
            return False
        self.released.add(cell)
        return True

    def _process_enhanced_pool(self) -> None:
        """Serve the first `limit` pooled requests, deny the rest.

        The pool order is a uniform shuffle of unlinkable requests, so the
        denied set is a uniformly random subset of fixed size."""
        pool = list(self.enhanced_pool)
        self.enhanced_pool.clear()
        self.sim.shuffle_rng.shuffle(pool)
        limit = self.sim.config.effective_selective_limit
        for client, request_id, cell in pool:
            if self.enhanced_served < limit:
                self.enhanced_served += 1
                self.released.add(cell)
                self._serve(client, request_id, cell)
            else:
                self._deny(client, request_id, cell)

    def _serve(self, client: "_Client", request_id: int, cell: tuple[int, int]) -> None:
        share, proof = self.sim.scenario.cell_proofs[cell]
        self.sim.send(client.node.relay_response, client, request_id, cell, share, proof)

    def _deny(self, client: "_Client", request_id: int, cell: tuple[int, int]) -> None:
        self.denied_requests += 1
        self.sim.engine.log("producer", "deny", f"client={client.client_id} cell={cell}")
        # one hop to the client's full node, which passes the denial on
        self.sim.send(self.sim.send, client.receive_denial, request_id, cell)


class _FullNode:
    def __init__(self, sim: "_Simulation", node_id: int) -> None:
        self.sim = sim
        self.node_id = node_id
        self.clients: list[_Client] = []  # the light clients this node serves
        self.store = HeaderStore()
        self.store.add(sim.scenario.genesis)
        self.partial = PartialMatrix(sim.config.k, sim.config.share_size)
        self.recovered_tick: Optional[int] = None
        self.checked = False  # a check concluded: a proof, or a clean replay

    def receive_header(self, header: BlockHeader) -> None:
        self.store.add(header)
        self.sim.engine.log(f"fullnode:{self.node_id}", "header", header.block_hash().hex()[:12])
        self.sim.send(self.sim.producer.full_download, self)

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
                    self.sim.send(peer.receive_cells, added)
        self._try_recover()

    def relay_request(self, client: "_Client", request_id: int, cell: tuple[int, int]) -> None:
        r, c = cell
        self.sim.engine.log(
            f"fullnode:{self.node_id}", "request", f"client={client.client_id} cell=({r},{c})"
        )
        share = self.partial.cells[r][c]
        proof = self.partial.proofs[r][c]
        if share is not None and proof is not None:
            self.sim.send(client.receive_share, request_id, cell, share, proof)
        else:
            self.sim.send(self.sim.producer.sample_request, client, request_id, cell)

    def relay_response(
        self, client: "_Client", request_id: int, cell: tuple[int, int],
        share: bytes, proof: ShareProof,
    ) -> None:
        # keep a copy: client-bound shares pass through this node
        self.receive_cells([(cell[0], cell[1], share, proof)], gossip=True)
        self.sim.send(client.receive_share, request_id, cell, share, proof)

    def _try_recover(self) -> None:
        if self.checked:
            return
        sim = self.sim
        width = self.partial.width
        present = width * width - self.partial.missing()
        if self.recovered_tick is None and present == width * width:
            self.recovered_tick = sim.engine.now
            sim.engine.log(f"fullnode:{self.node_id}", "full-data", f"tick={sim.engine.now}")
        if present < recovery_threshold(sim.config.k) and present < width * width:
            return
        try:
            proof = fraud.check_block(
                self.partial.copy(), sim.scenario.built, sim.scenario.genesis_state
            )
        except rs2d.Unrecoverable:
            return
        self.checked = True
        if isinstance(proof, CodecFraudProof):
            sim.engine.log(f"fullnode:{self.node_id}", "codec-fraud", f"axis={proof.axis} j={proof.j}")
            self._broadcast_fraud(proof)
            return
        if self.recovered_tick is None:
            self.recovered_tick = sim.engine.now
            sim.engine.log(f"fullnode:{self.node_id}", "recovered", f"tick={sim.engine.now}")
        if proof is not None:
            sim.engine.log(f"fullnode:{self.node_id}", "transition-fraud", f"y={proof.start_index}")
            self._broadcast_fraud(proof)

    def _broadcast_fraud(self, proof: FraudProof) -> None:
        self.sim.note_fraud_proof(proof)
        for peer in self.sim.full_nodes:
            if peer is not self:
                self.sim.send(peer.receive_fraud, proof)
        self._tell_clients(proof)

    def receive_fraud(self, proof: FraudProof) -> None:
        if self.store.is_rejected(proof.block_hash):
            return
        if fraud.apply_fraud_proof(proof, self.store, self.sim.config.p):
            self._tell_clients(proof)

    def _tell_clients(self, proof: FraudProof) -> None:
        for client in self.clients:
            self.sim.send(client.receive_fraud, proof)


class _Client:
    def __init__(self, sim: "_Simulation", client_id: int, super_light: bool) -> None:
        self.sim = sim
        self.client_id = client_id
        self.super_light = super_light
        self.node = sim.full_nodes[client_id % len(sim.full_nodes)]
        self.node.clients.append(self)
        self.store = HeaderStore()
        self.store.add(sim.scenario.genesis)
        self.rng = random.Random(f"{sim.config.seed}:client:{client_id}")
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
        cells = draw_coordinates(self.rng, 2 * sim.config.k, sim.config.s)
        for request_id, cell in enumerate(cells):
            self.pending[request_id] = cell
            sim.send(self.node.relay_request, self, request_id, cell)
        deadline = (4 + sim.config.response_window_factor) * sim.config.delay
        sim.engine.schedule(deadline, self._deadline)

    def receive_share(
        self, request_id: int, cell: tuple[int, int], share: bytes, proof: ShareProof
    ) -> None:
        sim = self.sim
        if self.verdict or self.pending.pop(request_id, None) is None:
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
        if ok:
            self.gossip_buffer.append((cell[0], cell[1], share, proof))
        else:
            self.failed = True
        if not self.pending:
            self._complete()

    def receive_denial(self, request_id: int, cell: tuple[int, int]) -> None:
        if self.verdict or self.pending.pop(request_id, None) is None:
            return
        self.failed = True
        if not self.pending:
            self._complete()

    def _complete(self) -> None:
        """Every sample has been answered or denied."""
        sim = self.sim
        if self.failed:
            self._finish(VERDICT_UNAVAILABLE)
            return
        sim.send(self.node.receive_cells, self.gossip_buffer, True)
        sim.engine.log(f"client:{self.client_id}", "sampled", f"tick={sim.engine.now}")
        window = sim.config.response_window_factor * sim.config.delay
        sim.engine.schedule(window, self._accept_if_quiet)

    def _accept_if_quiet(self) -> None:
        rejected = self.store.is_rejected(self.sim.block_hash)
        self._finish(VERDICT_FRAUD if rejected else VERDICT_ACCEPT)

    def _deadline(self) -> None:
        if self.verdict is not None or not self.pending:
            return
        self.failed = True
        self.pending.clear()
        self._finish(VERDICT_UNAVAILABLE)

    def receive_fraud(self, proof: FraudProof) -> None:
        if self.store.is_rejected(proof.block_hash):
            return
        if fraud.apply_fraud_proof(proof, self.store, self.sim.config.p):
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
        first_super_light = config.light_clients - config.super_light_clients
        self.clients = [
            _Client(self, i, i >= first_super_light) for i in range(config.light_clients)
        ]
        self.fraud_proof_ticks: list[tuple[int, str]] = []
        self._seen_proofs: set[bytes] = set()

    def send(self, handler: Callable[..., None], *args: object) -> None:
        """Deliver one message across one hop: `handler(*args)`, `delay` later."""
        self.engine.schedule(self.config.delay, handler, *args)

    def note_fraud_proof(self, proof: FraudProof) -> None:
        kind = "transition" if isinstance(proof, TransitionFraudProof) else "codec"
        marker = fraud.encode_fraud_proof(proof)[:64]
        if marker in self._seen_proofs:
            return
        self._seen_proofs.add(marker)
        self.fraud_proof_ticks.append((self.engine.now, kind))

    def run(self) -> SimVerdict:
        config = self.config
        built = self.scenario.built
        for node in self.full_nodes:
            self.send(node.receive_header, built.header)
        for client in self.clients:
            # the header reaches a client through its full node: two hops
            self.engine.schedule(
                2 * config.delay, client.receive_header, built.header, built.commitment
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
