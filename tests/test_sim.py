import hashlib
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daproofs import prob, sim
from daproofs.merkle import MerkleProof
from daproofs.sim import (
    SimConfig,
    VERDICT_ACCEPT,
    VERDICT_FRAUD,
    VERDICT_UNAVAILABLE,
    run_sampling,
)
from tests.oracles import (
    HeapEngine,
    pe_series_fraction,
    predicted_deceived_prefix,
    recovery_experiment,
)

BASE = dict(k=4, share_size=128, s=3, light_clients=8, full_nodes=2, tx_count=12)


def verdicts(result):
    return [v.verdict for v in result.per_client]


def test_honest_run_all_accept():
    result = run_sampling(SimConfig(**BASE, adversary="honest", seed=11))
    assert verdicts(result) == [VERDICT_ACCEPT] * 8
    assert result.soundness_holds and result.agreement_holds
    assert result.recovered_by_full_node
    assert result.recovered_tick is not None


def test_withhold_all_rejects_unavailable():
    result = run_sampling(
        SimConfig(**BASE, adversary="withhold", withhold_pattern="all", seed=11)
    )
    assert verdicts(result) == [VERDICT_UNAVAILABLE] * 8
    assert result.soundness_holds and result.agreement_holds
    assert not result.recovered_by_full_node


def test_invalid_code_rejected_by_codec_proof():
    result = run_sampling(SimConfig(**BASE, adversary="invalid-code", seed=11))
    assert verdicts(result) == [VERDICT_FRAUD] * 8
    assert result.agreement_holds
    kinds = {kind for _, kind in result.fraud_proof_ticks}
    assert kinds == {"codec"}


def test_invalid_transition_rejected_by_transition_proof():
    result = run_sampling(SimConfig(**BASE, adversary="invalid-transition", seed=11))
    assert verdicts(result) == [VERDICT_FRAUD] * 8
    kinds = {kind for _, kind in result.fraud_proof_ticks}
    assert kinds == {"transition"}


def test_invalid_empty_block_rejected_by_transition_proof():
    # no transfers: the block-final slice is the fee payout alone, and its
    # proof carries every original share, with no witness but the payout's
    config = SimConfig(**{**BASE, "tx_count": 0}, adversary="invalid-transition", seed=11)
    result = run_sampling(config)
    assert verdicts(result) == [VERDICT_FRAUD] * 8
    assert {kind for _, kind in result.fraud_proof_ticks} == {"transition"}
    assert verdicts(run_sampling(replace(config, adversary="honest"))) == [VERDICT_ACCEPT] * 8


def test_fraud_proof_verified_once_per_header_store(monkeypatch):
    calls = []
    apply = sim.fraud.apply_fraud_proof

    def counted(proof, store, p):
        calls.append(store)
        return apply(proof, store, p)

    monkeypatch.setattr(sim.fraud, "apply_fraud_proof", counted)
    result = run_sampling(SimConfig(**BASE, adversary="invalid-code", seed=11))
    assert verdicts(result) == [VERDICT_FRAUD] * 8
    # two full nodes and eight clients, each verifying the proof once
    assert len(calls) == 10
    assert len({id(store) for store in calls}) == 10


def test_full_node_stops_recovering_once_its_check_concludes(monkeypatch):
    """In a selective round whose samples reach the recovery threshold, the
    one full node recovers once and checks clean; the 23 later batches of
    cells that reach it start no recovery."""
    calls = []
    recover = sim.rs2d.recover_matrix
    monkeypatch.setattr(sim.rs2d, "recover_matrix", lambda *args: calls.append(args) or recover(*args))
    config = SimConfig(
        k=4, s=6, light_clients=30, full_nodes=1, adversary="selective", selective_limit=64, seed=1
    )
    assert run_sampling(config).recovered_by_full_node
    assert len(calls) == 1


def test_fraud_proof_propagation_delay_bound():
    """A client rejects within one hop of its full node learning of fraud."""
    config = SimConfig(**BASE, adversary="invalid-code", seed=13)
    result = run_sampling(config)
    emit_tick = min(tick for tick, _ in result.fraud_proof_ticks)
    for verdict in result.per_client:
        assert verdict.verdict == VERDICT_FRAUD
        assert verdict.tick <= emit_tick + 2 * config.delay


def test_determinism_full_event_trace():
    config = SimConfig(**BASE, adversary="invalid-code", seed=47)
    first = run_sampling(config)
    second = run_sampling(config)
    assert first.events == second.events
    assert verdicts(first) == verdicts(second)
    different = run_sampling(SimConfig(**BASE, adversary="invalid-code", seed=48))
    assert different.events != first.events


def test_agreement_across_structural_adversaries():
    for adversary, pattern in [
        ("honest", "all"),
        ("withhold", "all"),
        ("invalid-code", "all"),
        ("invalid-transition", "all"),
    ]:
        for seed in (1, 2, 3):
            result = run_sampling(
                SimConfig(**BASE, adversary=adversary, withhold_pattern=pattern, seed=seed)
            )
            assert result.agreement_holds, (adversary, seed)
            assert result.soundness_holds, (adversary, seed)


def test_selective_standard_deceives_exact_prefix():
    config = SimConfig(
        **BASE, adversary="selective", selective_limit=8, seed=21
    )
    result = run_sampling(config)
    predicted = predicted_deceived_prefix(config)
    assert result.deceived_clients == predicted
    assert result.accepting_clients == predicted
    assert predicted == list(range(len(predicted)))  # a prefix by client order
    assert 0 < len(predicted) < config.light_clients
    assert not result.soundness_holds
    assert not result.agreement_holds


def test_selective_budget_zero_rejects_everyone():
    config = SimConfig(**BASE, adversary="selective", selective_limit=0, seed=5)
    result = run_sampling(config)
    assert verdicts(result) == [VERDICT_UNAVAILABLE] * 8
    assert result.soundness_holds  # nobody accepted an unrecoverable block


def test_selective_enhanced_denies_fixed_count():
    config = SimConfig(
        **BASE,
        adversary="selective",
        selective_limit=10,
        network_model="enhanced",
        seed=31,
    )
    result = run_sampling(config)
    total = config.light_clients * config.s
    assert result.denied_requests == total - 10
    rejected = [v for v in result.per_client if v.verdict != VERDICT_ACCEPT]
    assert rejected  # most clients see a denial at this budget


def test_selective_enhanced_rejections_not_prefix_shaped():
    """Across seeds, enhanced-model rejections hit late clients as often
    as early ones."""
    first_half = second_half = 0
    c = BASE["light_clients"]
    for seed in range(120):
        config = SimConfig(
            **BASE,
            adversary="selective",
            selective_limit=16,
            network_model="enhanced",
            seed=seed,
        )
        result = run_sampling(config)
        for verdict in result.per_client:
            if verdict.verdict != VERDICT_ACCEPT:
                if verdict.client_id < c // 2:
                    first_half += 1
                else:
                    second_half += 1
    total = first_half + second_half
    assert total > 0
    # binomial split around one half
    sigma = math.sqrt(total * 0.25)
    assert abs(first_half - second_half) <= 4 * sigma + 2


def test_super_light_clients_follow_protocol():
    config = SimConfig(
        k=4, share_size=128, s=3, light_clients=6, full_nodes=2,
        super_light_clients=2, adversary="honest", seed=3,
    )
    result = run_sampling(config)
    assert verdicts(result) == [VERDICT_ACCEPT] * 6
    assert [v.super_light for v in result.per_client] == [False] * 4 + [True] * 2
    config = SimConfig(
        k=4, share_size=128, s=3, light_clients=6, full_nodes=2,
        super_light_clients=2, adversary="invalid-code", seed=3,
    )
    result = run_sampling(config)
    # codec proofs are self-contained, so super-light clients reject too
    assert verdicts(result) == [VERDICT_FRAUD] * 6


def _zeroed(path: MerkleProof) -> MerkleProof:
    return replace(path, siblings=tuple(bytes(len(sibling)) for sibling in path.siblings))


SAMPLE_TAMPERS = {
    "none": lambda share, proof: (share, proof),
    "root-tree-path": lambda share, proof: (
        share, replace(proof, root_proof=_zeroed(proof.root_proof))
    ),
    "share": lambda share, proof: (bytes([share[0] ^ 1]) + share[1:], proof),
    "row-path": lambda share, proof: (share, replace(proof, axis_proof=_zeroed(proof.axis_proof))),
}


@pytest.mark.parametrize(
    "super_light, tamper, accepted",
    [
        (False, "none", True),
        (False, "root-tree-path", True),  # it checks against the row root it holds
        (False, "share", False),
        (False, "row-path", False),
        (True, "none", True),
        (True, "root-tree-path", False),
        (True, "share", False),
        (True, "row-path", False),
    ],
)
def test_client_checks_a_sample_against_what_it_holds(super_light, tamper, accepted):
    """A client that holds the roots checks a sample's row path against its
    row root alone; a super-light client checks the whole proof against
    the data root."""
    config = SimConfig(**{**BASE, "s": 1, "light_clients": 2, "super_light_clients": 1})
    scenario = sim.prepare_scenario(config)
    simulation = sim._Simulation(config, scenario)
    client = simulation.clients[int(super_light)]
    assert client.super_light == super_light
    client.receive_header(scenario.built.header, scenario.built.commitment)
    ((request_id, cell),) = client.pending.items()
    share, proof = SAMPLE_TAMPERS[tamper](*scenario.cell_proofs[cell])

    client.receive_share(request_id, cell, share, proof)
    assert not client.pending
    assert client.failed is not accepted
    assert client.gossip_buffer == ([(*cell, share, proof)] if accepted else [])


@settings(max_examples=200)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(-1, 40)), max_size=60))
def test_engine_runs_events_in_heap_order(plan):
    """sim._Engine's per-tick FIFO lists run events in the order of one
    (tick, sequence) heap, with the same horizon. plan[i] = (delay, parent)
    schedules event i from the start (parent -1) or from the handler of an
    earlier event, delay 0 included."""

    def drive(engine):
        children = {i: [] for i in range(-1, len(plan))}
        for i, (delay, parent) in enumerate(plan):
            children[parent if parent < i else -1].append((i, delay))
        fired = []

        def fire(i):
            fired.append((engine.now, i))
            for child, delay in children[i]:
                engine.schedule(delay, fire, child)

        for child, delay in children[-1]:
            engine.schedule(delay, fire, child)
        return fired, engine.run()

    assert drive(sim._Engine()) == drive(HeapEngine())


def test_recovery_experiment_boundaries():
    # c*s below gamma can never cover enough distinct shares
    gamma = prob.recovery_threshold(2)
    assert recovery_experiment(2, 2, (gamma // 2) - 1, seeds=range(50)) == 0.0
    # far above the threshold, coverage is essentially certain
    assert recovery_experiment(2, 3, 40, seeds=range(50)) == 1.0


def test_recovery_experiment_tracks_pe():
    k, s, c = 4, 2, 60
    n = (2 * k) ** 2
    lam = n - prob.recovery_threshold(k)
    truth = float(pe_series_fraction(n, s, c, lam))
    runs = 3000
    freq = recovery_experiment(k, s, c, seeds=range(runs))
    sigma = math.sqrt(truth * (1 - truth) / runs)
    assert abs(freq - truth) <= 3 * sigma + 1e-9


def test_config_file_round_trip(tmp_path):
    text = """
    # sampling scenario
    k = 4
    share-size = 128
    s = 3
    light_clients = 5
    adversary = selective
    selective_limit = 7
    network_model = enhanced
    seed = 9
    """
    path = tmp_path / "run.cfg"
    path.write_text(text)
    config = SimConfig.from_file(path)
    assert (config.k, config.share_size, config.s) == (4, 128, 3)
    assert config.adversary == "selective"
    assert config.selective_limit == 7
    assert config.network_model == "enhanced"
    with pytest.raises(FileNotFoundError):
        SimConfig.from_file(tmp_path / "missing.cfg")
    with pytest.raises(ValueError):
        SimConfig(adversary="nope")


def test_default_config_builds_and_runs():
    result = run_sampling(SimConfig())
    assert len(result.per_client) == SimConfig().light_clients
    assert all(v.verdict == VERDICT_ACCEPT for v in result.per_client)


@pytest.mark.parametrize(
    "bad",
    [
        dict(k=0),
        dict(k=-1),
        dict(s=0),
        dict(k=1, s=5),
        dict(p=0),
        dict(p=-3),
        dict(response_window_factor=-1),
        dict(response_window_factor=-6),
        dict(super_light_clients=-1),
        dict(selective_limit=-1),
        dict(tx_count=-1),
        dict(withhold_pattern="bogus"),
        dict(adversary="honest", withhold_pattern="bogus"),
        dict(withhold_pattern="random:-5"),
        dict(withhold_pattern="random:65"),
        dict(withhold_pattern="random:"),
        dict(withhold_pattern="random:x"),
        # blocks build_block cannot lay out: shares out of range or odd, and
        # the default 12 transfers at p=1 over 34-byte shares (48 shares)
        # in a k=4 square of 16
        dict(share_size=33),
        dict(share_size=35),
        dict(share_size=34, p=1),
        # above erasure.MAX_K, refused by the layout check before anything
        # is sized by k
        dict(k=16385),
    ],
)
def test_bad_config_rejected_at_construction(bad):
    with pytest.raises(ValueError):
        SimConfig(**bad)


def test_config_enforces_period_floor():
    # one share payload of transfers per period: 2 at 128-byte shares, 3 at 256
    for share_size, floor in ((128, 2), (256, 3)):
        with pytest.raises(ValueError, match="period length must be at least"):
            SimConfig(share_size=share_size, p=floor - 1)
        SimConfig(share_size=share_size, p=floor)
        SimConfig(share_size=share_size, p=10)


def test_csv_outputs(tmp_path):
    result = run_sampling(SimConfig(**BASE, adversary="honest", seed=1))
    events_path = tmp_path / "events.csv"
    verdicts_path = tmp_path / "verdicts.csv"
    sim.write_events_csv(result.events, events_path)
    sim.write_verdicts_csv(result, verdicts_path)
    assert events_path.read_text().startswith("tick,actor,kind,detail")
    lines = verdicts_path.read_text().strip().splitlines()
    assert len(lines) == 1 + len(result.per_client)


# SHA-256 of `_canonical_run` per (adversary setting, seed), recorded before the
# simulator's message path was rewritten; any change to the trace shows here.
RECORDED_DIGESTS = {
    ("honest", 1): "5c7646bda04022e6992b16be603cdb381afe20e10b6fa52892ff87b8a376d248",
    ("honest", 11): "6663573325eadacf7ef3ad4b73823b0ec5d0984262faa24238bcd0548f0c1cf2",
    ("withhold-all", 1): "dd6b1a18f0b9b57fa0c48bdfecadb1120f05314d5e6e256a9ee438bd10a985b7",
    ("withhold-all", 11): "a4ab2f2e9891ae04da1a193c2005d8db23883cc1dcf8f4ce5f3f05f519d71675",
    ("withhold-submatrix", 1): "f30457a1f6f8eb92b7f82f2756937007800dbb8d4cc5fa7b5e3543dc4c14e981",
    ("withhold-submatrix", 11): "fceed75365dcbb449d64599f643bc6871024ad6a052c962a07dce4c6138bcaa9",
    ("withhold-random", 1): "375c3e95ae677490329d8708b30e2be5fe306e0493832c6513a1804e8fd0bc45",
    ("withhold-random", 11): "50b6860de2690f5c9a6a98b36cd679aa8ec6d14e3c4aa2c5fa6cdcf0e08cddfa",
    ("selective-standard", 1): "05f50dfdb17cdfb00b8801811f2ba16387a6b0bea7ac5df23f837b019a02635a",
    ("selective-standard", 11): "c9e2437d8ff643702a8b912f27409a565725967dbddb3c82b0ca1816940800aa",
    ("selective-enhanced", 1): "7f0481ee122a1ebee721c4a204eed4ee6d09afaa4eeeab0843b29e8f098f4709",
    ("selective-enhanced", 11): "3639a92f01aca6612d203fd44136569533d319f77c46fca8cc13d0543ef66a93",
    ("selective-budget-0", 1): "847a42d3c766f8c6cebee717f128a801b95dacb6ce3a76649c1c12ada165479c",
    ("selective-budget-0", 11): "af699d50f409e2dd77f21703de2147f27a06755ef50363480bd1f1521204d82e",
    ("invalid-transition", 1): "dfbafebc5ce570bb391b48aee98359c7986c4f93ffee3dd7e97669ca901b4edd",
    ("invalid-transition", 11): "6c0a17d29911f2679d6e1da737a3ac23049d82258c4775726756c1072c1a2f92",
    ("invalid-code", 1): "e121ccb3f05d2c49be91ae9b8062e886d49c25dd0c993d13b5e566ccb58bf864",
    ("invalid-code", 11): "4dad4661897e536ec611fa4a284725ece84629edc70ab27b12599176fedfc752",
}

ADVERSARY_SETTINGS = {
    "honest": dict(adversary="honest"),
    "withhold-all": dict(adversary="withhold", withhold_pattern="all"),
    "withhold-submatrix": dict(adversary="withhold", withhold_pattern="submatrix"),
    "withhold-random": dict(adversary="withhold", withhold_pattern="random:20"),
    "selective-standard": dict(adversary="selective"),
    "selective-enhanced": dict(adversary="selective", network_model="enhanced"),
    "selective-budget-0": dict(adversary="selective", selective_limit=0),
    "invalid-transition": dict(adversary="invalid-transition"),
    "invalid-code": dict(adversary="invalid-code"),
}


def _canonical_run(result) -> str:
    parts = [repr(event) for event in result.events]
    parts += [repr((v.client_id, v.super_light, v.verdict, v.tick)) for v in result.per_client]
    parts += [
        repr(result.fraud_proof_ticks),
        repr(result.horizon),
        repr(result.denied_requests),
        repr(result.deceived_clients),
        repr(result.recovered_tick),
    ]
    return "\n".join(parts)


@pytest.mark.parametrize("setting, seed", sorted(RECORDED_DIGESTS))
def test_outputs_match_recorded_digests(setting, seed):
    config = SimConfig(
        k=4, s=3, light_clients=10, full_nodes=3, super_light_clients=3, seed=seed,
        **ADVERSARY_SETTINGS[setting],
    )
    text = _canonical_run(run_sampling(config))
    assert hashlib.sha256(text.encode()).hexdigest() == RECORDED_DIGESTS[(setting, seed)]
