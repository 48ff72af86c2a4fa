import csv
import json
import random

import pytest

from daproofs.block import build_block, genesis_header
from daproofs.cli import main, write_block_dir
from tests.conftest import funded_state, transfer_chain


def run_cli(*args):
    return main([str(a) for a in args])


def test_encode_deterministic(tmp_path):
    data = bytes(range(256)) * 7
    source = tmp_path / "input.bin"
    source.write_bytes(data)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("encode", "--input", source, "--k", 6, "--share-size", 64, "--out", out_a) == 0
    assert run_cli("encode", "--input", source, "--k", 6, "--share-size", 64, "--out", out_b) == 0
    assert (out_a / "matrix.bin").read_bytes() == (out_b / "matrix.bin").read_bytes()
    commitment = json.loads((out_a / "commitment.json").read_text())
    assert commitment == json.loads((out_b / "commitment.json").read_text())
    assert commitment["matrix_width"] == 12
    assert commitment["data_length"] == 288
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["subcommand"] == "encode"


def test_encode_too_large_is_usage_error(tmp_path, capsys):
    source = tmp_path / "big.bin"
    source.write_bytes(b"\x01" * 10_000)
    assert run_cli("encode", "--input", source, "--k", 2, "--share-size", 34, "--out", tmp_path / "o") == 2


def test_prob_p1_csv(tmp_path):
    out = tmp_path / "p1.csv"
    assert run_cli("prob", "--table", "p1", "--k", "32", "--s", "3,15", "--out", out) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    by_s = {int(row["s"]): float(row["p1"]) for row in rows}
    assert 0.55 <= by_s[3] <= 0.65
    assert by_s[15] > 0.99


def test_prob_table1_cell(tmp_path):
    out = tmp_path / "table1.csv"
    assert run_cli("prob", "--table", "table1", "--k", "16", "--s", "2", "--out", out) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert rows == [{"k": "16", "s": "2", "min_clients": "692"}]


def test_prob_table1_k64_is_exact(capsys):
    assert run_cli("prob", "--table", "table1", "--k", "64", "--s", "50") == 0
    assert capsys.readouterr().out.splitlines() == ["k,s,min_clients", "64,50,451"]


def test_prob_px_and_pc_columns(tmp_path):
    out = tmp_path / "mix.csv"
    assert run_cli(
        "prob", "--table", "all", "--k", "4", "--s", "2", "--c", "10",
        "--c-hat", "3", "--d", "5", "--method", "dp", "--out", out,
    ) == 0
    row = next(csv.DictReader(out.read_text().splitlines()))
    assert float(row["pc"]) <= float(row["pc_from_j1"])
    assert 0.0 <= float(row["px"]) <= 1.0
    assert row["pe"] != ""


def test_simulate_and_outputs(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "k = 4\nshare_size = 128\ns = 3\nlight_clients = 5\nfull_nodes = 2\n"
        "adversary = honest\ntx_count = 10\n"
    )
    out = tmp_path / "sim"
    assert run_cli("simulate", "--config", config, "--seed", 5, "--out", out) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["soundness_holds"] and summary["agreement_holds"]
    assert len(summary["accepting_clients"]) == 5
    assert (out / "events.csv").exists()
    assert (out / "verdicts.csv").exists()
    assert (out / "headers.bin").exists()


def test_simulate_bad_config_exits_2(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("k = 4\nshare_size = 128\np = 0\n")
    assert run_cli("simulate", "--config", config, "--out", tmp_path / "sim") == 2


def test_fraud_gen_verify_round_trip(tmp_path):
    tree, keys = funded_state()
    txs = transfer_chain(keys, 25, random.Random(3))
    genesis = genesis_header(tree)
    built = build_block(genesis, tree, txs, k=4, share_size=256, p=10, mode="invalid-transition")
    block_dir = tmp_path / "block"
    write_block_dir(built, genesis, tree, block_dir)

    proof_path = tmp_path / "proof.bin"
    assert run_cli("fraud", "gen", "--block", block_dir, "--out", proof_path) == 0

    headers = tmp_path / "headers.bin"
    headers.write_bytes(genesis.to_bytes() + built.header.to_bytes())
    assert run_cli("fraud", "verify", "--proof", proof_path, "--headers", headers, "--p", 10) == 0

    # against a store that never saw the block, verification fails: exit 1
    lonely = tmp_path / "lonely.bin"
    lonely.write_bytes(genesis.to_bytes())
    assert run_cli("fraud", "verify", "--proof", proof_path, "--headers", lonely, "--p", 10) == 1


def test_fraud_gen_codec_path(tmp_path):
    tree, keys = funded_state()
    txs = transfer_chain(keys, 12, random.Random(4))
    genesis = genesis_header(tree)
    built = build_block(genesis, tree, txs, k=4, share_size=256, p=10, mode="invalid-code")
    block_dir = tmp_path / "block"
    write_block_dir(built, genesis, tree, block_dir)
    proof_path = tmp_path / "codec.bin"
    assert run_cli("fraud", "gen", "--kind", "codec", "--block", block_dir, "--out", proof_path) == 0
    headers = tmp_path / "headers.bin"
    headers.write_bytes(built.header.to_bytes())
    assert run_cli("fraud", "verify", "--proof", proof_path, "--headers", headers) == 0


def test_fraud_gen_on_honest_block(tmp_path):
    tree, keys = funded_state()
    txs = transfer_chain(keys, 12, random.Random(5))
    genesis = genesis_header(tree)
    built = build_block(genesis, tree, txs, k=4, share_size=256, p=10)
    block_dir = tmp_path / "block"
    write_block_dir(built, genesis, tree, block_dir)
    assert run_cli("fraud", "gen", "--block", block_dir, "--out", tmp_path / "p.bin") == 1


def test_usage_errors(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        run_cli("fraud", "gen")
    assert excinfo.value.code == 2
    assert run_cli("simulate", "--config", tmp_path / "missing.cfg", "--out", tmp_path / "o") == 2
