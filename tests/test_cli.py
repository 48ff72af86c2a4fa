import csv
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

from daproofs import prob
from daproofs.block import build_block, genesis_header
from daproofs.cli import main, write_block_dir
from daproofs.erasure import MAX_K
from tests.conftest import framed_block, funded_state, transfer_chain


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
    assert not (tmp_path / "o").exists()


def test_encode_usage_error_creates_no_out_dir(tmp_path, capsys):
    source = tmp_path / "in.bin"
    source.write_bytes(b"\x01" * 100)
    assert run_cli("encode", "--input", source, "--k", 1, "--share-size", 32, "--out", tmp_path / "d") == 2
    assert "share size must be in" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_prob_p1_csv(tmp_path):
    out = tmp_path / "p1.csv"
    assert run_cli("prob", "--table", "all", "--k", "32", "--s", "3,15", "--out", out) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    by_s = {int(row["s"]): float(row["p1"]) for row in rows}
    assert 0.55 <= by_s[3] <= 0.65
    assert by_s[15] > 0.99
    assert {row["pe"] for row in rows} == {""}  # no --c, no pe column


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
        "--c-hat", "3", "--d", "5", "--out", out,
    ) == 0
    row = next(csv.DictReader(out.read_text().splitlines()))
    assert float(row["pc"]) <= float(row["pc_from_j1"])
    assert 0.0 <= float(row["px"]) <= 1.0
    assert row["pe"] != ""


def test_prob_pe_column_builds_one_curve_per_k_and_s(tmp_path, monkeypatch):
    expected = {}
    for k, s in product((2, 4), (1, 3)):
        n = (2 * k) ** 2
        lam = n - prob.recovery_threshold(k)
        for c in range(1, 41):
            expected[(k, s, c)] = f"{prob.pe(n, s, c, lam):.10f}"
    built = []
    curve = prob.pe_dp_curve
    monkeypatch.setattr(prob, "pe_dp_curve", lambda *args: built.append(args) or curve(*args))
    out = tmp_path / "pe.csv"
    assert run_cli("prob", "--table", "all", "--k", "2,4", "--s", "1,3", "--c", "1..40", "--out", out) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert {(int(r["k"]), int(r["s"]), int(r["c"])): r["pe"] for r in rows} == expected
    assert len(rows) == len(expected)
    assert len(built) == 4


@pytest.mark.parametrize("target", ["1.5", "0", "1"])
def test_prob_target_outside_unit_interval_is_usage_error(target, capsys):
    assert run_cli("prob", "--table", "table1", "--k", "2", "--s", "3", "--target", target) == 2
    assert "target" in capsys.readouterr().err


# p1: the default table, whose p1 column is always filled; pe: `--table all`
# named outright, which fills pe as --c is given; pc-px adds the pc and px columns.
@pytest.mark.parametrize(
    "table",
    [(), ("--table", "all"), ("--table", "all", "--c-hat=3", "--d=2"), ("--table", "table1")],
    ids=["p1", "pe", "pc-px", "table1"],
)
@pytest.mark.parametrize(
    "bad", [("--k", "0"), ("--k", "4,-1"), ("--s", "0"), ("--c", "-3"), ("--c", "5,0")]
)
def test_prob_rejects_counts_below_one_before_any_work(table, bad, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("a table was computed")

    for name in ("p1", "pc", "pc_as_printed", "pe_dp_curve", "px", "min_clients"):
        monkeypatch.setattr(prob, name, no_work)
    args = {"--k": "4", "--s": "2", "--c": "1..3"}
    args[bad[0]] = bad[1]
    argv = [f"{flag}={value}" for flag, value in args.items()]
    assert run_cli("prob", *table, *argv) == 2
    captured = capsys.readouterr()
    assert "at least 1" in captured.err
    assert captured.out == ""


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


def test_fraud_verify_truncated_headers_exits_2(tmp_path, capsys):
    header = genesis_header(funded_state()[0]).to_bytes()
    headers = tmp_path / "headers.bin"
    headers.write_bytes(header + header[:-1])  # the second record is cut short
    proof_path = tmp_path / "proof.bin"
    proof_path.write_bytes(b"")
    assert run_cli("fraud", "verify", "--proof", proof_path, "--headers", headers) == 2
    assert "truncated record" in capsys.readouterr().err


def test_fraud_gen_codec_path(tmp_path):
    tree, keys = funded_state()
    txs = transfer_chain(keys, 12, random.Random(4))
    genesis = genesis_header(tree)
    built = build_block(genesis, tree, txs, k=4, share_size=256, p=10, mode="invalid-code")
    block_dir = tmp_path / "block"
    write_block_dir(built, genesis, tree, block_dir)
    proof_path = tmp_path / "codec.bin"
    assert run_cli("fraud", "gen", "--block", block_dir, "--out", proof_path) == 0
    headers = tmp_path / "headers.bin"
    headers.write_bytes(built.header.to_bytes())
    assert run_cli("fraud", "verify", "--proof", proof_path, "--headers", headers) == 0


def test_fraud_gen_proves_a_codec_fault_before_a_transition_fault(tmp_path, capsys):
    tree, keys = funded_state()
    genesis = genesis_header(tree)
    txs = transfer_chain(keys, 25, random.Random(8))
    built = build_block(genesis, tree, txs, k=4, share_size=256, p=10, mode="invalid-transition")
    cells = [list(row) for row in built.matrix.cells]
    cells[0][-1] = cells[0][-1][:-1] + bytes([cells[0][-1][-1] ^ 1])  # a parity cell too
    built.matrix = replace(built.matrix, cells=cells)
    built.header = replace(built.header, data_root=built.commitment.data_root)
    block_dir = tmp_path / "block"
    write_block_dir(built, genesis, tree, block_dir)
    proof_path = tmp_path / "proof.bin"
    assert run_cli("fraud", "gen", "--block", block_dir, "--out", proof_path) == 0
    assert "wrote codec fraud proof" in capsys.readouterr().out
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


@pytest.mark.parametrize("mismatch", ["prev_state", "prev_hash"])
def test_fraud_gen_refuses_a_block_dir_that_disagrees_with_prev_header(
    tmp_path, capsys, mismatch
):
    """An honest block whose prev_state.json gains one unit of balance, or
    whose prev_header.bin is another header, is refused before any proof."""
    tree, keys = funded_state()
    genesis = genesis_header(tree)
    txs = transfer_chain(keys, 12, random.Random(5))
    built = build_block(genesis, tree, txs, k=4, share_size=256, p=10)
    block_dir = tmp_path / "block"
    write_block_dir(built, genesis, tree, block_dir)
    if mismatch == "prev_state":
        path = block_dir / "prev_state.json"
        accounts = json.loads(path.read_text())
        accounts[next(iter(accounts))][0] += 1
        path.write_text(json.dumps(accounts))
    else:
        other = replace(genesis, additional_data=b"\x01")
        (block_dir / "prev_header.bin").write_bytes(other.to_bytes())
    proof_path = tmp_path / "proof.bin"
    assert run_cli("fraud", "gen", "--block", block_dir, "--out", proof_path) == 2
    assert not proof_path.exists()
    assert "prev_header.bin" in capsys.readouterr().err


def _edit_json(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _set_first_account(accounts, value):
    accounts[next(iter(accounts))] = value


MALFORMED_BLOCK_DIRS = {
    "k-not-int": ("meta.json", lambda meta: meta.update(k="4"), "meta.json k"),
    "k-above-max": ("meta.json", lambda meta: meta.update(k=MAX_K + 1), "meta.json k"),
    "share-size-small": ("meta.json", lambda meta: meta.update(share_size=32), "share_size"),
    "share-size-odd": ("meta.json", lambda meta: meta.update(share_size=255), "even"),
    "p-missing": ("meta.json", lambda meta: meta.pop("p"), "meta.json p"),
    "p-zero": ("meta.json", lambda meta: meta.update(p=0), "meta.json p"),
    "matrix-short": ("matrix.bin", None, "matrix.bin must hold"),
    "balance-2^64": (
        "prev_state.json", lambda accounts: _set_first_account(accounts, [2**64, 0]), "account"
    ),
    "account-not-pair": (
        "prev_state.json", lambda accounts: _set_first_account(accounts, 5), "[balance, nonce]"
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_BLOCK_DIRS))
def test_fraud_gen_refuses_a_malformed_block_dir(tmp_path, capsys, case):
    """Each out-of-range field of an honest block's directory is a usage
    error with a message, raised before anything is built or written."""
    name, edit, message = MALFORMED_BLOCK_DIRS[case]
    tree, keys = funded_state()
    genesis = genesis_header(tree)
    built = build_block(genesis, tree, transfer_chain(keys, 12, random.Random(5)), 4, 256)
    block_dir = tmp_path / "block"
    write_block_dir(built, genesis, tree, block_dir)
    path = block_dir / name
    if edit is None:
        path.write_bytes(path.read_bytes()[:-1])
    else:
        _edit_json(path, edit)
    proof_path = tmp_path / "proof.bin"
    assert run_cli("fraud", "gen", "--block", block_dir, "--out", proof_path) == 2
    assert message in capsys.readouterr().err
    assert not proof_path.exists()


def test_fraud_gen_proves_a_period_violation(tmp_path, capsys):
    # 30 transfers and no trace: the first period runs past p = 10
    tree, keys = funded_state()
    genesis = genesis_header(tree)
    built = framed_block(genesis, transfer_chain(keys, 30, random.Random(6)), 4, 256, 10)
    block_dir, proof_path, headers = tmp_path / "block", tmp_path / "p.bin", tmp_path / "h.bin"
    write_block_dir(built, genesis, tree, block_dir)
    assert run_cli("fraud", "gen", "--block", block_dir, "--out", proof_path) == 0
    assert "wrote transition fraud proof" in capsys.readouterr().out
    headers.write_bytes(genesis.to_bytes() + built.header.to_bytes())
    assert run_cli("fraud", "verify", "--proof", proof_path, "--headers", headers) == 0
    assert "block rejected" in capsys.readouterr().out


def test_module_form_runs_without_warnings():
    """`python -m daproofs.cli` under -W error: importing the package does
    not import cli ahead of runpy, which would warn."""
    command = "-W error -m daproofs.cli prob --table table1 --k 2 --s 1,2".split()
    run = subprocess.run(
        [sys.executable, *command],
        env={**os.environ, "PYTHONPATH": str(Path(prob.__file__).parents[1])},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr


def test_usage_errors(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        run_cli("fraud", "gen")
    assert excinfo.value.code == 2


GEN = ("gen", "--block", "block", "--out", "proof.bin")
VERIFY = ("verify", "--proof", "proof.bin", "--headers", "headers.bin")


@pytest.mark.parametrize(
    "args",
    [
        GEN + ("--p", "5"),
        GEN + ("--proof", "other.bin"),
        GEN + ("--headers", "headers.bin"),
        VERIFY + ("--block", "block"),
        VERIFY + ("--out", "out.bin"),
        GEN[:3],
        GEN[:1] + GEN[3:],
        VERIFY[:3],
        VERIFY[:1] + VERIFY[3:],
        (),
    ],
    ids=[
        "gen-p", "gen-proof", "gen-headers", "verify-block", "verify-out",
        "gen-no-out", "gen-no-block", "verify-no-headers", "verify-no-proof", "no-action",
    ],
)
def test_fraud_actions_take_only_their_own_options(tmp_path, monkeypatch, capsys, args):
    """Each fraud action accepts its own options only, and needs all but
    --p; argparse refuses anything else before a file is read."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        run_cli("fraud", *args)
    assert excinfo.value.code == 2
    assert list(tmp_path.iterdir()) == []
    assert run_cli("simulate", "--config", tmp_path / "missing.cfg", "--out", tmp_path / "o") == 2
