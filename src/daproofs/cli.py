"""Command-line front end.

Subcommands:
  encode    pack a file into shares (block.pack_shares) and erasure-extend them
  prob      emit probability tables as CSV
  simulate  run the sampling simulator from a key=value config file
  fraud     generate or verify fraud proofs against block files

A block directory, which `fraud gen` reads and write_block_dir lays out,
holds header.bin and prev_header.bin (wire headers), matrix.bin (all 2k x
2k cells, row-major; the original shares are its top-left quadrant),
meta.json (k, share size, p) and prev_state.json (the previous block's
accounts, each [balance, nonce]). `fraud gen` refuses a directory whose
meta.json, matrix.bin size or accounts are out of range, whose header
does not point at prev_header.bin, or whose prev_state.json does not
have that header's state root.

`encode` and `simulate` also write a manifest.json recording the
subcommand, inputs, and seed, so their outputs are reproducible from the
manifest alone; `simulate --seed` overrides the config file's seed.
Exit codes: 0 success (and "proof verifies"), 1 verification returned
false or the block checked clean, 2 usage or input errors, block data
that does not parse among them.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from . import block, fraud, prob, rs2d, sim
from .block import DEFAULT_PERIOD, BlockHeader, BuiltBlock, ParseError
from .erasure import MAX_K
from .fraud import HeaderStore
from .merkle import Reader
from .smt import StateTree
from .state import U64_MAX, AccountValue

EXIT_OK = 0
EXIT_VERIFY_FALSE = 1
EXIT_USAGE = 2


class CliError(Exception):
    pass


def _write_manifest(out_dir: Path, subcommand: str, details: dict) -> None:
    manifest = {"subcommand": subcommand, **details}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


# --- encode ----------------------------------------------------------------------


def cmd_encode(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    raw = Path(args.input).read_bytes()
    shares = block.pack_shares(raw, (), args.share_size)
    matrix = rs2d.extend_shares(shares, args.k, args.share_size)
    commitment = rs2d.commit(matrix)
    width = matrix.width
    cells = b"".join(matrix.cells[r][c] for r in range(width) for c in range(width))
    (out_dir / "matrix.bin").write_bytes(cells)
    (out_dir / "commitment.json").write_text(
        json.dumps(
            {
                "k": args.k,
                "share_size": args.share_size,
                "matrix_width": width,
                "data_length": commitment.data_length,
                "data_root": commitment.data_root.hex(),
                "row_roots": [r.hex() for r in commitment.row_roots],
                "column_roots": [c.hex() for c in commitment.column_roots],
            },
            indent=2,
        )
    )
    _write_manifest(
        out_dir,
        "encode",
        {"input": str(args.input), "k": args.k, "share_size": args.share_size},
    )
    print(f"data_root={commitment.data_root.hex()}")
    return EXIT_OK


# --- prob ------------------------------------------------------------------------


def _parse_int_list(spec: str) -> list[int]:
    """Comma-separated integers; a..b expands to an inclusive range."""
    values: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..", 1)
            values.extend(range(int(lo), int(hi) + 1))
        elif part:
            values.append(int(part))
    if not values:
        raise CliError(f"empty integer list: {spec!r}")
    return values


def cmd_prob(args: argparse.Namespace) -> int:
    import csv

    ks, ss = _parse_int_list(args.k), _parse_int_list(args.s)
    cs = _parse_int_list(args.c) if args.c else [0]  # 0: no client count
    if min(ks) < 1 or min(ss) < 1 or (args.c and min(cs) < 1):
        raise CliError("--k, --s and every --c entry must be at least 1")
    rows = []
    if args.table == "table1":
        header = ["k", "s", "min_clients"]
        for k in ks:
            for s in ss:
                rows.append([k, s, prob.min_clients(k, s, target=args.target)])
    else:
        header = ["k", "s", "c", "c_hat", "d", "p1", "pc", "pc_from_j1", "pe", "px"]
        for k in ks:
            n = (2 * k) ** 2
            lam = n - prob.recovery_threshold(k)
            for s in ss:
                p1_value = prob.p1(k, s)
                # entry [c] does not depend on c_max: one curve serves every c
                pe_curve = prob.pe_dp_curve(n, s, lam, max(cs)) if args.c else None
                for c in cs:
                    row: dict[str, object] = {
                        "k": k, "s": s, "c": c, "c_hat": "", "d": "",
                        "p1": f"{p1_value:.10f}", "pc": "", "pc_from_j1": "",
                        "pe": "", "px": "",
                    }
                    if args.c_hat is not None and c:
                        row["c_hat"] = args.c_hat
                        row["pc"] = f"{prob.pc(k, s, c, args.c_hat):.10f}"
                        row["pc_from_j1"] = f"{prob.pc_as_printed(k, s, c, args.c_hat):.10f}"
                    if pe_curve is not None:
                        row["pe"] = f"{pe_curve[c]:.10f}"
                    if args.d is not None and c:
                        row["d"] = args.d
                        row["px"] = f"{prob.px(s, c, args.d):.10f}"
                    rows.append([row[name] for name in header])

    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()
    return EXIT_OK


# --- simulate ----------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    config = sim.SimConfig.from_file(args.config)
    if args.seed is not None:
        config.seed = args.seed
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    scenario = sim.prepare_scenario(config)
    verdict = sim.run_sampling(config, scenario)
    sim.write_events_csv(verdict.events, out_dir / "events.csv")
    sim.write_verdicts_csv(verdict, out_dir / "verdicts.csv")
    (out_dir / "headers.bin").write_bytes(
        scenario.genesis.to_bytes() + scenario.built.header.to_bytes()
    )
    summary = {
        "accepting_clients": verdict.accepting_clients,
        "recovered_by_full_node": verdict.recovered_by_full_node,
        "recovered_tick": verdict.recovered_tick,
        "soundness_holds": verdict.soundness_holds,
        "agreement_holds": verdict.agreement_holds,
        "denied_requests": verdict.denied_requests,
        "fraud_proofs": [
            {"tick": tick, "kind": kind} for tick, kind in verdict.fraud_proof_ticks
        ],
        "horizon": verdict.horizon,
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2))
    _write_manifest(
        out_dir, "simulate", {"config": str(args.config), "seed": config.seed}
    )
    print(json.dumps(summary, indent=2))
    return EXIT_OK


# --- fraud -------------------------------------------------------------------------


def write_block_dir(built, prev_header: BlockHeader, prev_state: StateTree, out_dir: Path) -> None:
    """Lay out a block for the fraud commands: headers, matrix, meta, state."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "header.bin").write_bytes(built.header.to_bytes())
    (out_dir / "prev_header.bin").write_bytes(prev_header.to_bytes())
    width = built.matrix.width
    (out_dir / "matrix.bin").write_bytes(
        b"".join(built.matrix.cells[r][c] for r in range(width) for c in range(width))
    )
    (out_dir / "meta.json").write_text(
        json.dumps({"k": built.matrix.k, "share_size": built.matrix.share_size, "p": built.p})
    )
    accounts = {
        key.hex(): [AccountValue.decode(value).balance, AccountValue.decode(value).nonce]
        for key, value in prev_state.items()
    }
    (out_dir / "prev_state.json").write_text(json.dumps(accounts, indent=0))


def _checked_int(value: object, what: str, lo: int, hi: Optional[int] = None) -> int:
    """value, if it is an integer in lo..hi (unbounded above when hi is None)."""
    if type(value) is not int or value < lo or (hi is not None and value > hi):
        bound = f"at least {lo}" if hi is None else f"in {lo}..{hi}"
        raise CliError(f"{what} must be an integer {bound}")
    return value


def _load_block_dir(block_dir: Path):
    meta = json.loads((block_dir / "meta.json").read_text())
    if not isinstance(meta, dict):
        raise CliError("meta.json must be an object")
    k = _checked_int(meta.get("k"), "meta.json k", 1, MAX_K)
    share_size = _checked_int(
        meta.get("share_size"), "meta.json share_size", block.MIN_SHARE_SIZE, block.MAX_SHARE_SIZE
    )
    if share_size % 2:
        raise CliError("meta.json share_size must be even")
    p = _checked_int(meta.get("p"), "meta.json p", 1)
    header = BlockHeader.from_bytes((block_dir / "header.bin").read_bytes())
    prev_header = BlockHeader.from_bytes((block_dir / "prev_header.bin").read_bytes())
    matrix_blob = (block_dir / "matrix.bin").read_bytes()
    width = 2 * k
    if len(matrix_blob) != width * width * share_size:
        raise CliError(f"matrix.bin must hold {width * width * share_size} bytes")
    cells = [
        [
            matrix_blob[(r * width + c) * share_size : (r * width + c + 1) * share_size]
            for c in range(width)
        ]
        for r in range(width)
    ]
    matrix = rs2d.ExtendedMatrix(k, share_size, cells)
    prev_state = StateTree()
    accounts = json.loads((block_dir / "prev_state.json").read_text())
    if not isinstance(accounts, dict):
        raise CliError("prev_state.json must be an object")
    for key_hex, account in accounts.items():
        if not isinstance(account, list) or len(account) != 2:
            raise CliError(f"account {key_hex} must be [balance, nonce]")
        balance, nonce = (_checked_int(v, f"account {key_hex} entry", 0, U64_MAX) for v in account)
        prev_state.update(bytes.fromhex(key_hex), AccountValue(balance, nonce).encode())
    return BuiltBlock(header, matrix, p), prev_header, prev_state


def cmd_fraud(args: argparse.Namespace) -> int:
    if args.action == "gen":
        built, prev_header, prev_state = _load_block_dir(Path(args.block))
        if built.header.data_root != built.commitment.data_root:
            raise CliError("stored matrix does not match the header data root")
        if built.header.prev_hash != prev_header.block_hash():
            raise CliError("header prev_hash does not match prev_header.bin")
        if prev_state.root() != prev_header.state_root:
            raise CliError("prev_state.json does not match prev_header.bin's state root")
        partial = rs2d.PartialMatrix.from_matrix(built.matrix, with_proofs=True)
        proof = fraud.check_block(partial, built, prev_state)
        if proof is None:
            print("block replays cleanly; no fraud proof to generate")
            return EXIT_VERIFY_FALSE
        Path(args.out).write_bytes(fraud.encode_fraud_proof(proof))
        kind = "transition" if isinstance(proof, fraud.TransitionFraudProof) else "codec"
        print(f"wrote {kind} fraud proof: {args.out}")
        return EXIT_OK

    # verify
    store = HeaderStore()
    headers = Reader(Path(args.headers).read_bytes())
    while not headers.at_end():
        store.add(BlockHeader.read(headers))
    proof = fraud.decode_fraud_proof(Path(args.proof).read_bytes())
    ok = fraud.apply_fraud_proof(proof, store, p=args.p)
    print("fraud proof verifies: block rejected" if ok else "fraud proof does NOT verify")
    return EXIT_OK if ok else EXIT_VERIFY_FALSE


# --- entry point ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="daproofs",
        description="Erasure-coded data availability and fraud proof toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="extend a file into a committed share matrix")
    enc.add_argument("--input", required=True)
    enc.add_argument("--k", type=int, required=True)
    enc.add_argument("--share-size", type=int, default=256, dest="share_size")
    enc.add_argument("--out", required=True)
    enc.set_defaults(func=cmd_encode)

    pr = sub.add_parser("prob", help="emit probability tables as CSV")
    pr.add_argument("--table", choices=["all", "table1"], default="all")
    pr.add_argument("--k", default="16")
    pr.add_argument("--s", default="1..15")
    pr.add_argument("--c", default="")
    pr.add_argument("--c-hat", type=int, default=None, dest="c_hat")
    pr.add_argument("--d", type=int, default=None)
    pr.add_argument("--target", type=float, default=0.99)
    pr.add_argument("--out", default="")
    pr.set_defaults(func=cmd_prob)

    si = sub.add_parser("simulate", help="run the sampling simulator")
    si.add_argument("--config", required=True)
    si.add_argument("--seed", type=int, default=None)
    si.add_argument("--out", required=True)
    si.set_defaults(func=cmd_simulate)

    fr = sub.add_parser("fraud", help="generate or verify fraud proofs")
    fr.add_argument("action", choices=["gen", "verify"])
    fr.add_argument("--block", help="block directory (gen)")
    fr.add_argument("--proof", help="proof file (verify)")
    fr.add_argument("--headers", help="concatenated header records (verify)")
    fr.add_argument("--p", type=int, default=DEFAULT_PERIOD, help="period criterion")
    fr.add_argument("--out", help="output proof file (gen)")
    fr.set_defaults(func=cmd_fraud)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "fraud":
        if args.action == "gen" and (not args.block or not args.out):
            parser.error("fraud gen needs --block and --out")
        if args.action == "verify" and (not args.proof or not args.headers):
            parser.error("fraud verify needs --proof and --headers")
    try:
        return args.func(args)
    except (CliError, FileNotFoundError, ValueError, json.JSONDecodeError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
