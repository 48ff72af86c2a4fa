"""Span tracing of the daproofs layers, installed from outside the package.

Each traced public function is replaced, in every daproofs module that
holds a reference to it, by a wrapper that records a span (name, start,
end, parent span, op id) and accumulates calls and self time (span time
minus the time of child spans). Modules that import a function by name
(rs2d imports rs_encode from erasure) are patched at that call site too.
Nothing is installed unless `Tracer.install` is called, and `uninstall`
puts every original object back, so untraced phases pay nothing.

Besides the spans, a few operation counts are computed from call shapes
and labelled as computed: GF(2^16) symbol multiplications, SHA-256 calls,
decodes per recovery, and fraud verifications per distinct proof.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

# (module, attribute path) of every traced function, grouped by layer.
TRACED = (
    ("erasure", "rs_encode"),
    ("erasure", "rs_decode"),
    ("rs2d", "extend_shares"),
    ("rs2d", "commit"),
    ("rs2d", "prove_share"),
    ("rs2d", "verify_share_merkle_proof"),
    ("rs2d", "recover_matrix"),
    ("merkle", "root"),
    ("merkle", "prove"),
    ("merkle", "verify_merkle_proof"),
    ("smt", "StateTree.update"),
    ("smt", "StateTree.prove"),
    ("smt", "verify"),
    ("smt", "WitnessSubtree.from_entries"),
    ("smt", "WitnessSubtree.root"),
    ("state", "apply_transaction"),
    ("state", "root_transition"),
    ("state", "make_witness"),
    ("state", "root_fee_payout"),
    ("block", "build_block"),
    ("block", "serialize_shares"),
    ("block", "parse_shares_with_spans"),
    ("block", "build_double_tree_block"),
    ("fraud", "generate_transition_fraud_proof"),
    ("fraud", "generate_codec_fraud_proof"),
    ("fraud", "generate_double_tree_fraud_proof"),
    ("fraud", "verify_transition_fraud_proof"),
    ("fraud", "verify_codec_fraud_proof"),
    ("fraud", "verify_double_tree_fraud_proof"),
    ("fraud", "encode_fraud_proof"),
    ("fraud", "decode_fraud_proof"),
    ("sim", "prepare_scenario"),
    ("sim", "run_sampling"),
    ("prob", "min_clients"),
    ("prob", "pe_dp_curve"),
    ("prob", "pe_reaches"),
    ("prob", "mc_min_clients"),
)

SPAN_NAMES = tuple(f"{module}.{attr}" for module, attr in TRACED)

# Counts computed from call shapes or counters, not timed.
COMPUTED = (
    ("erasure.symbol_mults", "count"),
    ("rs2d.recover.decodes", "count/call"),
    ("rs2d.recover.cells_filled", "count"),
    ("merkle.hashes", "count"),
    ("smt.hashes", "count"),
    ("sha256.calls", "count"),
    ("fraud.verifies_per_proof", "count/proof"),
    ("sim.events", "count/round"),
    ("sim.horizon_ticks", "ticks/round"),
    ("sim.recover_attempts", "count/round"),
    ("sim.fraud_verifications", "count/round"),
)

OVERHEAD = (
    ("trace.overhead.setup_s", "s"),
    ("trace.overhead.iteration_s", "s"),
)

def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COMPUTED)
    units.update(OVERHEAD)
    return units


def _package_modules() -> list[Any]:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "daproofs" or name.startswith("daproofs."))
    ]


class Tracer:
    """Collects spans and counts while installed; see the module docstring."""

    def __init__(self, proof_key: Callable[[Any], bytes]) -> None:
        # proof_key maps a proof object to its canonical bytes; it must call
        # only untraced code.
        self._proof_key = proof_key
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.op_id = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._child_s: list[float] = []
        self._active: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[Any, str, Any]] = []
        self._proofs_seen: dict[int, tuple[Any, bytes]] = {}
        self._distinct_proofs: set[bytes] = set()
        self._smt_start = 0
        self._smt: Any = None
        self._merkle_hashes = itertools.count()

    # --- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import daproofs
        from daproofs import merkle, smt

        self._smt = smt
        modules = _package_modules()
        for module_name, attr in TRACED:
            module = getattr(daproofs, module_name)
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                if isinstance(original, classmethod):
                    replacement: Any = classmethod(self._wrap(name, original.__func__))
                else:
                    replacement = self._wrap(name, original)
                self._patch(cls, method, replacement)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, wrapper)
        # merkle's own leaf/node hashing, counted without spans (smt keeps
        # its own reference to node_hash and is counted by smt itself)
        self._merkle_hashes = itertools.count()
        tick = self._merkle_hashes.__next__
        leaf_hash, node_hash = merkle.leaf_hash, merkle.node_hash

        def counted_leaf_hash(data: bytes) -> bytes:
            tick()
            return leaf_hash(data)

        def counted_node_hash(left: bytes, right: bytes) -> bytes:
            tick()
            return node_hash(left, right)

        self._patch(merkle, "leaf_hash", counted_leaf_hash)
        self._patch(merkle, "node_hash", counted_node_hash)
        self._smt_start = smt.hash_invocations()

    def uninstall(self) -> None:
        if self._smt is not None:
            self.counts["smt.hashes"] += self._smt.hash_invocations() - self._smt_start
            self.counts["merkle.hashes"] += next(self._merkle_hashes)
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def _patch(self, holder: Any, key: str, replacement: Any) -> None:
        self._patches.append((holder, key, holder.__dict__[key]))
        setattr(holder, key, replacement)

    # --- spans --------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        before = getattr(self, "_before_" + name.split(".")[-1], None)
        spans, stack, child_s = self.spans, self._stack, self._child_s
        calls, self_s, active = self.calls, self.self_s, self._active

        def run_hook(hook: Callable, *args: Any) -> Any:
            # hook time is charged to nobody, not to the enclosing span
            start = perf_counter()
            result = hook(*args)
            if child_s:
                child_s[-1] += perf_counter() - start
            return result

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            hook = run_hook(before, name, args, kwargs) if before is not None else None
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((name, 0.0, 0.0, parent, self.op_id))
            stack.append(index)
            child_s.append(0.0)
            active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                active[name] -= 1
                stack.pop()
                children = child_s.pop()
                if child_s:
                    child_s[-1] += end - start
                calls[name] += 1
                self_s[name] += end - start - children
                spans[index] = (name, start, end, parent, self.op_id)
            if hook is not None:
                run_hook(hook, result)
            return result

        return traced

    def _before_rs_encode(self, name: str, args: tuple, kwargs: dict) -> None:
        data = args[0]
        k = len(data)
        self.counts["erasure.symbol_mults"] += k * k * (len(data[0]) // 2)

    def _before_rs_decode(self, name: str, args: tuple, kwargs: dict) -> None:
        present, k = args[0], args[1]
        if present:
            self.counts["erasure.symbol_mults"] += 2 * k * k * (len(present[0][1]) // 2)
        if self._active["rs2d.recover_matrix"]:
            self.counts["recover.decodes"] += 1

    def _before_recover_matrix(self, name: str, args: tuple, kwargs: dict) -> Callable:
        partial = args[0]
        missing = partial.missing()
        if self._active["sim.run_sampling"]:
            self.counts["sim.recover_attempts"] += 1

        def after(result: Any) -> None:
            self.counts["rs2d.recover.cells_filled"] += missing - partial.missing()

        return after

    def _before_run_sampling(self, name: str, args: tuple, kwargs: dict) -> Callable:
        def after(verdict: Any) -> None:
            self.counts["sim.events"] += len(verdict.events)
            self.counts["sim.horizon_ticks"] += verdict.horizon

        return after

    def _note_verify(self, name: str, args: tuple, kwargs: dict) -> None:
        proof = args[0]
        seen = self._proofs_seen.get(id(proof))
        if seen is None or seen[0] is not proof:
            seen = (proof, hashlib.sha256(self._proof_key(proof)).digest())
            self._proofs_seen[id(proof)] = seen
        self._distinct_proofs.add(seen[1])
        self.counts["fraud.verifications"] += 1
        if self._active["sim.run_sampling"]:
            self.counts["sim.fraud_verifications"] += 1

    _before_verify_transition_fraud_proof = _note_verify
    _before_verify_codec_fraud_proof = _note_verify
    _before_verify_double_tree_fraud_proof = _note_verify

    def take(self) -> dict[str, float]:
        """Totals since the last take, for one traced set-up or iteration.

        Call after uninstall. Distinct proofs are counted per unit.
        """
        totals: dict[str, float] = dict(self.counts)
        totals["fraud.distinct_proofs"] = len(self._distinct_proofs)
        for name, count in self.calls.items():
            totals[f"{name}.calls"] = count
        for name, seconds in self.self_s.items():
            totals[f"{name}.self_s"] = seconds
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()
        self._distinct_proofs.clear()
        self._proofs_seen.clear()
        return totals

    # --- results ------------------------------------------------------------

    def write_spans(self, path: Any, op_names: dict[int, str]) -> None:
        """One line per span; parent is the line number of the parent span
        among the spans (0-based, -1 for none)."""
        with open(path, "w") as handle:
            handle.write("op\top_name\tname\tstart\tend\tparent\n")
            for name, start, end, parent, op in self.spans:
                handle.write(
                    f"{op}\t{op_names.get(op, '')}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n"
                )
