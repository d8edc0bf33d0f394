"""Spans and counts around the library's functions, installed from outside.

``Tracer.install`` replaces each target function with a wrapper in every
``icmverify`` module namespace that holds it, so calls the library makes
internally (``specfmt.derive_truth_table``, ``verifier.rows_to_bits``,
``table.canonicalize_table``, ``oracle.run_branch``, ...) are seen as
well as the benchmark's own calls.  A target the library no longer has
is reported in ``absent`` and skipped.

A span records its layer name, start, end, parent span and op id; spans
stay in memory until ``take`` hands them over.  A layer's self time is its span
durations minus the time of the child spans inside them.  Wrappers record
nothing while ``active`` is false, so checks run between the timed parts
of an op leave no trace.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter


def _parsed(counts, args, result):
    counts["circuit.qubits"] += result.n
    counts["circuit.cnots"] += len(result.cnots)


def _conjugated(counts, args, result):
    counts["pauli.row_cnot_updates"] += len(args[0]) * len(args[3])


def _derived(counts, args, result):
    counts["table.rows"] += len(result.rows)


def _serialized_spec(counts, args, result):
    counts["specfmt.spec_bytes"] += len(result.encode())


def _verified(counts, args, result):
    counts["verifier.rows_checked"] += len(args[1].table.rows)


def _branch(counts, args, result):
    vec = result[0]
    counts["oracle.branches"] += 1
    counts["oracle.cnot_applications"] += len(args[0].cnots)
    if float((vec.conj() @ vec).real) > 1e-24:
        counts["oracle.live_branches"] += 1


def _row_multiply(counts, args, result):
    counts["table.row_multiplies"] += 1


# (layer, module, attribute, count hook); a None layer counts without a span
TARGETS = [
    ("circuit.parse", "circuit", "parse_circuit", _parsed),
    ("circuit.serialize", "circuit", "serialize_circuit", None),
    ("circuit.validate", "circuit", "validate_icm", None),
    ("pauli.conjugate", "pauli", "conjugate_rows_batch", _conjugated),
    ("pauli.convert", "pauli", "rows_to_bits", None),
    ("pauli.convert", "pauli", "bits_to_pauli", None),
    ("table.derive", "table", "derive_truth_table", _derived),
    ("table.canonicalize", "table", "canonicalize_table", None),
    ("table.canonicalize", "table", "table_equal", None),
    (None, "table", "row_multiply", _row_multiply),
    ("specfmt.derive_spec", "specfmt", "derive_specification", None),
    ("specfmt.permute", "specfmt", "permute_table", None),
    ("specfmt.serialize", "specfmt", "serialize_spec", _serialized_spec),
    ("specfmt.parse", "specfmt", "parse_spec", None),
    ("verifier.verify", "verifier", "verify", _verified),
    ("verifier.spec_diff", "verifier", "spec_diff", None),
    ("oracle.run_branch", "oracle", "run_branch", _branch),
    ("oracle.choi", "oracle", "channel_choi", None),
    ("oracle.choi", "oracle", "choi_of_unitary", None),
    ("oracle.choi", "oracle", "channels_equal", None),
    ("oracle.fit_frames", "oracle", "fit_frames", None),
    ("oracle.truth_table", "oracle", "oracle_truth_table", None),
    ("compiler.parse_gates", "compiler", "parse_gates", None),
    ("compiler.compile", "compiler", "compile_to_icm", None),
    ("compiler.frame_map", "compiler", "CompileResult.frame_map", None),
    ("transforms.rewrite", "transforms", "dual_rewrite", None),
    ("transforms.rewrite", "transforms", "demote_rotated_measurement", None),
]
LAYERS = sorted({t[0] for t in TARGETS if t[0]})
COUNTS = ["circuit.qubits", "circuit.cnots", "pauli.row_cnot_updates", "table.rows",
          "table.row_multiplies", "specfmt.spec_bytes", "verifier.rows_checked",
          "oracle.branches", "oracle.cnot_applications"]


class Tracer:
    def __init__(self):
        self.active = False
        self.op_id = -1
        self.spans: list = []  # (layer, start, end, parent index, op id)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[list] = []  # [span index, child seconds]
        self._restore: list[tuple] = []

    def _span(self, layer, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack
            frame = [len(self.spans), 0.0]
            parent = stack[-1][0] if stack else -1
            self.spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans[frame[0]] = (layer, start, end, parent, self.op_id)
                self.self_s[layer] += end - start - frame[1]
                if stack:
                    stack[-1][1] += end - start
            if count is not None:
                self._count(count, args, result)
            return result
        return wrapper

    def _count(self, count, args, result) -> None:
        try:
            count(self.counts, args, result)
        except (AttributeError, IndexError, TypeError):
            # the library changed the shape this count reads
            name = f"count {count.__name__}"
            if name not in self.absent:
                self.absent.append(name)

    def _counter(self, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.active:
                self._count(count, args, result)
            return result
        return wrapper

    def install(self, package) -> None:
        self.absent = []
        prefix = package.__name__
        for modname in dict.fromkeys(t[1] for t in TARGETS):
            try:  # a module the package imports lazily must be loaded to be wrapped
                importlib.import_module(f"{prefix}.{modname}")
            except ModuleNotFoundError:
                pass
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == prefix or name.startswith(prefix + "."))]
        for layer, modname, attr, count in TARGETS:
            owner = sys.modules.get(f"{prefix}.{modname}")
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            fn = vars(owner).get(method) if owner is not None else None
            if not callable(fn):
                self.absent.append(f"{modname}.{attr}")
                continue
            wrapper = self._span(layer, fn, count) if layer else self._counter(fn, count)
            holders = [owner] if cls_name else modules
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, name, wrapper)
                        self._restore.append((holder, name, fn))

    def uninstall(self) -> None:
        for holder, name, fn in reversed(self._restore):
            setattr(holder, name, fn)
        self._restore.clear()

    def take(self) -> tuple[dict[str, float], list]:
        """Per-layer metrics and spans recorded since the last take; resets both."""
        out = {f"{layer}_s": self.self_s.get(layer, 0.0) for layer in LAYERS}
        out.update({name: self.counts.get(name, 0) for name in COUNTS})
        branches = self.counts.get("oracle.branches", 0)
        out["oracle.live_branch_ratio"] = (
            self.counts.get("oracle.live_branches", 0) / branches if branches else 0.0)
        spans = self.spans
        self.spans, self.self_s, self.counts = [], defaultdict(float), defaultdict(int)
        return out, spans


def write_spans(spans: list, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
