"""Span wrappers around the public functions of the six hktlie layers.

The program is not edited: `install` wraps every public module-level
function of `rootsys`, `liealg`, `autom`, `cstruct`, `spaces` and `cli`,
and rebinds each name wherever a module of the package looks it up (both
`liealg.build_matrix_rep` and `spaces.build_matrix_rep`, for example).
Calls made inside a module through its own globals go through the wrapper
as well, so nested spans of one layer are possible; self time handles them.

A span is `[name, start, end, parent, key]`. `key` is filled only for the
few builders whose repeated work the per-layer counts measure. Spans stay
in memory and are written once, when the traced process ends.

With `memory=True` tracemalloc runs for the whole process, and every span
of `liealg` or `cstruct` that has no enclosing span of its own layer
records the largest growth of traced memory it saw, in bytes, as a sixth
field.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import tracemalloc

LAYERS = ("rootsys", "liealg", "autom", "cstruct", "spaces", "cli")
MEMORY_LAYERS = ("liealg", "cstruct")


def _key_root_system(args, kwargs, result):
    return f"{result.family}{result.rank}"


def _key_chain(args, kwargs, result):
    rs = args[0] if args else kwargs["rs"]
    return f"{rs.family}{rs.rank}"


def _key_rep(args, kwargs, result):
    # The object id tells a fresh build from a cache hit; the algebra part
    # tells how many distinct simple algebras were needed.
    return f"{result.family}{result.rank}|{result.rep_kind}|{result.u1_count}|{id(result)}"


def _key_automorphism(args, kwargs, result):
    rep = args[0]
    theta = args[1] if len(args) > 1 else kwargs["theta"]
    return (f"{rep.family}{rep.rank}|{rep.rep_kind}|{rep.u1_count}|{result.kind}|"
            + ",".join(str(c) for c in theta.coords))


KEYED = {
    "rootsys.build_root_system": _key_root_system,
    "rootsys.basic_root_chain": _key_chain,
    "liealg.build_matrix_rep": _key_rep,
    "autom.automorphism_from_root": _key_automorphism,
}


class Tracer:
    """Collects spans of one process; `install` puts it in place."""

    def __init__(self, memory: bool = False):
        self.spans = []
        self.stack = []
        self.memory = memory
        self._open_outer = []   # [base bytes, max bytes] of each open outermost span

    def _memory_event(self):
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for entry in self._open_outer:
            entry[1] = max(entry[1], peak)

    def _outermost(self, layer):
        return layer in MEMORY_LAYERS and not any(
            self.spans[i][0].startswith(layer + ".") for i in self.stack)

    def wrap(self, name, fn):
        layer = name.split(".", 1)[0]
        keyer = KEYED.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            index = len(spans)
            spans.append(record)
            outer = None
            if self.memory:
                self._memory_event()
                if self._outermost(layer):
                    current, _ = tracemalloc.get_traced_memory()
                    outer = [current, current]
                    self._open_outer.append(outer)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                if self.memory:
                    self._memory_event()
                    if outer is not None:
                        self._open_outer.remove(outer)
                        record.append(outer[1] - outer[0])
            if keyer is not None:
                record[4] = keyer(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every public function of the six layers and rebind its names."""
        modules = [importlib.import_module(f"hktlie.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for module in [importlib.import_module("hktlie"), *modules]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
        if self.memory:
            tracemalloc.start()

    def dump(self, path, **extra):
        with open(path, "w") as fh:
            json.dump(dict(extra, spans=self.spans), fh)


# ---------------------------------------------------------------------------
# per-layer metrics of one pass, from the spans of its operations

PER_LAYER = {
    "rootsys.self_s": "s", "rootsys.calls": "count", "rootsys.distinct_algebras": "count",
    "liealg.self_s": "s", "liealg.peak_mb": "MB", "liealg.rep_calls": "count",
    "liealg.rep_keys": "count", "liealg.rep_algebras": "count",
    "autom.self_s": "s", "autom.automorphisms": "count",
    "autom.automorphisms_distinct": "count", "autom.chain_checks": "count",
    "cstruct.nijenhuis_s": "s", "cstruct.residuals_s": "s", "cstruct.calls": "count",
    "cstruct.peak_mb": "MB",
    "spaces.self_s": "s", "spaces.certifications": "count",
    "cli.import_s": "s", "cli.parse_s": "s", "cli.emit_s": "s", "cli.process_s": "s",
    "trace.overhead_s": "s",
}
NIJENHUIS = "cstruct.nijenhuis_at_origin"


def summarise(ops, memory_ops) -> dict:
    """Per-layer metrics of one pass.

    `ops` are the span dumps of the timing pass, each with the operation's
    wall time added as `wall_s`; `memory_ops` are those of the tracemalloc
    pass. Times and counts are summed over the operations of the pass,
    distinct counts are taken within each process (where a cache could
    help) and then summed, and peaks are the largest of any operation.
    """
    m = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER.items()}
    for op in ops:
        spans = op["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent, _key, *_ in spans:
            if parent >= 0:
                covered[parent] += end - start
        in_nij = [False] * len(spans)
        keys = {}
        for i, (name, start, end, parent, key, *_) in enumerate(spans):
            layer = name.split(".", 1)[0]
            own = end - start - covered[i]
            in_nij[i] = name == NIJENHUIS or (parent >= 0 and in_nij[parent])
            if layer not in ("cli", "cstruct"):
                m[f"{layer}.self_s"] += own
            if layer == "cstruct":
                m["cstruct.calls"] += 1
                if name == NIJENHUIS and not (parent >= 0 and in_nij[parent]):
                    m["cstruct.nijenhuis_s"] += end - start
                elif not in_nij[i]:
                    m["cstruct.residuals_s"] += own
            if name in ("cli.parse_space_string", "cli.build_parser"):
                m["cli.parse_s"] += end - start
            elif name == "cli.canonical_json":
                m["cli.emit_s"] += end - start
            elif name == "spaces.build_coset_triple":
                m["spaces.certifications"] += 1
            elif name == "autom.basic_roots":
                m["autom.chain_checks"] += 1
            if key is not None:
                keys.setdefault(name, []).append(key)
        built = keys.get("rootsys.build_root_system", []) + keys.get("rootsys.basic_root_chain", [])
        m["rootsys.calls"] += len(built)
        m["rootsys.distinct_algebras"] += len(
            {(n, k) for n in ("rootsys.build_root_system", "rootsys.basic_root_chain")
             for k in keys.get(n, [])})
        reps = keys.get("liealg.build_matrix_rep", [])
        m["liealg.rep_calls"] += len(reps)
        m["liealg.rep_keys"] += len(set(reps))
        m["liealg.rep_algebras"] += len({k.split("|")[0] + k.split("|")[1] for k in reps})
        autos = keys.get("autom.automorphism_from_root", [])
        m["autom.automorphisms"] += len(autos)
        m["autom.automorphisms_distinct"] += len(set(autos))
        m["cli.import_s"] += op["import_s"]
        m["cli.process_s"] += op["wall_s"]
    for op in memory_ops:
        for name, _start, _end, _parent, _key, *peak in op["spans"]:
            layer = name.split(".", 1)[0]
            if peak and layer in MEMORY_LAYERS:
                m[f"{layer}.peak_mb"] = max(m[f"{layer}.peak_mb"], peak[0] / 2 ** 20)
    return m
