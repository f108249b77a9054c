"""Layer spans recorded from outside the program.

``Tracer.install`` replaces each public function named in ``TARGETS`` by a
wrapper, in every loaded ``frolicher`` module that binds it: modules that
did ``from .linalg import rank`` hold their own reference, and a function
patched only where it is defined would be bypassed there.  Wrappers record
nothing outside an operation, so input generation is never traced.

A span is ``(name, enter, start, end, leave, parent, op, info)``.  The
function ran from ``start`` to ``end``; ``enter`` and ``leave`` bracket the
wrapper's own bookkeeping, which is charged to no layer.  A span's self
time is ``end - start`` minus the ``leave - enter`` of its children.
Spans stay in memory until ``write_trace`` saves them at the end of a run.
"""

import functools
import gzip
import json
import sys
import time
from contextlib import contextmanager

clock = time.perf_counter


def _bits(m):
    """Largest bit length of a numerator or denominator in a matrix."""
    best = 0
    for row in m.tolist():
        for x in row:
            num = getattr(x, "numerator", x)
            den = getattr(x, "denominator", 1)
            best = max(best, abs(int(num)).bit_length(), int(den).bit_length())
    return best


def _is_trivial(m):
    return m.size == 0 or not m.any()


def _elim_info(args, result):
    """(cells, trivial, object dtype, max bits) of one eliminator call."""
    arg = args[0]
    mats = list(arg) if isinstance(arg, (list, tuple)) else [arg]
    rows = max((m.shape[0] for m in mats), default=0)
    cells = rows * sum(m.shape[1] for m in mats)
    bits = max((_bits(m) for m in mats), default=0)
    if getattr(result, "ndim", 0) == 2:
        bits = max(bits, _bits(result))
    return (cells, all(_is_trivial(m) for m in mats),
            any(m.dtype == object for m in mats), bits)


def _object_result(args, result):
    return result.dtype == object


def _entries(args, result):
    return sum(t.grid.size for t in result)


def _dump_bytes(args, result):
    return len(result)


def _parse_bytes(args, result):
    return len(args[0])


# (module, function, span name, info hook)
TARGETS = (
    ("frolicher.linalg", "rank", "linalg.elim", _elim_info),
    ("frolicher.linalg", "nullspace", "linalg.elim", _elim_info),
    ("frolicher.linalg", "rank_of_columns", "linalg.elim", _elim_info),
    ("frolicher.linalg", "mat_mul", "linalg.asm.mat_mul", _object_result),
    ("frolicher.linalg", "assemble", "linalg.asm.assemble", _object_result),
    ("frolicher.linalg", "hstack", "linalg.asm.stack", _object_result),
    ("frolicher.linalg", "vstack", "linalg.asm.stack", _object_result),
    ("frolicher.bicomplex", "validate", "bicomplex.validate", None),
    ("frolicher.bicomplex", "total_differential",
     "bicomplex.total_differential", None),
    ("frolicher.spectral", "pages_filtration", "spectral.filtration", _entries),
    ("frolicher.spectral", "pages_explicit", "spectral.explicit", _entries),
    ("frolicher.cohomology", "dolbeault", "cohomology", None),
    ("frolicher.cohomology", "row_cohomology", "cohomology", None),
    ("frolicher.cohomology", "de_rham", "cohomology", None),
    ("frolicher.cohomology", "bott_chern", "cohomology", None),
    ("frolicher.cohomology", "aeppli", "cohomology", None),
    ("frolicher.cohomology", "arithmetic_genus", "cohomology", None),
    ("frolicher.zigzag", "synthesize", "zigzag.synthesize", None),
    ("frolicher.s6", "realize_model", "s6.realize", None),
    ("frolicher.s6", "predicted_tables", "s6.predict", None),
    ("frolicher.s6", "verify_model", "s6.verify", None),
    ("frolicher.serialize", "complex_to_json", "serialize.dump", _dump_bytes),
    ("frolicher.serialize", "json_to_complex", "serialize.parse", _parse_bytes),
    ("frolicher.cli", "main", "cli.main", None),
)


def _program_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "frolicher"
                                  or name.startswith("frolicher."))]


def patch_everywhere(fn, replacement):
    """Rebind ``fn`` to ``replacement`` in every loaded program module.

    Returns the ``(module, attribute)`` pairs that were rebound.
    """
    patched = []
    for mod in _program_modules():
        for attr, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, attr, replacement)
                patched.append((mod, attr))
    return patched


class Tracer:
    def __init__(self):
        self.spans = []
        self.ops = []      # (op id, start, end)
        self.missing = []  # targets whose module is loaded but lacks the name
        self._stack = []
        self._op = None
        self._patches = []

    def install(self, targets=TARGETS):
        for modname, attr, name, info in targets:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(name, fn, info)
            for where in patch_everywhere(fn, wrapper):
                self._patches.append((where, fn))

    def uninstall(self):
        for (mod, attr), fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches = []

    def _wrap(self, name, fn, info):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self._op
            if op is None:
                return fn(*args, **kwargs)
            enter = clock()
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                detail = (info(args, result)
                          if info is not None and result is not None else None)
                spans[sid] = (name, enter, start, end, clock(), parent, op,
                              detail)

        return wrapper

    @contextmanager
    def operation(self, op_id):
        self._op = op_id
        start = clock()
        try:
            yield
        finally:
            self.ops.append((op_id, start, clock()))
            self._op = None

def write_trace(path, ops, groups):
    """Save operations and spans as gzipped JSON lines.

    ``groups`` is a list of ``(op, spans)``; spans recorded in a child
    process carry that child's op id 0, so ``op`` replaces it when given.
    """
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for op_id, start, end in ops:
            fh.write(json.dumps({"op": op_id, "start": start, "end": end})
                     + "\n")
        base = 0
        for op, spans in groups:
            for sid, s in enumerate(spans):
                name, _enter, start, end, _leave, parent, span_op, info = s
                fh.write(json.dumps({
                    "id": base + sid, "name": name, "start": start,
                    "end": end, "parent": base + parent if parent >= 0 else -1,
                    "op": span_op if op is None else op, "info": info}) + "\n")
            base += len(spans)


def self_times(spans):
    """Self time of every span: duration minus the time its children cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s[5] >= 0:
            covered[s[5]] += s[4] - s[1]
    return [s[3] - s[2] - covered[i] for i, s in enumerate(spans)]


ELIM, ASM, SPECTRAL, COHO = 1, 2, 4, 8


def _kind(name):
    if name == "linalg.elim":
        return ELIM
    if name.startswith("linalg.asm."):
        return ASM
    if name.startswith("spectral."):
        return SPECTRAL
    if name == "cohomology":
        return COHO
    return 0


def summarize(spans):
    """Mergeable per-layer sums and maxima of one set of spans."""
    raw = {}

    def add(key, value):
        raw[key] = raw.get(key, 0) + value

    def bump(key, value):
        raw[key] = max(raw.get(key, 0), value)

    selfs = self_times(spans)
    above = [0] * len(spans)  # kinds of all enclosing spans
    for i, (name, _e, start, end, _l, parent, _op, info) in enumerate(spans):
        kind = _kind(name)
        outer = above[parent] if parent >= 0 else 0
        above[i] = outer | kind
        dur = end - start
        add(f"{name}.self_s", selfs[i])
        add(f"{name}.calls", 1)
        if not outer & kind or not kind:
            add(f"{name}.incl_s", dur)
        if kind == ELIM:
            bump("linalg.elim.max_bits", info[3] if info else 0)
            if not outer & ELIM:
                add("linalg.elim.outer", 1)
                if info:
                    add("linalg.elim.cells", info[0])
                    bump("linalg.elim.max_cells", info[0])
                    add("linalg.elim.trivial", int(info[1]))
                    add("linalg.elim.object", int(info[2]))
                if outer & SPECTRAL:
                    add("spectral.elim_calls", 1)
                if outer & COHO:
                    add("cohomology.elim_calls", 1)
        elif kind == ASM:
            add("linalg.asm.self_s", selfs[i])
            if not outer & ASM:
                add("linalg.asm.outer", 1)
                add("linalg.asm.object", int(bool(info)))
        elif kind == SPECTRAL and not outer & SPECTRAL:
            add("spectral.entries", info or 0)
        elif name.startswith("serialize."):
            add("serialize.bytes", info or 0)
    return raw


def merge(a, b):
    out = dict(a)
    for key, value in b.items():
        out[key] = (max(out.get(key, 0), value) if ".max_" in key
                    else out.get(key, 0) + value)
    return out


def _share(num, den):
    return num / den if den else 0.0


def layer_metrics(raw):
    """Per-layer metric values (name -> value) from ``summarize`` output."""
    g = raw.get
    calls = g("linalg.elim.outer", 0)
    asm_calls = g("linalg.asm.outer", 0)
    entries = g("spectral.entries", 0)
    return {
        "linalg.elim.calls": calls,
        "linalg.elim.self_s": g("linalg.elim.self_s", 0.0),
        "linalg.elim.cells": g("linalg.elim.cells", 0),
        "linalg.elim.max_cells": g("linalg.elim.max_cells", 0),
        "linalg.elim.max_bits": g("linalg.elim.max_bits", 0),
        "linalg.elim.trivial_share": _share(g("linalg.elim.trivial", 0), calls),
        "linalg.elim.object_share": _share(g("linalg.elim.object", 0), calls),
        "linalg.asm.calls": asm_calls,
        "linalg.asm.self_s": g("linalg.asm.self_s", 0.0),
        "linalg.asm.object_share": _share(g("linalg.asm.object", 0), asm_calls),
        "linalg.asm.mat_mul.self_s": g("linalg.asm.mat_mul.self_s", 0.0),
        "linalg.asm.assemble.self_s": g("linalg.asm.assemble.self_s", 0.0),
        "linalg.asm.stack.self_s": g("linalg.asm.stack.self_s", 0.0),
        "bicomplex.validate.self_s": g("bicomplex.validate.self_s", 0.0),
        "bicomplex.total_differential.calls":
            g("bicomplex.total_differential.calls", 0),
        "bicomplex.total_differential.self_s":
            g("bicomplex.total_differential.self_s", 0.0),
        "spectral.filtration.self_s": g("spectral.filtration.self_s", 0.0),
        "spectral.filtration.incl_s": g("spectral.filtration.incl_s", 0.0),
        "spectral.explicit.self_s": g("spectral.explicit.self_s", 0.0),
        "spectral.explicit.incl_s": g("spectral.explicit.incl_s", 0.0),
        "spectral.entries": entries,
        "spectral.elim_per_entry": _share(g("spectral.elim_calls", 0), entries),
        "cohomology.self_s": g("cohomology.self_s", 0.0),
        "cohomology.incl_s": g("cohomology.incl_s", 0.0),
        "cohomology.elim_calls": g("cohomology.elim_calls", 0),
        "zigzag.synthesize.self_s": g("zigzag.synthesize.self_s", 0.0),
        "s6.realize.incl_s": g("s6.realize.incl_s", 0.0),
        "s6.predict.self_s": g("s6.predict.self_s", 0.0),
        "s6.verify.self_s": g("s6.verify.self_s", 0.0),
        "serialize.dump.self_s": g("serialize.dump.self_s", 0.0),
        "serialize.parse.self_s": g("serialize.parse.self_s", 0.0),
        "serialize.bytes": g("serialize.bytes", 0),
        "cli.import_s": g("cli.import_s", 0.0),
        "cli.main.self_s": g("cli.main.self_s", 0.0),
    }
