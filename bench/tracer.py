"""Spans and counters recorded from outside the program.

The tracer wraps public functions of the quadmod modules at run time and
restores them afterwards; nothing under src/ is edited.  Every wrapped call
records a span (id, function, start, end, parent id) and adds to the
per-function totals.  Self time is a span's duration minus the time covered
by its direct child spans.

Kernels (ExactMatrix methods) also split their calls by arithmetic path,
read from the numerator arrays of operands and result:

  i64       no object-dtype operand and an int64 result;
  obj       at least one object-dtype (bigint) operand;
  promoted  int64 operands and an object-dtype result.

from_rows has no array operand, so its path is read from the result alone
(an object result counts as obj).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (metric prefix, module, attribute path) for every wrapped function.
STAGES = [
    ("serialize.load", "serialize", "load"),
    ("quadmodule.validate_axioms", "quadmodule", "QuadModuleSpec.validate_axioms"),
    ("quadmodule.verify_finite_type", "quadmodule", "QuadModuleSpec.verify_finite_type"),
    ("quadmodule.derive_lambda", "quadmodule", "QuadModuleSpec.derive_lambda"),
    ("quadmodule.verify_strongly_finite_type", "quadmodule",
     "QuadModuleSpec.verify_strongly_finite_type"),
    ("quadmodule.derive_right_A_basis", "quadmodule", "QuadModuleSpec.derive_right_A_basis"),
    ("fock.build_fock", "fock", "build_fock"),
    ("relations.make_generators", "relations", "make_generators"),
    ("relations.full_identity_suite", "relations", "full_identity_suite"),
    ("ck.build_ck_generators", "ck", "build_ck_generators"),
    ("ck.verify_ck_relations", "ck", "verify_ck_relations"),
    ("ck.verify_two_isometry_relations", "ck", "verify_two_isometry_relations"),
    ("ktheory.k_groups", "ktheory", "k_groups"),
    ("ktheory.class_action_matrix", "ktheory", "class_action_matrix"),
    ("ktheory.smith_normal_form", "ktheory", "smith_normal_form"),
    ("cli.main", "cli", "main"),
]

OPERATORS = [
    ("fock.creation", "fock", "FockSpace.creation"),
    ("fock.lift", "fock", "FockSpace.lift"),
    ("fock.__matmul__", "fock", "FockOperator.__matmul__"),
    ("fock.adjoint", "fock", "FockOperator.adjoint"),
]

KERNELS = [
    ("linalg." + name, "linalg", "ExactMatrix." + name)
    for name in ("__matmul__", "rref", "inverse", "kron", "__add__",
                 "from_rows", "solve", "kernel_basis")
]

PATHS = ("i64", "obj", "promoted")

TRUEDIV = ("scalars.truediv.calls", "scalars", "GaussianRational.__truediv__")

OVERHEAD = "trace.overhead_s"


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for prefix, _, _ in STAGES + OPERATORS:
        units[prefix + ".calls"] = "count"
        units[prefix + ".self_s"] = "s"
        units[prefix + ".total_s"] = "s"
    for prefix, _, _ in KERNELS:
        for path in PATHS:
            units[f"{prefix}.{path}.calls"] = "count"
        units[prefix + ".i64.self_s"] = "s"
        units[prefix + ".self_s"] = "s"
        units[prefix + ".total_s"] = "s"
        units[prefix + ".max_dim"] = "count"
        units[prefix + ".max_bits"] = "bits"
    units[TRUEDIV[0]] = "count"
    units[OVERHEAD] = "s"
    return units


def is_count(name: str) -> bool:
    """Counts repeat exactly for a seed; times do not."""
    return not name.endswith("_s")


def _numerators(m):
    return getattr(m, "_re", None), getattr(m, "_im", None)


def _is_object(m) -> bool:
    """True when either numerator array holds Python ints: the real and
    imaginary parts are demoted to int64 separately."""
    return any(arr is not None and arr.dtype == object for arr in _numerators(m))


def _max_bits(m) -> int:
    best = 0
    for arr in _numerators(m):
        if arr is None or arr.size == 0:
            continue
        if arr.dtype == object:
            top = max(abs(int(v)) for v in arr.flat)
        else:
            top = int(abs(arr).max())
        best = max(best, top.bit_length())
    return best


class Tracer:
    """Collects spans and per-function totals for one traced pass."""

    def __init__(self, keep_spans: bool = True):
        self.keep_spans = keep_spans
        self.spans = []
        self.next_id = 0
        self.stack = []          # [span id, child seconds] per open call
        self.totals = {}         # prefix -> [calls, self_s, total_s]
        self.kernels = {}        # prefix -> per-path calls, i64 self, dims, bits
        self.truediv_calls = 0
        self._patches = []
        self._matrix_type = None

    # -- recording -----------------------------------------------------

    def _enter(self):
        frame = [self.next_id, 0.0]
        self.next_id += 1
        parent = self.stack[-1][0] if self.stack else -1
        self.stack.append(frame)
        return frame, parent

    def _leave(self, prefix, frame, parent, start, end):
        self.stack.pop()
        dur = end - start
        if self.stack:
            self.stack[-1][1] += dur
        own = dur - frame[1]
        entry = self.totals.setdefault(prefix, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += own
        entry[2] += dur
        if self.keep_spans:
            self.spans.append((frame[0], prefix, start, end, parent))
        return own

    def _wrap(self, prefix, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame, parent = tracer._enter()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._leave(prefix, frame, parent, start, time.perf_counter())

        return traced

    def _wrap_kernel(self, prefix, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame, parent = tracer._enter()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                own = tracer._leave(prefix, frame, parent, start, time.perf_counter())
            tracer._kernel_call(prefix, args, result, own)
            return result

        return traced

    def _kernel_call(self, prefix, args, result, own):
        matrix_type = self._matrix_type
        operands = [a for a in args if isinstance(a, matrix_type)]
        out = result[0] if isinstance(result, tuple) else result
        if not isinstance(out, matrix_type):
            out = None
        if any(_is_object(m) for m in operands):
            path = "obj"
        elif out is not None and _is_object(out):
            path = "promoted" if operands else "obj"
        else:
            path = "i64"
        stats = self.kernels.setdefault(
            prefix, {"i64": 0, "obj": 0, "promoted": 0, "i64_self": 0.0,
                     "max_dim": 0, "max_bits": 0})
        stats[path] += 1
        if path == "i64":
            stats["i64_self"] += own
        shaped = operands + ([out] if out is not None else [])
        for m in shaped:
            stats["max_dim"] = max(stats["max_dim"], *m.shape)
        if out is not None:
            stats["max_bits"] = max(stats["max_bits"], _max_bits(out))

    def _count_truediv(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.truediv_calls += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching ------------------------------------------------------

    def install(self):
        """Wrap every target.  A target missing from the program raises
        rather than reading zero, since a zero would pass for a reduction."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._matrix_type = importlib.import_module("quadmod.linalg").ExactMatrix
        missing = []
        for prefix, module, path in STAGES + OPERATORS:
            if not self._patch(module, path, lambda fn, p=prefix: self._wrap(p, fn)):
                missing.append(f"{module}.{path}")
        for prefix, module, path in KERNELS:
            if not self._patch(module, path, lambda fn, p=prefix: self._wrap_kernel(p, fn)):
                missing.append(f"{module}.{path}")
        if not self._patch(TRUEDIV[1], TRUEDIV[2], self._count_truediv):
            missing.append(f"{TRUEDIV[1]}.{TRUEDIV[2]}")
        if missing:
            self.uninstall()
            raise RuntimeError("traced functions missing from quadmod: " + ", ".join(missing))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, module, path, make) -> bool:
        """Wrap one target; False when the program has no such target."""
        try:
            mod = importlib.import_module("quadmod." + module)
        except ModuleNotFoundError:
            return False
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name, None)
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                return False
            if isinstance(raw, classmethod):
                replacement = classmethod(make(raw.__func__))
            else:
                replacement = make(raw)
            setattr(owner, attr, replacement)
            self._patches.append((owner, attr, raw))
            return True
        fn = getattr(mod, attr, None)
        if fn is None:
            return False
        wrapped = make(fn)
        # Patch the name wherever a caller looks it up: the defining module
        # and every quadmod module that imported it by name.
        for name, loaded in list(sys.modules.items()):
            if (name == "quadmod" or name.startswith("quadmod.")) and \
                    getattr(loaded, attr, None) is fn:
                setattr(loaded, attr, wrapped)
                self._patches.append((loaded, attr, fn))
        return True

    # -- results -------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer values of this pass; a function not called reads zero."""
        out = {}
        for prefix, _, _ in STAGES + OPERATORS:
            calls, own, total = self.totals.get(prefix, (0, 0.0, 0.0))
            out[prefix + ".calls"] = calls
            out[prefix + ".self_s"] = own
            out[prefix + ".total_s"] = total
        for prefix, _, _ in KERNELS:
            _, own, total = self.totals.get(prefix, (0, 0.0, 0.0))
            stats = self.kernels.get(prefix, {})
            for path in PATHS:
                out[f"{prefix}.{path}.calls"] = stats.get(path, 0)
            out[prefix + ".i64.self_s"] = stats.get("i64_self", 0.0)
            out[prefix + ".self_s"] = own
            out[prefix + ".total_s"] = total
            out[prefix + ".max_dim"] = stats.get("max_dim", 0)
            out[prefix + ".max_bits"] = stats.get("max_bits", 0)
        out[TRUEDIV[0]] = self.truediv_calls
        return out

    def spans_as_json(self) -> list:
        return [list(span) for span in sorted(self.spans)]
