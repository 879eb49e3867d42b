"""Spans around the public functions of each kronx module, from outside.

``Tracer.install()`` replaces each traced function in every kronx module
namespace that binds it (``xsum_mul`` is imported by name into models,
fourier and cli, for example), and the traced methods on their classes.
Nothing is replaced unless the benchmark runs with ``--trace 1``;
``uninstall()`` puts every original back.

A span records its name, start, end, parent span and request id, in
flat arrays kept in memory and written out when the run ends.  Six
scalar-level hooks (``scalar_mul``, ``scalar_add``,
``SqrtRational.__post_init__``, ``pochhammer``, ``binomial``,
``CouplingLayout.z``) run up to 10^7 times in one request, so they are
counted and timed in place instead of stored one by one; their time
still counts as child time of the span that called them.  Self time is a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("hubbard", "exactnum", "kron", "perm", "su2", "coupling", "cg",
           "fourier", "models", "serialize", "cli")

# (module, function) pairs traced as stored spans
FUNCTIONS = {
    "models": ("diagonalize", "rotate_step", "givens_unitary", "heisenberg_h"),
    "hubbard": ("xsum_mul", "xsum_linear"),
    "kron": ("kron", "kron_many"),
    "perm": ("perm_matrix", "commutation_perm"),
    "su2": ("j3", "jpm"),
    "coupling": ("product_gen", "block_gen"),
    "cg": ("build_S", "verify_intertwining", "s_general", "s_rone",
           "s_first_block", "cg_coefficient", "cg_table"),
    "fourier": ("cooley_tukey",),
    "serialize": ("matrix_from_json", "matrix_to_json", "spectrum_to_csv"),
    "cli": ("run",),
}
# (module, class, method) traced as stored spans
METHODS = (
    ("hubbard", "XSum", "__init__"),
    ("models", "NLevelHamiltonian", "from_xsum"),
    ("fourier", "FourierFactorization", "product"),
    ("fourier", "FourierFactorization", "max_error"),
)
# counted in place: (module, function) and (module, class, method)
LEAF_FUNCTIONS = {"exactnum": ("scalar_mul", "scalar_add", "pochhammer", "binomial")}
LEAF_METHODS = (
    ("exactnum", "SqrtRational", "__post_init__"),
    ("coupling", "CouplingLayout", "z"),
)


def _method_name(module: str, cls: str, meth: str) -> str:
    if meth in ("__init__", "__post_init__"):
        return f"{module}.{cls}"
    return f"{module}.{cls}.{meth}"


class Tracer:
    def __init__(self):
        self.names: list = []
        self.name_ids: dict = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.child = array("q")
        self.parent = array("i")
        self.request = array("i")
        self.request_id = -1
        # one frame per active call: [stored span index or -1, child ns]
        self.stack: list = []
        self.leaf_calls = defaultdict(int)
        self.leaf_ns = defaultdict(int)
        self.leaf_self_ns = defaultdict(int)
        # counters taken at span boundaries (see _hooks)
        self.count = defaultdict(int)
        self._restore: list = []

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def span(self, name: str, fn, hook=None):
        """Wrap fn in a stored span.  ``hook`` is an optional pair
        (before(args) -> token, after(args, result, token)) that updates
        counters outside the span's own interval."""
        nid = self._name_id(name)
        stack = self.stack
        names, starts, ends, childs = self.name, self.start, self.end, self.child
        parents, requests = self.parent, self.request
        clock = time.perf_counter_ns
        before, after = hook or (None, None)

        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            idx = len(starts)
            parent = -1
            for frame in reversed(stack):
                if frame[0] >= 0:
                    parent = frame[0]
                    break
            names.append(nid)
            parents.append(parent)
            requests.append(self.request_id)
            ends.append(0)
            childs.append(0)
            frame = [idx, 0]
            stack.append(frame)
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                ends[idx] = t1
                childs[idx] = frame[1]
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
            if after is not None:
                after(args, result, token)
            return result

        traced.__wrapped__ = fn
        return traced

    def leaf(self, name: str, fn):
        """Wrap fn as a counted hook: calls, total and self time, with its
        time charged to the caller's child time."""
        stack = self.stack
        calls, total, self_ns = self.leaf_calls, self.leaf_ns, self.leaf_self_ns
        clock = time.perf_counter_ns

        def counted(*args, **kwargs):
            frame = [-1, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                calls[name] += 1
                total[name] += dt
                self_ns[name] += dt - frame[1]

        counted.__wrapped__ = fn
        return counted

    # -- installation ----------------------------------------------------

    def _patch_everywhere(self, original, wrapper):
        """Rebind ``original`` to ``wrapper`` in every kronx namespace."""
        for mod in [sys.modules["kronx"]] + [
            importlib.import_module(f"kronx.{m}") for m in MODULES
        ]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))

    def _patch_method(self, cls, meth, make):
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        setattr(cls, meth, wrapped)
        self._restore.append((cls, meth, raw))

    def install(self) -> None:
        hooks = _hooks(self)
        for modname, fns in FUNCTIONS.items():
            mod = importlib.import_module(f"kronx.{modname}")
            for fname in fns:
                name = f"{modname}.{fname}"
                original = getattr(mod, fname)
                self._patch_everywhere(original, self.span(name, original, hooks.get(name)))
        for modname, fns in LEAF_FUNCTIONS.items():
            mod = importlib.import_module(f"kronx.{modname}")
            for fname in fns:
                original = getattr(mod, fname)
                self._patch_everywhere(original, self.leaf(f"{modname}.{fname}", original))
        for modname, cname, meth in METHODS:
            cls = getattr(importlib.import_module(f"kronx.{modname}"), cname)
            name = _method_name(modname, cname, meth)
            self._patch_method(cls, meth, lambda f, n=name: self.span(n, f, hooks.get(n)))
        for modname, cname, meth in LEAF_METHODS:
            cls = getattr(importlib.import_module(f"kronx.{modname}"), cname)
            name = _method_name(modname, cname, meth)
            self._patch_method(cls, meth, lambda f, n=name: self.leaf(n, f))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ---------------------------------------------------------

    def totals(self) -> dict:
        """name -> {calls, ms, self_ms} over stored spans and leaf hooks."""
        out = {}
        k = len(self.names)
        if len(self.start):
            ids = np.frombuffer(self.name, dtype=np.uint16)
            dur = (np.frombuffer(self.end, dtype=np.int64)
                   - np.frombuffer(self.start, dtype=np.int64)).astype(np.float64)
            own = dur - np.frombuffer(self.child, dtype=np.int64)
            calls = np.bincount(ids, minlength=k)
            tot = np.bincount(ids, weights=dur, minlength=k)
            slf = np.bincount(ids, weights=own, minlength=k)
            for i, name in enumerate(self.names):
                out[name] = {"calls": int(calls[i]), "ms": tot[i] / 1e6,
                             "self_ms": slf[i] / 1e6}
        for name, calls in self.leaf_calls.items():
            out[name] = {"calls": calls, "ms": self.leaf_ns[name] / 1e6,
                         "self_ms": self.leaf_self_ns[name] / 1e6}
        return out

    def save(self, path: str) -> None:
        """Write every stored span and the leaf counters to ``path`` (.npz)."""
        leaves = sorted(self.leaf_calls)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            child_ns=np.frombuffer(self.child, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request, dtype=np.int32),
            leaf_names=np.array(leaves),
            leaf_calls=np.array([self.leaf_calls[n] for n in leaves]),
            leaf_ms=np.array([self.leaf_ns[n] / 1e6 for n in leaves]),
        )


def _hooks(tracer: Tracer) -> dict:
    """Counters taken around particular spans: terms and bytes moved, useful
    rotations, Jacobi sweeps, exact (closed-form) S matrices."""
    count = tracer.count

    def adder(key, amount):
        def after(args, result, token):
            count[key] += amount(args, result)
        return None, after

    def terms_in(args, result):
        terms = args[2] if len(args) > 2 else None
        return len(terms) if hasattr(terms, "__len__") else 0

    def before_diag(args):
        return count["models.rotate_step.calls"]

    def after_diag(args, result, token):
        n = args[0].order
        if n > 1:
            rotations = count["models.rotate_step.calls"] - token
            count["models.sweeps"] += rotations / (n * (n - 1) // 2)

    def after_rotate(args, result, token):
        count["models.rotate_step.calls"] += 1
        count["models.rotate_step.useful"] += bool(result[1])

    return {
        "hubbard.XSum": adder("hubbard.XSum.terms_in", terms_in),
        "hubbard.xsum_mul": adder("hubbard.xsum_mul.terms_out", lambda a, r: r.nnz()),
        "kron.kron": adder("kron.kron.terms_out", lambda a, r: r.nnz()),
        "models.rotate_step": (None, after_rotate),
        "models.diagonalize": (before_diag, after_diag),
        "cg.build_S": adder("cg.build_S.exact", lambda a, r: r.is_exact()),
        "serialize.matrix_from_json": adder(
            "serialize.matrix_from_json.bytes", lambda a, r: len(a[0])),
        "serialize.matrix_to_json": adder(
            "serialize.matrix_to_json.bytes", lambda a, r: len(r)),
    }
