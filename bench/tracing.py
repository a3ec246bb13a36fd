"""Per-layer tracing from outside the library.

`Tracer.install()` wraps the public functions named in LAYER_CALLS by
rebinding the name in every qu2 module that holds it (mono_mul is bound in
both qu2.monomial and qu2.element, for example), plus Element.__mul__ on
the class.  `remove()` puts the originals back.  Nothing inside src/qu2
changes.

Spanned functions record (name, start, end, parent span, op id); self time is
a span's duration minus the time its child spans cover, computed as spans
close.  The hot leaves are only counted, since a span around a 1 us call
would cost more than the call.  Spans stay in memory, up to SPAN_LIMIT of
them, and are written out by `dump()` after the run; the aggregates always
cover every call.

Only calls made while `phase` is "op" are recorded, except for canrep,
which the benchmark calls in the "ref" (reference) phase: the oracle must
not show up in the layers it checks, and a change that moves it onto the
timed path still shows in its counters.
"""

from __future__ import annotations

import importlib
import json
from array import array
from collections import defaultdict
from time import perf_counter

MODULES = ("qu2", "qu2.words", "qu2.monomial", "qu2.element", "qu2.canrep",
           "qu2.wgroup", "qu2.endo", "qu2.cli")

SPAN_LIMIT = 100_000


class Tracer:
    def __init__(self):
        self.phase = None
        self.op_id = -1
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)     # per-layer extras (zeros, merges, ...)
        self.stack = []                    # open spans: [start, child_s, span_idx, marked]
        self.names = []
        self._name_ids = {}
        # kept spans, column-wise: name id, start, end, parent index, op id
        self.s_name, self.s_parent, self.s_op = array("l"), array("l"), array("l")
        self.s_start, self.s_end = array("d"), array("d")
        self.dropped = 0
        self._saved = []

    # -- wrappers ---------------------------------------------------------------

    def _recording(self, name: str) -> bool:
        return self.phase == "op" or (self.phase == "ref" and name.startswith("canrep."))

    def counted(self, name, fn, after=None):
        calls = self.calls

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self._recording(name):
                calls[name] += 1
                if after is not None:
                    after(self, args, result)
            return result
        return wrapper

    def spanned(self, name, fn, after=None, marks_parent=False):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        stack = self.stack

        def wrapper(*args, **kwargs):
            if not self._recording(name):
                return fn(*args, **kwargs)
            if marks_parent and stack:
                stack[-1][3] = True
            parent = stack[-1][2] if stack else -1
            idx = len(self.s_name) if len(self.s_name) < SPAN_LIMIT else -1
            frame = [perf_counter(), 0.0, idx, False]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[0]
                if stack:
                    stack[-1][1] += dur
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                if idx >= 0:
                    self.s_name.append(name_id)
                    self.s_start.append(frame[0])
                    self.s_end.append(end)
                    self.s_parent.append(parent)
                    self.s_op.append(self.op_id)
                else:
                    self.dropped += 1
            if after is not None:
                after(self, args, result, frame[3])
            return result
        return wrapper

    # -- install / remove ---------------------------------------------------------

    def install(self):
        mods = [importlib.import_module(m) for m in MODULES]
        from qu2.element import Element
        for name, owner, attr, kind, after, marks in LAYER_CALLS:
            orig = getattr(importlib.import_module(owner), attr)
            if kind == "count":
                wrapped = self.counted(name, orig, after)
            else:
                wrapped = self.spanned(name, orig, after, marks)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._saved.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        orig_mul = Element.__mul__
        self._saved.append((Element, "__mul__", orig_mul))
        Element.__mul__ = self.spanned("element.mul", orig_mul, _after_mul)

    def remove(self):
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)
        self._saved.clear()

    # -- results ------------------------------------------------------------------

    def metrics(self) -> dict:
        """The per-layer metrics, each as (value, unit)."""
        c, n, t = self.counts, self.calls, self.self_s

        def frac(num, den):
            return num / den if den else 0.0

        out = {
            "words.is_prefix.calls": (n["words.is_prefix"], "count"),
            "words.decode.calls": (n["words.decode"], "count"),
            "words.offset.calls": (n["words.offset"], "count"),
            "monomial.mono_mul.calls": (n["monomial.mono_mul"], "count"),
            "monomial.mono_mul.zero_frac":
                (frac(c["mono_mul.zero"], n["monomial.mono_mul"]), "fraction"),
            "monomial.push_u_through.calls": (n["monomial.push_u_through"], "count"),
            "monomial.expand_right.calls": (n["monomial.expand_right"], "count"),
            "element.mul.calls": (n["element.mul"], "count"),
            "element.mul.self_s": (t["element.mul"], "s"),
            "element.mul.term_pairs": (c["mul.term_pairs"], "count"),
            "element.normalize.calls": (n["element.normalize"], "count"),
            "element.normalize.self_s": (t["element.normalize"], "s"),
            "element.normalize.terms_out": (c["normalize.terms_out"], "count"),
            "element.normalize.peak_terms": (c["normalize.peak_terms"], "count"),
            "element.eq.calls": (n["element.eq"], "count"),
            "element.eq.self_s": (t["element.eq"], "s"),
            "element.eq.true_frac": (frac(c["eq.true"], n["element.eq"]), "fraction"),
            "element.is_unitary.self_s": (t["element.is_unitary"], "s"),
            "element.bd_v_factor.self_s": (t["element.bd_v_factor"], "s"),
            "element.putnam_form.self_s": (t["element.putnam_form"], "s"),
            "canrep.semantic_eq.calls": (n["canrep.semantic_eq"], "count"),
            "canrep.semantic_eq.self_s": (t["canrep.semantic_eq"], "s"),
            "canrep.semantic_eq.probes": (c["semantic_eq.probes"], "count"),
            "canrep.apply_basis.calls": (n["canrep.apply_basis"], "count"),
            "wgroup.group_mul.calls": (n["wgroup.group_mul"], "count"),
            "wgroup.group_mul.self_s": (t["wgroup.group_mul"], "s"),
            "wgroup.reduce.self_s": (t["wgroup.reduce"], "s"),
            "wgroup.reduce.merges": (c["reduce.merges"], "count"),
            "wgroup.from_element.self_s": (t["wgroup.from_element"], "s"),
            "wgroup.from_element.fallback_frac":
                (frac(c["from_element.fallback"], n["wgroup.from_element"]), "fraction"),
            "endo.enumerate_extendible.self_s": (t["endo.enumerate_extendible"], "s"),
            "endo.check_extension.calls": (n["endo.check_extension"], "count"),
            "endo.check_extension.self_s": (t["endo.check_extension"], "s"),
            "endo.ext1_pass_frac":
                (frac(c["ext1.pass"], n["endo.check_extension_parts"]), "fraction"),
            "endo.accept_frac":
                (frac(c["check_extension.accept"], n["endo.check_extension"]), "fraction"),
        }
        return out

    def dump(self, path) -> None:
        """Write the kept spans as JSON, one row per span."""
        rows = [[self.names[self.s_name[i]], self.s_start[i], self.s_end[i],
                 self.s_parent[i], self.s_op[i]] for i in range(len(self.s_name))]
        with open(path, "w") as f:
            json.dump({"columns": ["name", "start", "end", "parent", "op"],
                       "spans": rows, "dropped": self.dropped}, f)


# -- hooks that derive per-layer counts from a call's arguments and result -------

def _after_mono_mul(tr, args, result):
    if result is None:
        tr.counts["mono_mul.zero"] += 1


def _after_mul(tr, args, result, _marked):
    tr.counts["mul.term_pairs"] += len(args[0].terms) * len(args[1].terms)


def _after_normalize(tr, args, result, _marked):
    size = len(result.terms)
    tr.counts["normalize.terms_out"] += size
    tr.counts["normalize.peak_terms"] = max(tr.counts["normalize.peak_terms"], size)


def _after_eq(tr, args, result, _marked):
    tr.counts["eq.true"] += bool(result)


def _after_semantic_eq(tr, args, result, _marked):
    tr.counts["semantic_eq.probes"] += 3 << max(args[0].depth(), args[1].depth())


def _after_reduce(tr, args, result, _marked):
    tr.counts["reduce.merges"] += len(args[0].v) - len(result.v)


def _after_from_element(tr, args, result, needed_normalize):
    tr.counts["from_element.fallback"] += needed_normalize


def _after_parts(tr, args, result):
    tr.counts["ext1.pass"] += bool(result[0])


def _after_check_extension(tr, args, result, _marked):
    tr.counts["check_extension.accept"] += bool(result)


# (metric prefix, defining module, attribute, span or count, hook, marks parent)
LAYER_CALLS = (
    ("words.is_prefix", "qu2.words", "is_prefix", "count", None, False),
    ("words.decode", "qu2.words", "decode", "count", None, False),
    ("words.offset", "qu2.words", "offset", "count", None, False),
    ("monomial.mono_mul", "qu2.monomial", "mono_mul", "count", _after_mono_mul, False),
    ("monomial.push_u_through", "qu2.monomial", "push_u_through", "count", None, False),
    ("monomial.expand_right", "qu2.monomial", "expand_right", "count", None, False),
    ("element.normalize", "qu2.element", "normalize", "span", _after_normalize, True),
    ("element.eq", "qu2.element", "eq", "span", _after_eq, False),
    ("element.is_unitary", "qu2.element", "is_unitary", "span", None, False),
    ("element.bd_v_factor", "qu2.element", "bd_v_factor", "span", None, False),
    ("element.putnam_form", "qu2.element", "putnam_form", "span", None, False),
    ("canrep.semantic_eq", "qu2.canrep", "semantic_eq", "span", _after_semantic_eq, False),
    ("canrep.apply_basis", "qu2.canrep", "apply_basis", "count", None, False),
    ("wgroup.group_mul", "qu2.wgroup", "group_mul", "span", None, False),
    ("wgroup.reduce", "qu2.wgroup", "reduce", "span", _after_reduce, False),
    ("wgroup.from_element", "qu2.wgroup", "from_element", "span", _after_from_element, False),
    ("endo.enumerate_extendible", "qu2.endo", "enumerate_extendible", "span", None, False),
    ("endo.check_extension", "qu2.endo", "check_extension", "span",
     _after_check_extension, False),
    ("endo.check_extension_parts", "qu2.endo", "check_extension_parts", "count",
     _after_parts, False),
)
