"""Span tracing of the bihooks layers, from outside the package.

``Tracer.install`` replaces each traced function by a wrapper at every
name it is looked up under: module globals bound by ``from ... import``,
and class attributes that alias one another (``LaurentPoly.__radd__`` is
``__add__``).  A span records its name, start, end and parent; spans are
kept in flat arrays while ops run, self time is computed from them
afterwards, and ``write`` stores them in one file.  ``uninstall`` puts
every original back.
"""

import json
import sys
import time
from array import array
from collections import Counter

from harness import package_namespaces

# (span name, module, attribute path); the span name is the metric prefix
SPANS = (
    ("fock.canonical_basis", "bihooks.fock", "canonical_basis"),
    ("fock.first_approximation", "bihooks.fock", "first_approximation"),
    ("fock.apply_f", "bihooks.fock", "apply_f"),
    ("fock.apply_f_divided", "bihooks.fock", "apply_f_divided"),
    ("fock.peel_runs", "bihooks.fock", "peel_runs"),
    ("fock.simple_graded_dims_from", "bihooks.fock", "simple_graded_dims_from"),
    ("laurent.mul", "bihooks.laurent", "LaurentPoly.__mul__"),
    ("laurent.add", "bihooks.laurent", "LaurentPoly.__add__"),
    ("laurent.sub", "bihooks.laurent", "LaurentPoly.__sub__"),
    ("laurent.neg", "bihooks.laurent", "LaurentPoly.__neg__"),
    ("laurent.exact_div", "bihooks.laurent", "LaurentPoly.exact_div"),
    ("laurent.bar_closure", "bihooks.laurent", "LaurentPoly.bar_closure"),
    ("laurent.from_pairs", "bihooks.laurent", "LaurentPoly.from_pairs"),
    ("partitions.dominance_key", "bihooks.partitions", "dominance_key"),
    ("partitions.parse_bipartition", "bihooks.partitions", "parse_bipartition"),
    ("partitions.addable_nodes", "bihooks.partitions", "addable_nodes"),
    ("partitions.removable_nodes", "bihooks.partitions", "removable_nodes"),
    ("crystal.signature", "bihooks.crystal", "signature"),
    ("crystal.mullineux", "bihooks.crystal", "mullineux"),
    ("crystal.induce", "bihooks.crystal", "induce"),
    ("tableaux.node_degree", "bihooks.tableaux", "node_degree"),
    ("tableaux.codegree", "bihooks.tableaux", "codegree"),
    ("tableaux.standard_tableaux", "bihooks.tableaux", "standard_tableaux"),
    ("tableaux.word_graded_dimension", "bihooks.tableaux", "word_graded_dimension"),
    ("tableaux.graded_dimension", "bihooks.tableaux", "graded_dimension"),
    ("structure.predict", "bihooks.structure", "predict"),
    ("schur.num_summands", "bihooks.schur", "num_summands"),
    ("schur.kostka_two_column", "bihooks.schur", "kostka_two_column"),
    ("padic.nu_p", "bihooks.padic", "nu_p"),
    ("render.matrix_json_obj", "bihooks.render", "matrix_json_obj"),
    ("cli.main", "bihooks.cli", "main"),
)

# spans whose result length is also counted, as "<span>.yielded"
YIELD_COUNTED = ("tableaux.standard_tableaux",)


def _lookup(module: str, path: str):
    """The raw namespace entry at ``module:path`` (a classmethod stays one),
    or None when the package no longer has it."""
    obj = sys.modules.get(module)
    *outer, last = path.split(".")
    for part in outer:
        obj = getattr(obj, part, None)
    if obj is None:
        return None
    return vars(obj).get(last)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("H")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.ops = array("H")
        self.op_labels: list[str] = []
        self.yielded = Counter()
        self.missing: list[str] = []
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def begin_op(self, label: str):
        self.op_labels.append(label)

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_ids, parents, ops = self.name_ids, self.parents, self.ops
        starts, ends, stack = self.starts, self.ends, self._stack
        op_labels, yielded = self.op_labels, self.yielded
        clock = time.perf_counter
        count_len = name in YIELD_COUNTED

        def span(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ops.append(len(op_labels) - 1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count_len:
                yielded[name] += len(result)
            return result

        span.__name__ = getattr(fn, "__name__", name)
        span.__doc__ = getattr(fn, "__doc__", None)
        span.__wrapped__ = fn
        return span

    def install(self):
        owners = package_namespaces()
        for name, module, path in SPANS:
            entry = _lookup(module, path)
            if entry is None:
                self.missing.append(name)
                continue
            if isinstance(entry, classmethod):
                replacement = classmethod(self._wrap(name, entry.__func__))
            else:
                replacement = self._wrap(name, entry)
            for owner in owners:
                for attr, val in list(vars(owner).items()):
                    if val is entry:
                        self._patched.append((owner, attr, val))
                        setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, val in reversed(self._patched):
            setattr(owner, attr, val)
        self._patched.clear()

    def totals(self) -> dict:
        """Per span name: ``calls`` and ``self_s``, the span's duration
        minus the time its direct children cover."""
        n = len(self.starts)
        starts, ends, parents = self.starts, self.ends, self.parents
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = Counter()
        self_s = Counter()
        for i in range(n):
            nid = self.name_ids[i]
            calls[nid] += 1
            self_s[nid] += ends[i] - starts[i] - child[i]
        out = {}
        for nid, name in enumerate(self.names):
            out[name] = {"calls": calls[nid], "self_s": self_s[nid]}
        return out

    def calls_by_op(self, name: str) -> Counter:
        nid = self.names.index(name) if name in self.names else -1
        out = Counter()
        for i, op in zip(self.name_ids, self.ops):
            if i == nid:
                out[self.op_labels[op]] += 1
        return out

    def write(self, path: str):
        """Store every span: a JSON header line (span names, op labels,
        array type codes and lengths) followed by the raw arrays."""
        arrays = (self.name_ids, self.parents, self.starts, self.ends, self.ops)
        header = {"names": self.names, "ops": self.op_labels,
                  "arrays": [["name", "parent", "start", "end", "op"],
                             [a.typecode for a in arrays], len(self.starts)]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for a in arrays:
                a.tofile(fh)
