"""Per-layer tracing for the benchmark, from outside the library.

While a `Tracer` is installed, the public functions named in `TRACED` are
replaced, in every qgring module that binds them, by wrappers that record
a span (name, start, end, parent, op id) around each call and count work
at the same boundary. The library's own code path and call order do not
change: `qgring analyze` still makes its second `count_matrix_components`
call, caches still fill in stage order, and work the benchmark cannot
split from outside (such as the curated-witness lookup inside
`nd_verdict`) stays in the caller's self time.

After each traced op, kernel probes time a few library calls on the op's
own primitive central idempotents; they run outside the op's span.
Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from typing import Callable, Optional

MODULES = ("algebra", "catalog", "cli", "components", "groups", "props", "shoda")

# (module, function, span name)
TRACED = (
    ("catalog", "build_spec", "catalog.build_spec"),
    ("catalog", "build_named", "catalog.build_named"),
    ("catalog", "bj1_group", "catalog.bj1_group"),
    ("catalog", "bj2_group", "catalog.bj2_group"),
    ("groups", "subgroups", "groups.subgroups"),
    ("groups", "normal_subgroups", "groups.normal_subgroups"),
    ("groups", "FiniteGroup.conjugacy_classes", "groups.conjugacy_classes"),
    ("props", "classify_ssn", "props.classify_ssn"),
    ("props", "is_sn", "props.is_sn"),
    ("props", "is_ssn", "props.is_ssn"),
    ("props", "nd_verdict", "props.nd_verdict"),
    ("props", "nd_witness_search", "props.nd_witness_search"),
    ("props", "verify_witness", "props.verify_witness"),
    ("shoda", "metabelian_pcis", "shoda.metabelian_pcis"),
    ("components", "describe_component", "components.describe_component"),
    ("components", "classify_component", "components.classify_component"),
    ("components", "count_matrix_components", "components.count_matrix_components"),
    ("components", "nilpotent_probe", "components.nilpotent_probe"),
    ("cli", "cmd_analyze", "cli.analyze"),
)

# layers reported with inclusive and self time; a layer may join spans
LAYERS = {
    "catalog.build_spec": ("catalog.build_spec",),
    "catalog.build": ("catalog.build_spec", "catalog.build_named",
                      "catalog.bj1_group", "catalog.bj2_group"),
    **{span: (span,) for _, _, span in TRACED if not span.startswith("catalog.")},
}

PROBES = ("groups.from_table", "shoda.pci_sanity", "algebra.mul",
          "algebra.is_integral", "algebra.centralizer_subgroup")

# classification branches as recorded in ComponentDescriptor.trace["branch"]
BRANCHES = {
    "H=G": "H_eq_G",
    "trivial-twisting": "trivial-twisting",
    "trivial-twisting-coboundary": "trivial-twisting-coboundary",
    "cyclic-amitsur": "cyclic-amitsur",
    "cyclotomic-quaternion": "cyclotomic-quaternion",
    "curated": "curated",
    "unresolved": "unresolved",
    "nilpotent-certificate": "nilpotent-certificate",
}

OP_SPAN = "op"


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.s", "s"), (f"{layer}.self_s", "s")]
    out += [(f"{probe}.s", "s") for probe in PROBES]
    out += [("groups.subgroups.found", "count"),
            ("shoda.metabelian_pcis.found", "count"),
            ("components.unknown_share", "ratio"),
            ("components.nilpotent_probe.calls", "count"),
            ("props.nd_witness_search.tests", "count"),
            ("props.nd_witness_search.tests_per_s", "1/s"),
            ("props.nd_witness_search.found_per_test", "ratio")]
    out += [(f"components.branch.{b}", "count")
            for b in list(BRANCHES.values()) + ["other"]]
    out += [("op.untraced_s", "s"), ("op.traced_s", "s"),
            ("trace.overhead_s", "s"), ("trace.cover_share", "ratio")]
    return out


class Tracer:
    """Span recorder. Spans are (name, start, end, parent index, op id)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.op_id = -1
        self.ops = 0
        self._seen_groups: set[tuple[str, int]] = set()
        self._seen_components: set[tuple] = set()
        self.last_pcis: Optional[tuple] = None  # (G, [ShodaPair]) of the op

    # -- spans -----------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def start_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.ops += 1
        self._seen_groups.clear()
        self._seen_components.clear()
        self.last_pcis = None

    def timed(self, name: str, fn: Callable, *args):
        idx = self.begin(name)
        try:
            return fn(*args)
        finally:
            self.end(idx)

    # -- installing the wrappers ----------------------------------------------

    def install(self) -> None:
        for mod_name, attr, span in TRACED:
            module = importlib.import_module(f"qgring.{mod_name}")
            if "." in attr:  # a method: patch the class
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = getattr(cls, meth)
                self._patch(cls, meth, self._wrap(span, orig))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(span, orig)
            for name in ("qgring",) + tuple(f"qgring.{m}" for m in MODULES):
                ns = importlib.import_module(name)
                for key, val in list(vars(ns).items()):
                    if val is orig:
                        self._patch(ns, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def _patch(self, owner, key: str, new) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, new)

    def _wrap(self, span: str, fn: Callable) -> Callable:
        after = getattr(self, "_after_" + span.split(".")[-1], None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return wrapper

    # -- counters at the span boundaries ----------------------------------------

    def _first_for_group(self, layer: str, G) -> bool:
        key = (layer, id(G))
        if key in self._seen_groups:
            return False
        self._seen_groups.add(key)
        return True

    def _after_subgroups(self, result, G, *args, **kwargs) -> None:
        if self._first_for_group("subgroups", G):
            self.counts["groups.subgroups.found"] += len(result)

    def _after_metabelian_pcis(self, result, G, A=None, *args, **kwargs) -> None:
        if A is None and self._first_for_group("pcis", G):
            self.counts["shoda.metabelian_pcis.found"] += len(result)

    def _after_classify_component(self, result, *args, **kwargs) -> None:
        self.counts["classify.calls"] += 1
        self.counts["classify.unknown"] += result == "Unknown"

    def _after_nilpotent_probe(self, result, *args, **kwargs) -> None:
        self.counts["components.nilpotent_probe.calls"] += 1

    def _after_count_matrix_components(self, result, G, *args, **kwargs) -> None:
        _count, comps = result
        for sp, desc in comps:
            key = (id(G), sp.e.key())
            if key in self._seen_components:
                continue
            self._seen_components.add(key)
            branch = BRANCHES.get(desc.trace.get("branch"), "other")
            self.counts[f"components.branch.{branch}"] += 1
        if self.last_pcis is None:
            self.last_pcis = (G, [sp for sp, _ in comps])

    def _after_nd_witness_search(self, result, *args, **kwargs) -> None:
        found, spent = result
        self.counts["props.nd_witness_search.tests"] += spent
        self.counts["witness.found"] += found is not None

    # -- kernel probes ---------------------------------------------------------

    def probe(self) -> None:
        """Time library kernels on the op's group and idempotents."""
        if self.last_pcis is None:
            return
        from qgring.groups import from_table
        from qgring.shoda import pci_sanity
        G, pcis = self.last_pcis
        self.timed("groups.from_table", from_table, G.table, G.names)
        self.timed("shoda.pci_sanity", pci_sanity, G, pcis)
        for sp in pcis:
            square = self.timed("algebra.mul", sp.e.__mul__, sp.e)
            self.timed("algebra.is_integral", square.is_integral)
            self.timed("algebra.centralizer_subgroup",
                       sp.epsilon.centralizer_subgroup)

    # -- reporting ---------------------------------------------------------------

    def _child_time(self) -> list[float]:
        child_time = [0.0] * len(self.spans)
        for _name, t0, t1, parent, _op in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        return child_time

    def layer_times(self) -> dict[str, tuple[float, float]]:
        """Per layer: (inclusive time of spans not inside another span of the
        same layer, self time = duration minus the time of child spans)."""
        child_time = self._child_time()
        out = {}
        for layer, members in LAYERS.items():
            inclusive = self_time = 0.0
            for i, (name, t0, t1, parent, _op) in enumerate(self.spans):
                if name not in members:
                    continue
                self_time += t1 - t0 - child_time[i]
                p = parent
                while p >= 0 and self.spans[p][0] not in members:
                    p = self.spans[p][3]
                if p < 0:
                    inclusive += t1 - t0
            out[layer] = (inclusive, self_time)
        return out

    def probe_times(self) -> dict[str, float]:
        out = {p: 0.0 for p in PROBES}
        for name, t0, t1, _parent, _op in self.spans:
            if name in out:
                out[name] += t1 - t0
        return out

    def op_spans(self) -> list[tuple[float, float]]:
        """Per op: (duration of its top-level op span, time of that span's
        direct children)."""
        child_time = self._child_time()
        return [(t1 - t0, child_time[i])
                for i, (name, t0, t1, _parent, _op) in enumerate(self.spans)
                if name == OP_SPAN]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op}) + "\n")
