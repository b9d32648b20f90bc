"""In-memory span tracer that wraps the `ptlg` modules from outside.

`install()` replaces every module-level function and every public method
(plus `__post_init__`, where dataclasses validate) of the `ptlg` modules with
a timing wrapper, and rebinds each wrapped name wherever a module imported
it.  `distribution`, for example, is rebound in `protocol`, `lgexpr`,
`macrodiag`, `checks` and the package namespace, so calls made through the
private `_dist` helpers are traced too.  `uninstall()` restores the originals.

A call opens a span when it crosses into another layer (a layer is one
`ptlg` module) or when its name is in ALWAYS_SPAN.  A nested call within the
same layer is only counted: its time is already that layer's self time, and
skipping its span keeps the overhead and the span count down.  Each span
records its name, its parent span, the op it belongs to, and its start and
end in nanoseconds.  Spans are kept in memory and summarized when the run
ends; a span's self time is its duration minus the durations of its direct
children, so the layers' self times plus the op spans' own self time (time
outside `ptlg`) add up to each op's wall time.
"""

from __future__ import annotations

import inspect
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

LAYERS = ("matcore", "ptdyn", "closedform", "protocol", "lgexpr", "macrodiag",
          "nosignal", "sweep", "checks", "cli")
OP_SPAN = "bench.op"
FIELDS = ("id", "name", "parent", "op", "start_ns", "end_ns")  # one int64 each

# Private helpers whose own spans some per-layer metric needs.
PRIVATE_WRAPPED = {"cli": ("_build_parser", "_merge_config_file", "_write_table")}
# Spans opened even inside their own layer, so their self time stays separate.
ALWAYS_SPAN = {"protocol.distribution", "ptdyn.propagator", "sweep.figure_data", "sweep.scan",
               "sweep.refine_max", "sweep.evaluate_expression", "cli._build_parser",
               "cli.parse_args", "cli._merge_config_file", "cli._write_table"}


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.buf = array("q")
        self.counts: Counter[str] = Counter()
        self.distinct_contexts: set = set()
        self.stack = [-1]
        self.layer_stack = [""]
        self.next_id = 0
        self.op = -1
        self._undo: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- ops ---------------------------------------------------------------
    def begin_op(self, op: int) -> None:
        self.op = op
        self._op_span = (self.next_id, perf_counter_ns())
        self.stack.append(self.next_id)
        self.layer_stack.append("bench")
        self.next_id += 1
        self.active = True

    def end_op(self) -> None:
        end = perf_counter_ns()
        self.active = False
        self.stack.pop()
        self.layer_stack.pop()
        sid, start = self._op_span
        self.buf.extend((sid, self.name_id(OP_SPAN), -1, self.op, start, end))

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, layer: str, qualname: str, fn, key=None):
        name = f"{layer}.{qualname}"
        always = name in ALWAYS_SPAN
        default_id = self.name_id(name)
        tr = self

        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            tr.counts[name] += 1
            nid = default_id
            if key is not None:
                nid = key(tr, args)
            elif not always and tr.layer_stack[-1] == layer:
                return fn(*args, **kwargs)
            sid = tr.next_id
            tr.next_id = sid + 1
            parent = tr.stack[-1]
            tr.stack.append(sid)
            tr.layer_stack.append(layer)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                tr.stack.pop()
                tr.layer_stack.pop()
                tr.buf.extend((sid, nid, parent, tr.op, start, end))

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import importlib

        modules = {layer: importlib.import_module(f"ptlg.{layer}") for layer in LAYERS}
        wrappers: dict[object, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and (not attr.startswith("_")
                                                or attr in PRIVATE_WRAPPED.get(layer, ())):
                    wrappers[obj] = self._wrap(layer, attr, obj, self._key_for(layer, attr))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (not meth.startswith("_")
                                                       or meth == "__post_init__"):
                            self._set(obj, meth, self._wrap(layer, f"{attr}.{meth}", fn))
        build_parser = wrappers.get(modules["cli"]._build_parser)
        if build_parser is not None:
            wrappers[modules["cli"]._build_parser] = self._traced_parser(build_parser)
        namespaces = list(modules.values()) + [importlib.import_module("ptlg")]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(ns, attr, wrappers[obj])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _traced_parser(self, build_parser):
        """Also span `parse_args` on each parser that `cli` builds."""
        def wrapper(*args, **kwargs):
            parser = build_parser(*args, **kwargs)
            parser.parse_args = self._wrap("cli", "parse_args", parser.parse_args)
            return parser
        return wrapper

    def _key_for(self, layer: str, attr: str):
        if (layer, attr) != ("protocol", "distribution"):
            return None
        k_ids = {k: self.name_id(f"protocol.distribution.k{k}") for k in (1, 2, 3)}

        def key(tr, args):
            ctx = args[0]
            pr = ctx.preset
            tr.distinct_contexts.add((pr.label, pr.initial_state, pr.evolution,
                                      pr.pre_evolution, ctx.measured_times))
            return k_ids[len(ctx.measured_times)]
        return key

    # -- summary -----------------------------------------------------------
    def spans(self) -> np.ndarray:
        """(n, len(FIELDS)) int64 array of finished spans, ordered by span id."""
        a = np.frombuffer(self.buf, dtype=np.int64).reshape(-1, len(FIELDS)).copy()
        return a[np.argsort(a[:, 0], kind="stable")]

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-span (name index, self time in ns)."""
        s = self.spans()
        dur = s[:, 5] - s[:, 4]
        child = np.zeros(len(s), dtype=np.int64)
        has_parent = s[:, 2] >= 0
        np.add.at(child, np.searchsorted(s[:, 0], s[has_parent, 2]), dur[has_parent])
        return s[:, 1], dur - child


def summarize(tr: Tracer) -> dict:
    """Self time and span count per span name, and self time per layer (ns)."""
    name_idx, self_ns = tr.self_times()
    per_name = np.bincount(name_idx, weights=self_ns, minlength=len(tr.names))
    n_spans = np.bincount(name_idx, minlength=len(tr.names))
    by_name = {n: (float(per_name[i]), int(n_spans[i])) for i, n in enumerate(tr.names)}
    layers: dict[str, float] = {}
    for n, (ns, _) in by_name.items():
        layer = n.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + ns
    return {"by_name": by_name, "layers": layers}


def parent_counts(tr: Tracer, child: str, parent: str) -> int:
    """Number of spans named `child` whose direct parent span is named `parent`."""
    if child not in tr.names or parent not in tr.names:
        return 0
    s = tr.spans()
    cid, pid = tr.names.index(child), tr.names.index(parent)
    kids = s[s[:, 1] == cid]
    parents = s[np.searchsorted(s[:, 0], kids[kids[:, 2] >= 0, 2]), 1]
    return int(np.sum(parents == pid))
