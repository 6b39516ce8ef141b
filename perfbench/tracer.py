"""Outside-in tracing of the commlab layers.

The tracer wraps, in the benchmark process only, the public functions,
methods, properties and arithmetic operators of each commlab module, so
no probe lives in the program itself.  Every wrapped call records a span
(name, start, end, parent span, op id) in memory; the spans are written
out when the run ends, and a layer's self time is derived from them as
span duration minus the time covered by child spans.

Names that one commlab module imported from another with
``from .x import y`` are rebound to the wrapper too; otherwise calls such
as ``mask_mul`` inside ``hnf`` would bypass it.

The benchmark runs one thread with no queue, so no span ever waits for
another: there is no "time waited" to report, only busy time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
import types
from array import array
from collections import Counter

LAYERS = (
    "f2poly", "ratfun", "polymat", "matrices", "hnf",
    "lamplighter", "unipotent", "solvable", "storus", "cli",
)
# Modules that may hold from-imported names of wrapped functions.
_ALL_MODULES = LAYERS + ("errors",)

# Dunder methods that do the arithmetic work of a type.  __eq__ and
# __hash__ are left alone: they run inside every dict lookup and would
# swamp the trace with spans that do no algebra.
_WORK_DUNDERS = frozenset({
    "__init__", "__add__", "__sub__", "__mul__", "__rmul__",
    "__truediv__", "__neg__", "__pow__", "__call__",
})

_ELIM_METHODS = frozenset({
    "matrices.Mat.det", "matrices.Mat.inv", "matrices.Mat.solve",
    "matrices.Mat.nullspace", "matrices.Mat.rank",
})


class Tracer:
    """Collects spans and work counts for the calls made into commlab."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.name_id = array("h")
        self.op = array("i")
        self.op_id = -1
        self.counts: Counter = Counter()
        self.active: Counter = Counter()
        self._stack = [-1]
        self._undo: list = []
        self._by_orig: dict = {}
        self._commlab_error = None

    # ------------------------------------------------------------------
    # installation

    def install(self) -> None:
        from commlab.errors import CommLabError

        self._commlab_error = CommLabError
        # import every module first: module-level code run later would
        # otherwise show up as spans outside any op
        modules = {name: importlib.import_module(f"commlab.{name}") for name in _ALL_MODULES}
        wrapped = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(obj, f"{layer}.{attr}", layer)
                    wrapped[id(obj)] = (obj, wrapper)
                    self._set(mod, attr, wrapper)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, f"{layer}.{attr}", layer)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()
        self._by_orig.clear()

    def resolve(self, fn):
        """The traced stand-in for a callable captured before install()."""
        wrapper = self._by_orig.get(fn)
        if wrapper is not None:
            return wrapper
        func = getattr(fn, "__func__", None)
        if func is not None and func in self._by_orig:
            return types.MethodType(self._by_orig[func], fn.__self__)
        return fn

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, cls, qual: str, layer: str) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _WORK_DUNDERS:
                continue
            name = f"{qual}.{attr}"
            if isinstance(val, staticmethod):
                new = staticmethod(self._wrap(val.__func__, name, layer))
            elif isinstance(val, classmethod):
                new = classmethod(self._wrap(val.__func__, name, layer))
            elif isinstance(val, property) and val.fget is not None:
                new = property(self._wrap(val.fget, name, layer), val.fset, val.fdel, val.__doc__)
            elif inspect.isfunction(val):
                new = self._wrap(val, name, layer)
            else:
                continue
            self._set(cls, attr, new)

    # ------------------------------------------------------------------
    # the span-recording wrapper

    def _wrap(self, fn, name: str, layer: str):
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        probe = self._probe_for(name)
        clock = time.perf_counter
        start, end, parent, name_ids, ops = (
            self.start, self.end, self.parent, self.name_id, self.op,
        )
        stack, active = self._stack, self.active
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(start)
            start.append(0.0)
            end.append(0.0)
            parent.append(stack[-1])
            name_ids.append(nid)
            ops.append(tracer.op_id)
            stack.append(idx)
            active[name] += 1
            if probe is not None:
                probe(tracer, args, kwargs, None, True)
            start[idx] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = clock()
                stack.pop()
                active[name] -= 1
                tracer._error_out(exc, layer, stack[-1])
                raise
            end[idx] = clock()
            stack.pop()
            active[name] -= 1
            if probe is not None:
                probe(tracer, args, kwargs, out, False)
            return out

        self._by_orig[fn] = wrapper
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _error_out(self, exc, layer: str, parent_idx: int) -> None:
        """Count a domain error once, where it leaves its layer."""
        if not isinstance(exc, self._commlab_error):
            return
        if parent_idx >= 0 and self.layer_of[self.name_id[parent_idx]] == layer:
            return
        self.counts[f"{layer}.errors"] += 1

    # ------------------------------------------------------------------
    # work counts at the decision points named by the benchmark

    def _probe_for(self, name: str):
        if name in _ELIM_METHODS:
            return _count_post("matrices.elim_calls")
        return _PROBES.get(name)

    # ------------------------------------------------------------------
    # results

    def layer_summary(self) -> dict:
        """Per-layer calls and self seconds, derived from the spans."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = Counter()
        self_s = Counter()
        layer_of, name_id = self.layer_of, self.name_id
        for i in range(n):
            layer = layer_of[name_id[i]]
            calls[layer] += 1
            self_s[layer] += end[i] - start[i] - child[i]
        return {"calls": calls, "self_s": self_s}

    def name_calls(self) -> Counter:
        """Number of spans recorded under each wrapped name."""
        per_id = Counter(self.name_id)
        return Counter({self.names[i]: c for i, c in per_id.items()})

    def write(self, path_stem) -> None:
        """Write the spans as columnar binary arrays plus a name table."""
        meta = {
            "names": self.names,
            "layers": self.layer_of,
            "spans": len(self.start),
            "columns": {"start": "d", "end": "d", "parent": "i", "name_id": "h", "op": "i"},
            "counts": dict(self.counts),
        }
        with open(f"{path_stem}.json", "w") as fh:
            json.dump(meta, fh)
        with open(f"{path_stem}.bin", "wb") as fh:
            for col in (self.start, self.end, self.parent, self.name_id, self.op):
                col.tofile(fh)


def _count_post(key: str):
    def probe(tracer, args, kwargs, out, pre):
        if not pre:
            tracer.counts[key] += 1
    return probe


def _commute_probe(tracer, args, kwargs, out, pre):
    if pre or not tracer.active["lamplighter.CommInftyElt.canonical"]:
        return
    tracer.counts["lamplighter.commute_tests"] += 1
    if out:
        tracer.counts["lamplighter.commute_hits"] += 1


def _partial_apply_probe(tracer, args, kwargs, out, pre):
    if not pre and tracer.active["lamplighter.comm_from_partial"]:
        tracer.counts["lamplighter.partial_apply_calls"] += 1


def _f2_rank_probe(tracer, args, kwargs, out, pre):
    if pre and tracer.active["lamplighter.quotient_dim"]:
        rows = args[0] if args else kwargs["masks"]
        tracer.counts["lamplighter.qdim_rank_rows"] += len(rows)


def _mask_mul_probe(tracer, args, kwargs, out, pre):
    if pre:
        a, b = args
        tracer.counts["f2poly.mask_mul_bits"] += a.bit_length() + b.bit_length()


def _geometric_probe(tracer, args, kwargs, out, pre):
    if pre:
        count = args[2] if len(args) > 2 else kwargs["count"]
        tracer.counts["f2poly.geometric_terms"] += count


def _mat_mul_probe(tracer, args, kwargs, out, pre):
    if pre:
        a, b = args
        if type(b) is type(a):
            # read the fields directly: the nrows/ncols properties are traced
            tracer.counts["matrices.mul_scalar_ops"] += len(a.rows) * a._nc * b._nc


def _lie_check_probe(tracer, args, kwargs, out, pre):
    if pre:
        aut = args[0] if args else kwargs["aut"]
        if aut._checked is not None:
            tracer.counts["unipotent.lie_check_cached"] += 1


_PROBES = {
    "polymat.PolyMat.commutes_with": _commute_probe,
    "lamplighter.comm_apply": _partial_apply_probe,
    "polymat.f2_rank": _f2_rank_probe,
    "f2poly.mask_mul": _mask_mul_probe,
    "f2poly.F2LaurentPoly.geometric": _geometric_probe,
    "matrices.Mat.__mul__": _mat_mul_probe,
    "unipotent.lie_aut_check": _lie_check_probe,
}
