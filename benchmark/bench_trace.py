"""In-memory span recorder that instruments the mscdlra package from outside.

The package source is not edited. :meth:`Tracer.install` replaces every
public function of the traced modules by a recording wrapper wherever the
function is bound inside the package, so re-imports such as
``mscdlra.solvers.fixed_support_ls`` or ``mscdlra.dlra.soft_threshold``
are recorded too, and it wraps the methods of ``MixingOperator`` on the
class. :meth:`Tracer.uninstall` restores every binding.

A span holds a name, start and end (``perf_counter_ns``), the index of
the enclosing span and a unit id naming (workload, instance, method).
Spans live in flat ``array`` buffers (28 bytes each) and are written to
an ``.npz`` file at the end of a run. Self time is computed afterwards
as span duration minus the durations of its direct children.
"""

import array
import functools
import importlib
import sys
import time
import types

import numpy as np

LAYERS = ("linalg", "prox", "solvers", "dlra", "tensor", "synth", "dictionaries")
CLASS_METHODS = {
    "linalg.MixingOperator": ("__init__", "data_product", "spectral_norm_sq"),
}
# The one argument recorded per call: the total support size of each
# fixed_support_ls system, i.e. its number of unknowns.
SUPPORT_SIZE_OF = "linalg.fixed_support_ls"


def support_size(args, kwargs):
    """Total number of unknowns of a fixed_support_ls call (its support S)."""
    S = kwargs["S"] if "S" in kwargs else args[3]
    return sum(len(s) for s in S)


class Tracer:
    """Records spans of the wrapped package functions while ``active``."""

    def __init__(self, package="mscdlra"):
        self.package = package
        self.names = []
        self.units = []
        self._unit_ids = {}
        self.start_ns = array.array("q")
        self.end_ns = array.array("q")
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.unit = array.array("i")
        # (unit id, unknowns) of every recorded fixed_support_ls call
        self.support_sizes = []
        self.active = False
        self.current_unit = -1
        self._stack = []
        self._patches = []
        self._wrappers = None

    # -- instrumentation -------------------------------------------------

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        sizes = self.support_sizes if name == SUPPORT_SIZE_OF else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.name_id)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.unit.append(tracer.current_unit)
            tracer.start_ns.append(0)
            tracer.end_ns.append(0)
            if sizes is not None:
                sizes.append((tracer.current_unit, support_size(args, kwargs)))
            stack.append(idx)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                tracer.start_ns[idx] = t0
                tracer.end_ns[idx] = t1

        return traced

    def _build_wrappers(self):
        """Map each traced function to its wrapper; class methods by owner."""
        functions, methods = {}, []
        for layer in LAYERS:
            mod = importlib.import_module(f"{self.package}.{layer}")
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    functions[obj] = self._wrap(f"{layer}.{attr}", obj)
        for owner, names in CLASS_METHODS.items():
            layer, cls_name = owner.split(".")
            cls = getattr(importlib.import_module(f"{self.package}.{layer}"), cls_name)
            for meth in names:
                original = cls.__dict__[meth]
                methods.append((cls, meth, self._wrap(f"{owner}.{meth}", original)))
        return functions, methods

    def install(self):
        """Wrap every public function of the traced layers, everywhere bound."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        if self._wrappers is None:
            self._wrappers = self._build_wrappers()
        functions, methods = self._wrappers
        for cls, meth, wrapper in methods:
            self._patches.append((cls, meth, cls.__dict__[meth]))
            setattr(cls, meth, wrapper)
        prefix = self.package + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package or mod_name.startswith(prefix)):
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in functions:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, functions[obj])

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- recording -------------------------------------------------------

    def set_unit(self, workload, instance, method):
        """Attribute the spans that follow to (workload, instance, method)."""
        key = (workload, instance, method)
        if key not in self._unit_ids:
            self._unit_ids[key] = len(self.units)
            self.units.append(key)
        self.current_unit = self._unit_ids[key]

    @property
    def n_spans(self):
        return len(self.name_id)

    # -- analysis --------------------------------------------------------

    def span_arrays(self):
        """Name id, unit id and self time in seconds of every span."""
        start = np.array(self.start_ns, dtype=np.int64)
        end = np.array(self.end_ns, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = (end - start).astype(float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        return {
            "name": np.asarray(self.name_id, dtype=np.int64),
            "unit": np.asarray(self.unit, dtype=np.int64),
            "self_s": (dur - child) * 1e-9,
        }

    def aggregate(self, unit_filter):
        """Calls and summed self time per span name over the selected units."""
        spans = self.span_arrays()
        keep_unit = np.array([bool(unit_filter(u)) for u in self.units] or [False])
        sel = keep_unit[spans["unit"]] if spans["unit"].size else np.zeros(0, bool)
        names = spans["name"][sel]
        calls = np.bincount(names, minlength=len(self.names))
        self_s = np.bincount(names, weights=spans["self_s"][sel], minlength=len(self.names))
        return {n: (int(calls[i]), float(self_s[i])) for i, n in enumerate(self.names)}

    def support_size_values(self, unit_filter):
        """Unknowns of the fixed_support_ls calls of the selected units."""
        return [n for u, n in self.support_sizes if unit_filter(self.units[u])]

    def save(self, path):
        """Write every span to ``path`` as an ``.npz`` archive."""
        np.savez(
            path,
            names=np.array(self.names),
            units=np.array(["/".join(map(str, u)) for u in self.units]),
            start_ns=np.array(self.start_ns, dtype=np.int64),
            end_ns=np.array(self.end_ns, dtype=np.int64),
            name_id=np.asarray(self.name_id, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int32),
            unit=np.asarray(self.unit, dtype=np.int32),
        )
