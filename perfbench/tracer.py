"""Layer tracer for the benchmark's traced runs.

Each module of ``poisson_forge`` is a layer.  ``Tracer.install`` wraps,
from outside, every public function and method of every layer (plus the
normal-form kernel ``Presentation._nf``, which the memo counters need) and
rebinds every module-level name that referred to an original, so calls
made through ``from .x import y`` bindings are seen too.

A call is counted on every entry.  A span is opened only when the call
enters a layer from another layer; calls inside one layer run straight
through the wrapper.  A layer's self time is the duration of its spans
minus the part covered by the spans they caused.  Spans are aggregated in
memory per layer, never stored one by one.

``Tracer.uninstall`` restores every patched attribute and raises if any
wrapper is still reachable from a module or a class afterwards.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

_MARK = "__perfbench_wrapper__"

# Methods whose wrapping would change how objects are built or mutated.
_SKIP = frozenset({"__setattr__", "__delattr__", "__getattribute__",
                   "__getattr__", "__new__", "__init_subclass__",
                   "__class_getitem__"})

# Private functions that are wrapped anyway: the rewriting kernel.
_PRIVATE = frozenset({"Presentation._nf"})

# Functions timed inclusively on every call, whatever layer calls them.
_TIMED = frozenset({"cli.emit"})

def _layer_modules(package):
    prefix = package.__name__ + "."
    return {name: mod for name, mod in list(sys.modules.items())
            if name.startswith(prefix) and mod is not None}


class Tracer:
    """Per-layer call counts, spans and self time for one process."""

    def __init__(self, package):
        self.package = package
        self.calls = {}        # "layer.qualname" -> calls
        self.spans = {}        # layer -> spans opened
        self.self_s = {}       # layer -> self time
        self.inclusive_s = {}  # layer -> time inside its outermost spans
        self.timed_s = {}      # "layer.qualname" -> inclusive time
        self.counters = {"hseries_mul_const": 0, "nf_hits": 0,
                         "map_hits": 0, "monomials_tried": 0,
                         "monomials_kept": 0, "hopf_monomials": 0}
        self.presentations = []
        self._frames = [["main", 0.0]]
        self._depth = {}
        self._patches = []
        self._wrappers = {}

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, layer):
        hit = self._wrappers.get(fn)
        if hit is not None:
            return hit
        qualname = fn.__qualname__
        key = "%s.%s" % (layer, qualname)
        pre, post = self._hooks(qualname)
        if pre is None and post is None and key not in _TIMED:
            wrapper = self._plain(fn, layer, key)
        else:
            wrapper = self._hooked(fn, layer, key, pre, post,
                                   key in _TIMED)
        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, _MARK, True)
        self._wrappers[fn] = wrapper
        return wrapper

    def _plain(self, fn, layer, key):
        calls, frames, depth = self.calls, self._frames, self._depth
        spans, self_s, inclusive = self.spans, self.self_s, self.inclusive_s
        perf = time.perf_counter
        calls.setdefault(key, 0)
        for table in (spans, self_s, inclusive):
            table.setdefault(layer, 0.0 if table is not spans else 0)
        depth.setdefault(layer, 0)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            if frames[-1][0] is layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            frames.append(frame)
            depth[layer] += 1
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                frames.pop()
                frames[-1][1] += dt
                self_s[layer] += dt - frame[1]
                spans[layer] += 1
                depth[layer] -= 1
                if not depth[layer]:
                    inclusive[layer] += dt
        return wrapper

    def _hooked(self, fn, layer, key, pre, post, timed):
        inner = self._plain(fn, layer, key)
        frames, timed_s = self._frames, self.timed_s
        perf = time.perf_counter
        if timed:
            timed_s.setdefault(key, 0.0)

        def wrapper(*args, **kwargs):
            caller = frames[-1][0]
            if pre is not None:
                pre(args)
            t0 = perf()
            out = inner(*args, **kwargs)
            if timed:
                timed_s[key] += perf() - t0
            if post is not None:
                post(args, kwargs, out, caller)
            return out
        return wrapper

    def _hooks(self, qualname):
        """(pre, post) hooks that feed the ratio counters."""
        c = self.counters
        if qualname == "HSeries.__mul__":
            def pre(args):
                other = args[1]
                if len(args[0].coeffs) <= 1 and (
                        len(getattr(other, "coeffs", ())) <= 1):
                    c["hseries_mul_const"] += 1
            return pre, None
        if qualname == "Presentation._nf":
            def pre(args):
                if args[1] in args[0]._memo:
                    c["nf_hits"] += 1
            return pre, None
        if qualname == "AlgebraMap.apply_word":
            def pre(args):
                if tuple(args[1]) in args[0]._cache:
                    c["map_hits"] += 1
            return pre, None
        if qualname == "Presentation.monomials_up_to":
            def post(args, kwargs, out, caller):
                degree = args[1] if len(args) > 1 else kwargs["degree"]
                n = len(args[0].gens)
                c["monomials_tried"] += sum(n ** k
                                            for k in range(1, degree + 1))
                c["monomials_kept"] += len(out) - 1
                if caller == "hopf":
                    c["hopf_monomials"] += len(out)
            return None, post
        if qualname == "Presentation.__init__":
            def post(args, kwargs, out, caller):
                self.presentations.append(args[0])
            return None, post
        return None, None

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self):
        modules = _layer_modules(self.package)
        for modname, mod in sorted(modules.items()):
            layer = sys.intern(modname.rsplit(".", 1)[1])
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    self._wrap(obj, layer)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        for mod in [self.package] + list(modules.values()):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    self._patch(mod, name, self._wrappers[obj])

    def _wrap_class(self, cls, layer):
        for attr, val in list(vars(cls).items()):
            if attr in _SKIP:
                continue
            private = attr.startswith("_") and not attr.endswith("__")
            if private and "%s.%s" % (cls.__name__, attr) not in _PRIVATE:
                continue
            if inspect.isfunction(val):
                self._patch(cls, attr, self._wrap(val, layer))
            elif isinstance(val, staticmethod):
                self._patch(cls, attr,
                            staticmethod(self._wrap(val.__func__, layer)))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []
        left = self.leftover_wrappers()
        if left:
            raise RuntimeError("tracer left %d wrapper(s) behind: %s"
                               % (len(left), ", ".join(left[:5])))

    def leftover_wrappers(self):
        modules = _layer_modules(self.package)
        out = []
        for modname, mod in sorted(modules.items()):
            owners = [(modname, mod)] + [
                ("%s.%s" % (modname, n), o) for n, o in vars(mod).items()
                if inspect.isclass(o) and o.__module__ == modname]
            for label, owner in owners:
                for name, val in vars(owner).items():
                    fn = val.__func__ if isinstance(val, staticmethod) else val
                    if getattr(fn, _MARK, False):
                        out.append("%s.%s" % (label, name))
        for name, val in vars(self.package).items():
            if getattr(val, _MARK, False):
                out.append("%s.%s" % (self.package.__name__, name))
        return out

    # -- results ------------------------------------------------------------

    def stats(self):
        """Plain-JSON summary of this process's trace."""
        return {
            "calls": {k: v for k, v in self.calls.items() if v},
            "spans": dict(self.spans),
            "self_s": dict(self.self_s),
            "inclusive_s": dict(self.inclusive_s),
            "timed_s": dict(self.timed_s),
            "counters": dict(self.counters),
            "memo_words": sum(len(p._memo) for p in self.presentations),
        }
