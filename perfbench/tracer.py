"""Per-layer spans for heckelab, installed from outside the package.

`Tracer.install()` replaces every public function of every heckelab
module, in every module namespace that binds it (``cli`` and
``typecount`` import names directly), with one wrapper that records a
span.  Two class members are wrapped as well: ``Subgroup.generated`` and
the arithmetic of ``RatMatrix``.  A layer is the module that defines the
function.

Span stacks are per thread.  A thread started through
``ThreadPoolExecutor.submit`` adopts the submitting thread's open span as
its parent, so pool work keeps its caller but its time never counts
against the main thread's self time.  Spans are folded into totals as
they close; only the totals leave the process.
"""

import concurrent.futures
import functools
import threading
import time
import types

LAYERS = ("cli", "axioms", "typecount", "galois", "hecke", "jfunction",
          "qexp", "congruence", "moebius")
RATMATRIX_METHODS = ("__init__", "__mul__", "inverse", "normalized", "det",
                     "trace", "disc", "scale", "is_integral", "in_sl2z",
                     "int_entries")
CACHED = (("qexp", "j_coefficients"), ("qexp", "j_power_coefficients"),
          ("galois", "_a_ell"))


def _prime_count(bound):
    from workloads import primes_upto
    return len(primes_upto(bound))


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


# work counted per call: span name -> (counter, f(args, kwargs, result))
COUNTERS = {
    "galois.count_points": ("ell_sum", lambda a, k, r: _arg(a, k, 1, "ell")),
    "galois.frobenius_sample": (
        "rows", lambda a, k, r: _prime_count(_arg(a, k, 1, "bound"))),
    "galois.lifting_check": ("order_sum", lambda a, k, r: r.order),
    "hecke.verify_disjoint": (
        "pairs", lambda a, k, r: len(a[0]) * (len(a[0]) - 1) // 2),
    "congruence.enumerate_sl2": ("elements", lambda a, k, r: len(r)),
    "congruence.Subgroup.generated": ("elements", lambda a, k, r: len(r)),
}


class _ThreadState:
    def __init__(self, is_main):
        self.is_main = is_main
        # frames: [name, layer, start, child time, boundary?, outermost?]
        self.stack = []
        self.parent_layer = None  # layer of an adopted cross-thread parent
        self.depth = {}  # layer -> open spans of that layer, adopted too


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.caches = {}
        self.reset()

    def reset(self):
        """Zero the totals; cache counts are reported from here on."""
        with self._lock:
            # name -> [calls, self_s, raised, counter, main-thread self_s]
            self.funcs = {}
            # layer -> [boundary calls, busy_s, main-thread self_s, raised]
            self.layers = {}
            self.root_s = 0.0
            self.cache_base = self._cache_info()

    # -- recording ----------------------------------------------------------

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            is_main = threading.current_thread() is threading.main_thread()
            st = self._local.st = _ThreadState(is_main)
        return st

    def _enter(self, name, layer):
        st = self._state()
        parent = st.stack[-1][1] if st.stack else st.parent_layer
        outer = not st.depth.get(layer)
        st.depth[layer] = st.depth.get(layer, 0) + 1
        frame = [name, layer, 0.0, 0.0, parent != layer, outer]
        st.stack.append(frame)
        frame[2] = time.perf_counter()
        return st, frame

    def _exit(self, st, frame, end, raised, extra):
        dur = end - frame[2]
        st.stack.pop()
        name, layer, _, child, boundary, outer = frame
        st.depth[layer] -= 1
        if st.stack:
            st.stack[-1][3] += dur
        self_s = dur - child
        with self._lock:
            f = self.funcs.setdefault(name, [0, 0.0, 0, 0, 0.0])
            f[0] += 1
            f[1] += self_s
            f[2] += raised
            f[3] += extra
            L = self.layers.setdefault(layer, [0, 0.0, 0.0, 0])
            L[0] += boundary
            L[1] += dur if outer else 0.0
            L[3] += raised
            if st.is_main:
                f[4] += self_s
                L[2] += self_s
                if not st.stack:
                    self.root_s += dur

    def _wrap(self, fn, name, layer):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            st, frame = self._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(st, frame, time.perf_counter(), 1, 0)
                raise
            end = time.perf_counter()
            self._exit(st, frame, end, 0,
                       counter[1](args, kwargs, result) if counter else 0)
            return result
        return span

    # -- pool threads -------------------------------------------------------

    def _adopting(self, fn):
        st = self._state()
        parent = st.stack[-1][1] if st.stack else st.parent_layer
        depth = dict(st.depth)

        def run(*args, **kwargs):
            child = self._state()
            saved = child.parent_layer, child.depth
            child.parent_layer, child.depth = parent, dict(depth)
            try:
                return fn(*args, **kwargs)
            finally:
                child.parent_layer, child.depth = saved
        return run

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap heckelab in place; returns the tracer for chaining."""
        import heckelab
        from heckelab import congruence, moebius

        modules = {name: getattr(heckelab, name) for name in LAYERS}
        wrappers = {}

        def wrapper_for(obj):
            mod = getattr(obj, "__module__", "") or ""
            if not mod.startswith("heckelab."):
                return None
            layer = mod.split(".")[1]
            if layer not in LAYERS:
                return None
            is_fn = isinstance(obj, types.FunctionType)
            is_cached = hasattr(obj, "cache_info")
            if not (is_fn or is_cached):
                return None
            if id(obj) not in wrappers:
                wrappers[id(obj)] = self._wrap(obj, f"{layer}.{obj.__name__}",
                                               layer)
            return wrappers[id(obj)]

        self.caches = {f"{mod}.{attr}": getattr(modules[mod], attr)
                       for mod, attr in CACHED}
        self.reset()
        for ns in [heckelab, *modules.values()]:
            for attr, obj in list(vars(ns).items()):
                if attr.startswith("_"):
                    continue
                w = wrapper_for(obj)
                if w is not None:
                    setattr(ns, attr, w)

        gen = congruence.Subgroup.__dict__["generated"].__func__
        congruence.Subgroup.generated = classmethod(
            self._wrap(gen, "congruence.Subgroup.generated", "congruence"))
        for meth in RATMATRIX_METHODS:
            orig = moebius.RatMatrix.__dict__[meth]
            setattr(moebius.RatMatrix, meth,
                    self._wrap(orig, "moebius.RatMatrix", "moebius"))

        submit = concurrent.futures.ThreadPoolExecutor.submit
        tracer = self

        def traced_submit(pool, fn, /, *args, **kwargs):
            return submit(pool, tracer._adopting(fn), *args, **kwargs)
        concurrent.futures.ThreadPoolExecutor.submit = traced_submit
        return self

    def _cache_info(self):
        """(hits, misses) of each lru_cache, read from the original cache
        objects, not through the wrappers."""
        return {name: tuple(fn.cache_info()[:2])
                for name, fn in self.caches.items()}

    def snapshot(self):
        """Totals since the last reset, in a JSON-ready form."""
        with self._lock:
            now = self._cache_info()
            return {"funcs": {k: list(v) for k, v in self.funcs.items()},
                    "layers": {k: list(v) for k, v in self.layers.items()},
                    "root_s": self.root_s,
                    "caches": {k: [now[k][i] - self.cache_base[k][i]
                                   for i in (0, 1)] for k in now}}


def merge(snapshots):
    """Sum snapshots; cache counts are per snapshot deltas already."""
    out = {"funcs": {}, "layers": {}, "root_s": 0.0, "caches": {}}
    for snap in snapshots:
        for key in ("funcs", "layers"):
            for name, vals in snap[key].items():
                acc = out[key].setdefault(name, [0] * len(vals))
                for i, v in enumerate(vals):
                    acc[i] += v
        out["root_s"] += snap["root_s"]
        for name, (h, m) in snap["caches"].items():
            ph, pm = out["caches"].get(name, (0, 0))
            out["caches"][name] = (ph + h, pm + m)
    return out


def layer_metrics(snap, overhead_s):
    """Flatten merged totals into the per-layer metric table."""
    funcs, layers, root = snap["funcs"], snap["layers"], snap["root_s"]
    m = {}
    for layer in LAYERS:
        calls, busy, self_s, raised = layers.get(layer, [0, 0.0, 0.0, 0])
        m[f"{layer}.calls"] = (calls, "count")
        m[f"{layer}.busy_s"] = (busy, "s")
        m[f"{layer}.self_s"] = (self_s, "s")
        m[f"{layer}.raised"] = (raised, "count")
        m[f"{layer}.self_share"] = (self_s / root if root else 0.0, "ratio")

    def f(name, i):
        return funcs.get(name, [0, 0.0, 0, 0, 0.0])[i]

    for name in ("galois.count_points", "hecke.modular_polynomial",
                 "moebius.RatMatrix", "jfunction.invert_j",
                 "jfunction.reduce_fundamental"):
        m[f"{name}.calls"] = (f(name, 0), "count")
    for name in ("galois.count_points", "hecke.modular_polynomial",
                 "hecke.verify_disjoint", "moebius.RatMatrix",
                 "jfunction.invert_j", "jfunction.j",
                 "hecke.correspondence_fiber", "congruence.enumerate_sl2",
                 "congruence.Subgroup.generated", "galois.lifting_check",
                 "typecount.count_orbits", "galois.certify_mod_p_image",
                 "galois.certify_goursat_pair"):
        m[f"{name}.self_s"] = (f(name, 1), "s")
    m["hecke.correspondence_fiber.raised"] = (
        f("hecke.correspondence_fiber", 2), "count")
    for name, (counter, _) in COUNTERS.items():
        m[f"{name}.{counter}"] = (f(name, 3), "count")
    rows = f("galois.frobenius_sample", 3)
    m["galois.count_per_row"] = (
        f("galois.count_points", 0) / rows if rows else 0.0, "ratio")
    # the main thread's self time in frobenius_sample is time blocked on
    # its pool threads
    m["galois.frobenius_sample.wait_s"] = (f("galois.frobenius_sample", 4),
                                           "s")
    caches = snap["caches"]
    m["qexp.j_coefficients.hits"] = (caches["qexp.j_coefficients"][0], "count")
    m["qexp.j_coefficients.misses"] = (caches["qexp.j_coefficients"][1],
                                       "count")
    m["qexp.j_power_coefficients.misses"] = (
        caches["qexp.j_power_coefficients"][1], "count")
    m["galois.a_ell.hits"] = (caches["galois._a_ell"][0], "count")
    m["trace.root_s"] = (root, "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m
