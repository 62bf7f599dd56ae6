"""Layer tracing for coringlab, installed from outside the package.

`Tracer.install()` replaces coringlab functions and methods with wrappers
that record spans (name, start, end, parent, verdict id), per-name call
counts with inclusive and self time, and counters measured at the layer
boundary.  Module-level functions are patched on every `coringlab.*`
module attribute that *is* the original function, because `from .x import
y` makes a second binding that patching the defining module alone misses.
Methods are patched on their classes.  `uninstall()` restores everything.

Targets that a later version of the package no longer has are skipped, so
the tracer keeps working after refactors; the benchmark's own checks then
report which layer metric went to zero.
"""

from __future__ import annotations

import gc
import sys
import time
from collections import defaultdict

perf = time.perf_counter

# Public checkers and builders, each reported as `<module>.<name>.s`
# (inclusive seconds).
CHECKERS = {
    "coring": ("check_coring", "check_coring_morphism"),
    "cowreath": ("check_cowreath", "check_l_cowreath", "cowreath_product",
                 "flip_cowreath", "entwining_lift_cowreath",
                 "sample_adjunction_maps", "adjunction_hat",
                 "adjunction_tilde"),
    "entwine": ("check_entwining", "entwined_coring", "check_entwining_wreath"),
    "rcat": ("check_r_object",),
    "wreath": ("check_wreath", "check_l_wreath", "twisted_tensor_product",
               "check_left_module_twisting"),
    "ore": ("check_ore_wreath", "ore_vs_wreath_product"),
}

_SCALAR_METHODS = ("zero", "one", "from_int", "add", "sub", "mul", "neg",
                   "inv", "div", "is_zero", "parse", "fmt")


def _is_identity(m) -> bool:
    if m.rows != m.cols or len(m.data) != m.rows:
        return False
    for i, row in m.data.items():
        # compare with the int 1, not field.one(): that would count as a
        # scalar call
        if len(row) != 1 or row.get(i) != 1:
            return False
    return True


def _nnz(m) -> int:
    return sum(len(r) for r in m.data.values())


class Tracer:
    def __init__(self):
        self.spans = []                 # (id, name, start, end, parent, verdict)
        self.stats = {}                 # name -> [calls, inclusive_s, self_s]
        self.counts = defaultdict(int)  # deterministic counters
        self.times = defaultdict(float)  # extra timers (equation.<tag>.s, ...)
        self.maxes = defaultdict(int)
        self.verdict = None
        self._stack = []                # frames: [span_id, child_s, name]
        self._next_id = 0
        self._checker_depth = 0
        self._eq_mark = None
        self._seen_quotients = {}
        self._patches = []
        self._gc_t0 = None

    # -- bookkeeping ---------------------------------------------------------

    def begin_verdict(self, vid):
        self.verdict = vid
        self._eq_mark = perf()

    def reset(self):
        """Start a fresh repetition: drop counters, keep the spans."""
        self.stats.clear()
        self.counts.clear()
        self.times.clear()
        self.maxes.clear()
        self._seen_quotients.clear()

    def _call(self, name, fn, args, kwargs, record=True):
        stack = self._stack
        parent = stack[-1][0] if stack else None
        sid = self._next_id
        self._next_id = sid + 1
        frame = [sid, 0.0, name]
        stack.append(frame)
        t0 = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf()
            stack.pop()
            dur = t1 - t0
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = [0, 0.0, 0.0]
            st[0] += 1
            st[1] += dur
            st[2] += dur - frame[1]
            if stack:
                stack[-1][1] += dur
            if record:
                self.spans.append((sid, name, t0, t1, parent, self.verdict))

    def _wrap(self, name, fn, after=None, record=True):
        call = self._call

        if after is None:
            def wrapper(*args, **kwargs):
                return call(name, fn, args, kwargs, record)
        else:
            def wrapper(*args, **kwargs):
                out = call(name, fn, args, kwargs, record)
                after(args, out)
                return out
        return wrapper

    # -- patching --------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, module, attr, name, after=None, record=True,
                        around=None):
        orig = getattr(sys.modules.get(f"coringlab.{module}"), attr, None)
        if orig is None:
            return
        wrapper = around(orig) if around else self._wrap(name, orig, after, record)
        for mname, mod in list(sys.modules.items()):
            if mod is None or not (mname == "coringlab" or mname.startswith("coringlab.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._set(mod, key, wrapper)

    def _patch_method(self, cls, attr, name, after=None, record=True,
                      wrap=None):
        raw = cls.__dict__.get(attr) if cls is not None else None
        if raw is None:
            return
        is_cm = isinstance(raw, classmethod)
        fn = raw.__func__ if is_cm else raw
        wrapper = wrap(fn) if wrap else self._wrap(name, fn, after, record)
        self._set(cls, attr, classmethod(wrapper) if is_cm else wrapper)

    def install(self):
        import coringlab  # noqa: F401  (binds every submodule the CLI uses)
        import coringlab.cli  # noqa: F401
        import coringlab.corpus  # noqa: F401
        import coringlab.session  # noqa: F401
        from coringlab import bimodule, exactla, ore

        c, mx = self.counts, self.maxes

        # -- exactla -----------------------------------------------------------
        M = exactla.Matrix

        def after_matmul(args, out):
            c["exactla.matmul.out_nnz"] += _nnz(out)
            c["exactla.matmul.identity_operands"] += (
                _is_identity(args[0]) + _is_identity(args[1]))

        def after_kron(args, out):
            c["exactla.kron.out_nnz"] += _nnz(out)
            c["exactla.kron.identity_operands"] += (
                _is_identity(args[0]) + _is_identity(args[1]))

        def after_identity(args, out):
            mx["exactla.identity.max_dim"] = max(mx["exactla.identity.max_dim"], out.rows)

        def after_add(args, out):
            c["exactla.echelon.add.rank_gains"] += bool(out)

        self._patch_method(M, "__matmul__", "exactla.matmul", after_matmul)
        self._patch_method(M, "kron", "exactla.kron", after_kron)
        self._patch_method(M, "identity", "exactla.identity", after_identity,
                           record=False)
        self._patch_method(M, "col", "exactla.col", record=False)
        self._patch_method(exactla.Echelon, "add", "exactla.echelon.add", after_add)
        self._patch_method(exactla.Echelon, "reduce", "exactla.echelon.reduce",
                           record=False)
        for cls, key in ((exactla.RationalField, "exactla.scalar.calls.qq"),
                         (exactla.PrimeField, "exactla.scalar.calls.gf")):
            for meth in _SCALAR_METHODS:
                self._patch_method(cls, meth, key,
                                   wrap=lambda fn, key=key: _counting(c, key, fn))

        # -- bimodule ----------------------------------------------------------
        seen = self._seen_quotients

        def after_tensor_over(args, tq):
            if id(tq) in seen:
                return
            seen[id(tq)] = tq
            c["bimodule.tensor_over.built"] += 1
            c["bimodule.tensor_over.flat"] += tq.dim == args[1].dim * args[2].dim
            c["bimodule.tensor_over.relations"] += len(tq.relations)

        def after_space_init(args, out):
            mx["bimodule.space.max_leaf_flat_dim"] = max(
                mx["bimodule.space.max_leaf_flat_dim"], args[0].leaf_flat_dim())

        self._patch_function("bimodule", "tensor_over", "bimodule.tensor_over",
                             after_tensor_over)
        self._patch_function("bimodule", "space", "bimodule.space")
        self._patch_method(bimodule.Space, "__init__", "bimodule.space.build",
                           after_space_init)
        for meth in ("apply", "insert_central", "absorb_left", "absorb_right"):
            self._patch_method(bimodule.Pipe, meth, "bimodule.pipe.stage")
        self._patch_method(bimodule.Pipe, "done", "bimodule.pipe.done")
        self._patch_function("bimodule", "tensor_maps", "bimodule.tensor_maps")
        self._patch_function("bimodule", "bilinearity_report",
                             "bimodule.bilinearity")
        # the descent check: helper calls made directly by tensor_over
        self._patch_function("bimodule", "_apply_kron_side", None,
                             around=lambda fn: self._descent(fn))
        self._patch_method(bimodule.TensorQuotient, "kills", None,
                           wrap=lambda fn: self._descent(fn))

        # -- checkers and compare_maps ------------------------------------------
        def after_compare(args, rep):
            now = perf()
            tag = args[1]
            c["coring.compare_maps.columns"] += args[2].domain.dim
            c["coring.compare_maps.mismatches"] += args[2].matrix != args[3].matrix
            if self._eq_mark is not None:
                self.times[f"equation.{tag}.s"] += now - self._eq_mark
            self._eq_mark = now

        self._patch_function("coring", "compare_maps", "coring.compare_maps",
                             after_compare)
        for module, names in CHECKERS.items():
            for fname in names:
                self._patch_function(module, fname, None,
                                     around=lambda fn, n=f"{module}.{fname}": self._checker(n, fn))

        # -- ore ---------------------------------------------------------------
        self._patch_method(ore.OreTwistTable, "__init__", "ore.table")
        self._patch_function("ore", "skew_mul", "ore.skew_mul")

        # -- session and cli ---------------------------------------------------
        def after_parse(args, out):
            c["session.parse.bytes"] += _source_bytes(args[0])

        def after_serialize(args, out):
            c["session.serialize.bytes"] += len(out.encode("utf-8"))

        self._patch_function("session", "parse_session", "session.parse", after_parse)
        self._patch_function("session", "serialize_session", "session.serialize",
                             after_serialize)
        self._patch_function("cli", "main", "cli.main")

        gc.callbacks.append(self._gc_callback)

    def uninstall(self):
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def _gc_callback(self, phase, info):
        if phase == "start":
            self._gc_t0 = perf()
        elif self._gc_t0 is not None:
            self.counts["gc.collections"] += 1
            self.times["gc.pause_s"] += perf() - self._gc_t0
            self._gc_t0 = None

    def _descent(self, fn):
        call = self._call

        def wrapper(*args, **kwargs):
            frames = self._stack
            if frames and frames[-1][2] == "bimodule.tensor_over":
                return call("bimodule.descent", fn, args, kwargs, False)
            return fn(*args, **kwargs)
        return wrapper

    def _checker(self, name, fn):
        call = self._call

        def wrapper(*args, **kwargs):
            if self._checker_depth == 0:
                self._eq_mark = perf()
            self._checker_depth += 1
            try:
                return call(name, fn, args, kwargs)
            finally:
                self._checker_depth -= 1
        return wrapper

    # -- results -------------------------------------------------------------

    def snapshot(self):
        """Flat {metric: value} for the counters and timers of the current
        repetition."""
        out = {}
        for name, (calls, incl, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = incl
            out[f"{name}.self_s"] = self_s
        out.update(self.counts)
        out.update(self.times)
        out.update(self.maxes)
        return out


def _counting(counts, key, fn):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def _source_bytes(source) -> int:
    import os
    if isinstance(source, (str, os.PathLike)) and not str(source).lstrip().startswith("{"):
        return os.path.getsize(source)
    if isinstance(source, str):
        return len(source.encode("utf-8"))
    return 0
