"""Span recording around the public functions of each congruence layer.

The wrappers live here, outside the package: install() rebinds each traced
function in every congruence module that holds it by name (canon imports
jordan_structure, cosquare and char_poly that way), and the traced Matrix
methods on the class itself; uninstall() puts the originals back.  Spans
(layer, start, end, parent span, instance) stay in memory until per_pass()
reduces them.
"""

import sys
from array import array
from time import perf_counter

from congruence.matrix import Matrix

# layer name -> (module, function); canon.canonicalize is the root span of
# each instance, so its self time is the canon work outside the other layers
FUNCTIONS = [
    ("canon.canonicalize", "congruence.canon", "canonicalize"),
    ("canon.regularize", "congruence.canon", "regularize"),
    ("canon.singular_profile", "congruence.canon", "singular_profile"),
    ("canon.extract_signs", "congruence.canon", "extract_signs"),
    ("cosquare.cosquare", "congruence.cosquare", "cosquare"),
    ("cosquare.star_root_jordan", "congruence.cosquare", "star_root_jordan"),
    ("jordan.jordan_structure", "congruence.jordan", "jordan_structure"),
    ("jordan.eigenvalues", "congruence.jordan", "eigenvalues"),
    ("jordan.generalized_eigenbasis", "congruence.jordan",
     "generalized_eigenbasis"),
    ("matrix.char_poly", "congruence.matrix", "char_poly"),
]
# exact and float elimination entry points, reported as one layer
ELIMINATION = ("rank", "right_kernel", "inverse", "det")
LAYERS = [name for name, _, _ in FUNCTIONS] + ["matrix.mul", "matrix.elim"]


class Tracer:
    def __init__(self):
        self.instance = -1
        self._layer = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._inst = array("i")
        self._stack = []
        self._ops = {}
        self._binds = self._bindings()

    def _wrap(self, layer, fn):
        ix = LAYERS.index(layer)
        stack = self._stack

        def traced(*args, **kwargs):
            k = len(self._start)
            self._layer.append(ix)
            self._parent.append(stack[-1] if stack else -1)
            self._inst.append(self.instance)
            self._start.append(0.0)
            self._end.append(0.0)
            stack.append(k)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self._start[k] = t0
                self._end[k] = t1

        traced.__name__ = fn.__name__
        return traced

    def _wrap_mul(self, fn):
        span = self._wrap("matrix.mul", fn)
        ops = self._ops

        def mul(a, b):
            if not isinstance(b, Matrix):
                return fn(a, b)  # scalar scaling, not a product
            ops[self.instance] = (ops.get(self.instance, 0)
                                  + a.rows * a.cols * b.cols)
            return span(a, b)

        return mul

    def _bindings(self):
        """(owner, attribute, original, wrapper) for every traced name."""
        out = []
        modules = [m for name, m in list(sys.modules.items())
                   if name.startswith("congruence.")]
        for layer, modname, attr in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            wrapped = self._wrap(layer, orig)
            out += [(m, attr, orig, wrapped) for m in modules
                    if m.__dict__.get(attr) is orig]
        out.append((Matrix, "__mul__", Matrix.__mul__,
                    self._wrap_mul(Matrix.__mul__)))
        out += [(Matrix, name, Matrix.__dict__[name],
                 self._wrap("matrix.elim", Matrix.__dict__[name]))
                for name in ELIMINATION]
        return out

    def install(self):
        for owner, attr, _, wrapped in self._binds:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, orig, _ in self._binds:
            setattr(owner, attr, orig)

    def per_pass(self, samples):
        """Calls, self seconds and product ops to run the instance set once.

        samples[i] is how often instance i ran; each instance's totals are
        divided by it, then summed over the set.  Self time is a span's
        duration minus the time its child spans cover.
        """
        n = len(self._start)
        dur = [self._end[k] - self._start[k] for k in range(n)]
        child = [0.0] * n
        for k in range(n):
            p = self._parent[k]
            if p >= 0:
                child[p] += dur[k]
        calls = [0.0] * len(LAYERS)
        self_s = [0.0] * len(LAYERS)
        for k in range(n):
            w = 1.0 / samples[self._inst[k]]
            calls[self._layer[k]] += w
            self_s[self._layer[k]] += (dur[k] - child[k]) * w
        out = {}
        for ix, layer in enumerate(LAYERS):
            if layer != "canon.canonicalize":
                out[layer + ".calls"] = calls[ix]
            out[layer + ".self_s"] = self_s[ix]
        out["matrix.mul.ops"] = sum(v / samples[i] for i, v in self._ops.items())
        return out
