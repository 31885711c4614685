"""Outside-in tracing of qwirt's layers for the benchmark's traced run.

Nothing under ``src/`` changes.  ``Tracer.install`` replaces public functions
and methods of the qwirt modules with wrappers that record spans and
counters, and ``Tracer.uninstall`` puts the originals back.  A name bound by
``from ... import`` is a separate binding in the importing module
(``qwirt.cli.lift``, ``qwirt.wirtinger.lift``, ``qwirt.cli.reconstruct``, ...),
so every qwirt module attribute that holds the original is replaced, not
only the one in the defining module.

A span is ``(id, parent id, job id, name, start, end)``; spans stay in memory
until ``write_spans``.  A span's self time is its duration minus the time
covered by its direct child spans.  Recursive entry into a span of the same
name (``lower`` lowering a subtree, ``__pow__`` calling ``__mul__``) is folded
into the outer span.
"""

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    """Spans and counters for one traced pass; install, run jobs, uninstall."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.exclusive = defaultdict(float)
        self.job = None
        self._stack = []
        self._next_id = 1
        self._points = set()
        self._restore = []

    # -- jobs ---------------------------------------------------------------

    def begin_job(self, job_id):
        self.job = job_id
        self._points = set()

    def end_job(self):
        self.counts["numeric.base_eval.distinct"] += len(self._points)
        self.job = None

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, name, func, count=None, fold=False):
        stack = self._stack
        counts = self.counts

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            if fold and stack and stack[-1][1] == name:
                return func(*args, **kwargs)
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [span_id, name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self.inclusive[name] += duration
                self.exclusive[name] += duration - frame[2]
                parent = 0
                if stack:
                    stack[-1][2] += duration
                    parent = stack[-1][0]
                self.spans.append((span_id, parent, self.job, name, start, end))

        return wrapper

    def _counted(self, name, func):
        counts = self.counts

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    def _base_field(self, func):
        """Count and time evaluations of a lifted polynomial, and collect the
        distinct float points of the current job."""
        tracer = self

        def evaluate(point):
            tracer._points.add(tuple((q.w, q.x, q.y, q.z) for q in point))
            return func(point)

        return self._spanned("numeric.base_eval", evaluate,
                             count="numeric.base_eval.calls")

    # -- patching -----------------------------------------------------------

    def _rebind(self, original, replacement):
        sites = 0
        for modname, module in list(sys.modules.items()):
            if modname != "qwirt" and not modname.startswith("qwirt."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))
                    sites += 1
        if not sites:
            raise RuntimeError("no binding of %s found" % original.__qualname__)

    def _patch_method(self, cls, attr, replacement):
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self):
        from qwirt import almansi, cli, expr, numeric, quaternion, sampling, \
            slicefn, stem, wirtinger

        counts = self.counts
        spanned, counted = self._spanned, self._counted

        self._rebind(cli.main, spanned("cli.main", cli.main, "cli.main.calls"))
        self._rebind(cli.build_parser,
                     counted("cli.build_parser.calls", cli.build_parser))
        self._rebind(expr.parse, spanned("expr.parse", expr.parse))
        self._rebind(expr.lower, spanned("expr.lower", expr.lower, fold=True))

        poly = slicefn.SliceFunction
        for attr in ("__mul__", "__pow__"):
            self._patch_method(poly, attr, spanned(
                "slicefn.mul", poly.__dict__[attr], "slicefn.mul.calls", fold=True))
        self._patch_method(poly, "evaluate", spanned(
            "slicefn.evaluate", poly.evaluate, "slicefn.evaluate.calls"))
        self._rebind(slicefn.format_slice,
                     spanned("slicefn.format", slicefn.format_slice))

        stem_mul = slicefn.StemPolynomial.__mul__

        def stem_poly_mul(a, b):
            product = stem_mul(a, b)
            counts["slicefn.stem_mul.terms_out"] += len(product.terms)
            return product

        self._patch_method(slicefn.StemPolynomial, "__mul__", stem_poly_mul)
        self._patch_method(stem.StemElement, "__mul__", counted(
            "stem.elem_mul.calls", stem.StemElement.__mul__))

        q_init = quaternion.Quaternion.__init__
        q_mul = quaternion.Quaternion.__mul__

        def quaternion_init(q, *args, **kwargs):
            counts["quaternion.new"] += 1
            q_init(q, *args, **kwargs)

        def quaternion_mul(a, b):
            product = q_mul(a, b)
            if product is not NotImplemented:
                # A float among the eight operand components reaches every
                # component of the product.
                counts["quaternion.mul.float" if type(product.w) is float
                       else "quaternion.mul.exact"] += 1
            return product

        self._patch_method(quaternion.Quaternion, "__init__", quaternion_init)
        self._patch_method(quaternion.Quaternion, "__mul__", quaternion_mul)

        lift = numeric.lift
        timed_lift = spanned("numeric.lift", lift, "numeric.lift.calls")

        @functools.wraps(lift)
        def traced_lift(*args, **kwargs):
            field = timed_lift(*args, **kwargs)
            field.func = self._base_field(field.func)
            return field

        self._rebind(lift, traced_lift)
        self._rebind(numeric.coordinate_partial, counted(
            "numeric.coordinate_partial.calls", numeric.coordinate_partial))

        self._rebind(almansi.reconstruct,
                     spanned("almansi.reconstruct", almansi.reconstruct))
        for family in (almansi.spherical_components, almansi.fueter_components,
                       almansi.dirac_components):
            self._rebind(family, counted("almansi.families.calls", family))

        for name in ("check_strong_sliceness", "check_regularity_numeric",
                     "crosscheck"):
            original = getattr(wirtinger, name)
            self._rebind(original, spanned("wirtinger." + name, original))
        for op in (wirtinger.wirtinger_derivative_numeric,
                   wirtinger.wirtinger_conj_derivative_numeric):
            self._rebind(op, counted("wirtinger.numeric_op.calls", op))

        self._rebind(sampling.random_slice_point, counted(
            "sampling.points", sampling.random_slice_point))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def layer_metrics(self):
        """The per-layer metrics of the benchmark, keyed by metric name.

        ``*.calls`` count calls at the wrapped boundary, ``*_s`` are span
        seconds including child spans and ``*.self_s`` exclude them.
        ``quaternion.mul.float``/``.exact`` split ``Quaternion.__mul__`` calls
        by the type of the product, ``numeric.base_eval.distinct`` sums the
        distinct float points of each job, and
        ``slicefn.stem_mul.terms_out`` sums the terms of every
        ``StemPolynomial.__mul__`` product.
        """
        c, inc, exc = self.counts, self.inclusive, self.exclusive
        calls = c["numeric.base_eval.calls"]
        return {
            "cli.main.calls": c["cli.main.calls"],
            "cli.build_parser.calls": c["cli.build_parser.calls"],
            "cli.self_s": exc["cli.main"],
            "expr.parse_s": inc["expr.parse"],
            "expr.lower.self_s": exc["expr.lower"],
            "slicefn.mul.calls": c["slicefn.mul.calls"],
            "slicefn.mul_s": inc["slicefn.mul"],
            "slicefn.stem_mul.terms_out": c["slicefn.stem_mul.terms_out"],
            "slicefn.format_s": inc["slicefn.format"],
            "slicefn.evaluate.calls": c["slicefn.evaluate.calls"],
            "slicefn.evaluate_s": inc["slicefn.evaluate"],
            "stem.elem_mul.calls": c["stem.elem_mul.calls"],
            "quaternion.mul.float": c["quaternion.mul.float"],
            "quaternion.mul.exact": c["quaternion.mul.exact"],
            "quaternion.new": c["quaternion.new"],
            "numeric.lift.calls": c["numeric.lift.calls"],
            "numeric.lift_s": inc["numeric.lift"],
            "numeric.base_eval.calls": calls,
            "numeric.base_eval.distinct": c["numeric.base_eval.distinct"],
            "numeric.base_eval.distinct_ratio":
                c["numeric.base_eval.distinct"] / calls if calls else 0.0,
            "numeric.base_eval_s": inc["numeric.base_eval"],
            "numeric.coordinate_partial.calls":
                c["numeric.coordinate_partial.calls"],
            "almansi.reconstruct_s": inc["almansi.reconstruct"],
            "almansi.families.calls": c["almansi.families.calls"],
            "wirtinger.check_strong_sliceness_s":
                inc["wirtinger.check_strong_sliceness"],
            "wirtinger.check_regularity_numeric_s":
                inc["wirtinger.check_regularity_numeric"],
            "wirtinger.crosscheck_s": inc["wirtinger.crosscheck"],
            "wirtinger.numeric_op.calls": c["wirtinger.numeric_op.calls"],
            "sampling.points": c["sampling.points"],
        }

    def span_table(self):
        """Inclusive and self seconds per span name."""
        return {name: {"inclusive_s": self.inclusive[name],
                       "self_s": self.exclusive[name]}
                for name in sorted(self.inclusive)}

    def write_spans(self, path):
        """One JSON array per line: id, parent id (0 at a job's root), job
        id, name, start and end in seconds of perf_counter."""
        with open(path, "w") as out:
            out.write(json.dumps(["id", "parent", "job", "name", "start", "end"])
                      + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
