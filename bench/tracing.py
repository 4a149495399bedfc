"""In-memory span tracing around calls into contrareg's layers.

Hooks replace a function where its caller looks it up (a module attribute
or a class attribute) with a wrapper that records a span: name, layer,
start, end and parent.  Spans stay in memory until the benchmark writes
them out.  A hook whose target no longer exists is recorded as missing; a
span name none of whose hook sites could be installed is unmeasured, so the
metrics that depend on it are reported as "not measured" instead of failing
the run.
"""

import contextlib
import importlib
import math
import os
import time

import numpy as np

# (module, attribute path, span name).  The layer is the span name's prefix.
HOOKS = [
    ("contrareg.optimizer", "_evaluate", "model.evaluate"),
    ("contrareg.optimizer", "log_likelihood_and_grad", "model.evaluate"),
    ("contrareg.optimizer", "build_workspace", "model.build_workspace"),
    ("contrareg.model", "build_workspace", "model.build_workspace"),
    ("contrareg.cli", "build_workspace", "model.build_workspace"),
    ("contrareg.optimizer", "fit", "optimizer.fit"),
    ("contrareg.select", "fit", "optimizer.fit"),
    ("contrareg.cli", "fit", "optimizer.fit"),
    ("contrareg.optimizer", "initialize", "optimizer.initialize"),
    ("contrareg.optimizer", "FitResult.predict", "optimizer.predict"),
    ("contrareg.select", "cross_validate", "select.cross_validate"),
    ("contrareg.cli", "cross_validate", "select.cross_validate"),
    ("contrareg.select", "pca_linear_baseline", "select.pca_linear_baseline"),
    ("contrareg.select", "rank_features", "select.rank_features"),
    ("contrareg.cli", "rank_features", "select.rank_features"),
    ("contrareg.simulate", "generate_lines", "simulate.generate_lines"),
    ("contrareg.cli", "generate_lines", "simulate.generate_lines"),
    ("contrareg.simulate", "generate", "simulate.generate"),
    ("contrareg.cli", "generate", "simulate.generate"),
    ("contrareg.io", "read_table", "io.read_table"),
    ("contrareg.io", "write_table", "io.write_table"),
    ("contrareg.io", "write_predictions", "io.write_predictions"),
    ("contrareg.io", "load_model", "io.load_model"),
    ("contrareg.io", "save_model", "io.save_model"),
    ("contrareg.io", "model_to_dict", "io.model_to_dict"),
    ("contrareg.cli", "main", "cli.main"),
]

LAYERS = ("model", "optimizer", "select", "simulate", "io", "cli", "bench")


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.info = {}

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans while installed; `span` also serves the benchmark's own code."""

    def __init__(self, hooks):
        self.hooks = hooks
        self.spans = []
        self.stack = []
        self.missing = set()      # (module, attribute path) of hook targets that are absent
        self._saved = []

    # -- recording ---------------------------------------------------------
    def begin(self, name):
        span = Span(name, time.perf_counter(), self.stack[-1] if self.stack else None)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def finish(self, span):
        span.end = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.finish(span)

    def _wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span.info["error"] = type(exc).__name__
                raise
            finally:
                tracer.finish(span)
            _annotate(span, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------
    def install(self):
        for module_name, path, name in self.hooks:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.add((module_name, path))
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))
        return self

    @property
    def unmeasured(self):
        """Span names none of whose hook sites exist."""
        names = {name for _, _, name in self.hooks}
        found = {name for module_name, path, name in self.hooks
                 if (module_name, path) not in self.missing}
        return names - found

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()


def _annotate(span, args, kwargs, out):
    """Counts measured where the work happens: gradients, non-finite values, cells, bytes."""
    name = span.name
    if name == "model.evaluate":
        span.info["grad"] = bool(kwargs.get("want_grad", True))
        span.info["finite"] = math.isfinite(out[0])
    elif name == "optimizer.fit":
        span.info["iterations"] = out.iterations
    elif name == "io.write_table":
        responses = args[3] if len(args) > 3 else kwargs.get("responses")
        span.info["cells"] = int(np.size(args[1])) + (0 if responses is None else len(responses))
        span.info["bytes"] = os.path.getsize(args[0])
    elif name == "io.read_table":
        matrix, _, responses = out
        span.info["cells"] = int(matrix.size) + (0 if responses is None else int(responses.size))
        span.info["bytes"] = os.path.getsize(args[0])
    elif name == "io.write_predictions":
        span.info["bytes"] = os.path.getsize(args[0])


def self_times(spans, root):
    """Self time per layer inside `root`: each span's duration minus its children's cover.

    Spans nest strictly (one thread, wrappers close in call order), so the
    children of a span never overlap and their durations add up to the
    part of the parent they cover.
    """
    child_cover = {}
    for s in spans:
        if s.parent is not None:
            child_cover[id(s.parent)] = child_cover.get(id(s.parent), 0.0) + s.duration
    inside = descendants(spans, root)
    totals = {layer: 0.0 for layer in LAYERS}
    for s in inside:
        totals[s.layer] = totals.get(s.layer, 0.0) + s.duration - child_cover.get(id(s), 0.0)
    return totals


def descendants(spans, root):
    keep = {id(root)}
    out = [root]
    for s in spans:             # spans are in start order, so parents come first
        if s.parent is not None and id(s.parent) in keep and id(s) not in keep:
            keep.add(id(s))
            out.append(s)
    return out


def to_records(spans):
    index = {id(s): i for i, s in enumerate(spans)}
    return [{"id": i, "name": s.name, "start": s.start, "end": s.end,
             "parent": index.get(id(s.parent)) if s.parent is not None else None,
             **s.info}
            for i, s in enumerate(spans)]
