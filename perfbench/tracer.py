"""Per-layer tracing for the benchmark, installed from outside the package.

The tracer wraps public functions of padicover at every place they are bound:
module attributes, names imported into other modules with ``from .x import f``,
and class attributes (``Element.__mul__`` is also ``Element.__rmul__``).  The
package source is never edited; ``uninstall`` puts every original back.

Two kinds of boundary are recorded:

* spans, one per call, for the layers above the field (kpoly, newton, fppoly,
  oracle, classifier, dualgraph, cover, branchtree).  A span is
  ``(span_id, parent_id, request_id, name, start_ns, end_ns, field_ns,
  raised)``; ``field_ns`` is the time spent in field operations called
  directly from it, and ``raised`` is the class name of the exception that
  left the call, or None.
* field operations (``Element`` arithmetic, ``FieldContext`` helpers), which
  run millions of times per request, are only counted: calls, self time and
  exceptions per operation, so trace memory stays bounded.

Self times come from one span tree per request (``self_times``).  The program
is single-threaded and nothing in it waits on a queue or a lock, so no wait
times are recorded.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns

PACKAGE = "padicover"

# (module, attribute path) of every traced boundary, grouped by layer
SPAN_TARGETS = (
    ("oracle", "run_oracle"),
    ("oracle", "separate_fibers"),
    ("oracle", "blow_up"),
    ("oracle", "assemble_model"),
    ("kpoly", "translate"),
    ("kpoly", "scale_arg"),
    ("kpoly", "primitive"),
    ("kpoly", "gcd_k"),
    ("kpoly", "divmod_k"),
    ("kpoly", "reduction"),
    ("kpoly", "eval_at"),
    ("kpoly", "from_roots"),
    ("newton", "newton_polygon"),
    ("newton", "positive_root_count"),
    ("fppoly", "rational_roots"),
    ("fppoly", "root_multiplicity"),
    ("fppoly", "gcd"),
    ("classifier", "admissible_partitions"),
    ("classifier", "classify_cover"),
    ("classifier", "classify_formula"),
    ("classifier", "assemble"),
    ("dualgraph", "DualGraphPair.is_isomorphic_to"),
    ("dualgraph", "DualGraphPair.validate"),
    ("cover", "cover_from_json"),
    ("cover", "from_critical_divisor"),
    ("cover", "branch_data"),
    ("branchtree", "build_branch_tree"),
    ("branchtree", "classify_points"),
)

# spans whose results are also counted: name -> total len() of the returns
COUNT_RESULTS = ("classifier.admissible_partitions",)

FIELD_TARGETS = (
    ("field", "Element.__mul__"),
    ("field", "Element.__add__"),
    ("field", "Element.__sub__"),
    ("field", "Element.inverse"),
    ("field", "Element.val"),
    ("field", "Element.residue"),
    ("field", "FieldContext.enlarged"),
    ("field", "FieldContext.uniformizer_power"),
)


def metric_name(module, path):
    """'field', 'Element.__mul__' -> 'field.Element.mul'."""
    *owner, fn = path.split(".")
    return ".".join([module, *owner, fn.strip("_")])


def _ours(module_name):
    return module_name == PACKAGE or module_name.startswith(PACKAGE + ".")


def _resolve(module, path):
    mod = sys.modules[f"{PACKAGE}.{module}"]
    if "." in path:
        cls_name, attr = path.split(".")
        owner = getattr(mod, cls_name)
        return owner, owner.__dict__[attr]
    return None, getattr(mod, path)


class Tracer:
    """Records spans and field-operation counts while installed."""

    def __init__(self):
        self.request = None
        self.spans = []  # every finished span, in finishing order
        self.field = {}  # name -> [calls, self_ns, raised]
        self.results = {name: 0 for name in COUNT_RESULTS}
        self._next_id = 1
        # frames: [field_ns, span_id]; span_id is None for a field operation
        self._stack = [[0, None]]
        self._patched = []  # (holder, attribute, original)

    # -- installing ---------------------------------------------------------

    def install(self):
        for module, path in SPAN_TARGETS:
            owner, fn = _resolve(module, path)
            self._rebind(owner, fn, self._span_wrapper(metric_name(module, path), fn))
        for module, path in FIELD_TARGETS:
            owner, fn = _resolve(module, path)
            name = metric_name(module, path)
            self.field[name] = [0, 0, 0]
            self._rebind(owner, fn, self._field_wrapper(self.field[name], fn))
        return self

    def uninstall(self):
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched = []

    def _rebind(self, owner, original, wrapper):
        holders = [mod for name, mod in sorted(sys.modules.items()) if _ours(name)]
        if owner is not None:
            holders.append(owner)
        hits = 0
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, wrapper)
                    self._patched.append((holder, attr, original))
                    hits += 1
        if not hits:
            raise RuntimeError(f"no binding of {original.__qualname__} found")

    def open_frames(self):
        """Spans and field operations entered and not yet left."""
        return len(self._stack) - 1

    def unpatched_bindings(self):
        """Bindings of traced originals that still point at the original."""
        originals = {id(orig) for _, _, orig in self._patched}
        left = []
        for name, mod in sorted(sys.modules.items()):
            if not _ours(name):
                continue
            holders = [mod] + [v for v in vars(mod).values() if isinstance(v, type)]
            for holder in holders:
                for attr, value in vars(holder).items():
                    if id(value) in originals:
                        left.append(f"{getattr(holder, '__name__', holder)}.{attr}")
        return left

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        stack = self._stack
        spans = self.spans
        results = self.results

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent_id = stack[-1][1]
            frame = [0, span_id]
            stack.append(frame)
            raised = None
            start = perf_counter_ns()
            try:
                value = fn(*args, **kwargs)
                if name in results:
                    results[name] += len(value)
                return value
            except BaseException as exc:
                raised = type(exc).__name__
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans.append(
                    (span_id, parent_id, self.request, name, start, end, frame[0], raised)
                )

        traced.__wrapped__ = fn
        return traced

    def _field_wrapper(self, stat, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [0, None]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat[2] += 1
                raise
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed - frame[0]
                stack[-1][0] += elapsed

        traced.__wrapped__ = fn
        return traced


def self_times(spans):
    """Self time of each span of one request's tree, in ns, keyed by span id.

    A span's self time is its duration minus the durations of its child spans
    and minus the field operations called directly from it.
    """
    child_ns = {}
    for span_id, parent_id, _, _, start, end, _, _ in spans:
        if parent_id is not None:
            child_ns[parent_id] = child_ns.get(parent_id, 0) + (end - start)
    return {
        span_id: (end - start) - child_ns.get(span_id, 0) - field_ns
        for span_id, _, _, _, start, end, field_ns, _ in spans
    }


def descendants(spans, root_id):
    """Ids of all spans below root_id in one request's tree."""
    children = {}
    for span_id, parent_id, *_ in spans:
        children.setdefault(parent_id, []).append(span_id)
    out, todo = [], list(children.get(root_id, ()))
    while todo:
        span_id = todo.pop()
        out.append(span_id)
        todo.extend(children.get(span_id, ()))
    return out
