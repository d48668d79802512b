"""Per-layer spans recorded from outside the package.

A ``Tracer`` wraps the public functions of every ``uschub`` module, and the
methods listed in ``TARGETS``, without touching ``src/``.  A function wrapper
replaces the original object in every ``uschub`` module that holds a
reference to it, so ``from .x import y`` copies are traced too (for example
``exactla.invert`` as seen by ``uring`` and ``schubert``).  A method wrapper
replaces the class attribute, including aliases such as
``Polynomial.__rmul__``.

Every call records one span: name, start, end, parent span and request id,
kept in compact arrays until the run ends.  Self time (duration minus the
time covered by child spans) and the per-layer counts are accumulated as the
calls return.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# (span name, module, attribute) -- a dotted attribute names a method.
TARGETS = (
    ("polyring.mul", "polyring", "Polynomial.__mul__"),
    ("polyring.substitute", "polyring", "Polynomial.substitute"),
    ("polyring.render", "polyring", "Polynomial.text"),
    ("polyring.render", "polyring", "Polynomial.latex"),
    ("polyring.render", "polyring", "Polynomial.to_json"),
    ("polyring.parse", "polyring", "parse_text"),
    ("permutations.all_perms", "permutations", "all_perms"),
    ("schubert.single", "schubert", "universal_single"),
    ("schubert.double", "schubert", "universal_double"),
    ("schubert.cy", "schubert", "universal_cy"),
    ("schubert.expand", "schubert", "schubert_expand_M"),
    ("specialize.c_from_g", "specialize", "c_from_g"),
    ("specialize.to_g_form", "specialize", "to_g_form"),
    ("specialize.quantum", "specialize", "quantum_specialize"),
    ("specialize.flag", "specialize", "partial_flag_specialize"),
    ("specialize.classical", "specialize", "classical_specialize"),
    ("formulas.det19", "formulas", "det19_search"),
    ("formulas.determinant", "formulas", "DetSpec.determinant"),
    ("formulas.product_rule", "formulas", "product_rule"),
    ("formulas.locus", "formulas", "locus_formula"),
    ("formulas.rewrite", "formulas", "rewrite_no_squares"),
    ("uring.ring_init", "uring", "UniversalRing.__init__"),
    ("uring.schubert", "uring", "UniversalRing.schubert"),
    ("uring.normal_form", "uring", "UniversalRing.normal_form"),
    ("uring.multiply", "uring", "UniversalRing.multiply"),
    ("uring.inner_product", "uring", "UniversalRing.inner_product"),
    ("uring.basis_expand", "uring", "UniversalRing.schubert_basis_expand"),
    ("uring.omega", "uring", "UniversalRing.omega"),
    ("exactla.invert", "exactla", "invert"),
)

TRACE_PREFIX = "#bench-trace "  # marks the aggregate line a traced cli child writes to stderr
GENERATORS = frozenset({"permutations.all_perms"})
MAX_COUNTERS = frozenset({"polyring.max_terms", "exactla.invert_max_dim"})

# Per-layer metrics the tracer itself produces: metric -> (kind, span or counter).
SPAN_METRICS = {
    "polyring.mul_calls": ("calls", "polyring.mul"),
    "polyring.mul_term_pairs": ("counter", "polyring.mul_term_pairs"),
    "polyring.mul_s": ("self", "polyring.mul"),
    "polyring.substitute_calls": ("calls", "polyring.substitute"),
    "polyring.substitute_s": ("self", "polyring.substitute"),
    "polyring.render_s": ("self", "polyring.render"),
    "polyring.parse_s": ("self", "polyring.parse"),
    "polyring.max_terms": ("counter", "polyring.max_terms"),
    "permutations.all_perms_s": ("self", "permutations.all_perms"),
    "schubert.single_calls": ("calls", "schubert.single"),
    "schubert.single_s": ("self", "schubert.single"),
    "schubert.double_s": ("self", "schubert.double"),
    "schubert.cy_s": ("self", "schubert.cy"),
    "schubert.expand_s": ("self", "schubert.expand"),
    "specialize.c_from_g_s": ("self", "specialize.c_from_g"),
    "specialize.to_g_form_calls": ("calls", "specialize.to_g_form"),
    "specialize.to_g_form_s": ("self", "specialize.to_g_form"),
    "specialize.quantum_s": ("self", "specialize.quantum"),
    "specialize.flag_s": ("self", "specialize.flag"),
    "specialize.classical_s": ("self", "specialize.classical"),
    "formulas.det19_s": ("self", "formulas.det19"),
    "formulas.determinants": ("calls", "formulas.determinant"),
    "formulas.product_rule_s": ("self", "formulas.product_rule"),
    "formulas.locus_s": ("self", "formulas.locus"),
    "formulas.rewrite_s": ("self", "formulas.rewrite"),
    "uring.ring_init_s": ("self", "uring.ring_init"),
    "uring.schubert_s": ("self", "uring.schubert"),
    "uring.normal_form_s": ("self", "uring.normal_form"),
    "uring.multiply_s": ("self", "uring.multiply"),
    "uring.inner_product_s": ("self", "uring.inner_product"),
    "uring.basis_expand_s": ("self", "uring.basis_expand"),
    "uring.omega_s": ("self", "uring.omega"),
    "exactla.invert_calls": ("calls", "exactla.invert"),
    "exactla.invert_s": ("self", "exactla.invert"),
    "exactla.invert_max_dim": ("counter", "exactla.invert_max_dim"),
}


def _resolve(module, attribute: str):
    """(owner, original object) for a function or a method."""
    if "." in attribute:
        cls_name, meth = attribute.split(".")
        owner = getattr(module, cls_name)
        return owner, owner.__dict__[meth]
    return module, getattr(module, attribute)


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.request = -1
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters = {
            "polyring.mul_term_pairs": 0,
            "polyring.max_terms": 0,
            "schubert.single_hits": 0,
            "exactla.invert_max_dim": 0,
        }
        self.missing: list[str] = []
        self._single_keys: set = set()
        self._ids: dict[str, int] = {}
        self._stack: list[list] = []  # open spans: [span id, child seconds]
        self._undo: list[tuple] = []

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every loaded ``uschub`` module."""
        import uschub.cli  # noqa: F401  (loads every module the targets live in)
        from uschub.polyring import Polynomial

        self._poly_type = Polynomial
        modules = [m for k, m in sorted(sys.modules.items()) if k == "uschub" or k.startswith("uschub.")]
        for span, mod_name, attribute in TARGETS:
            try:
                owner, original = _resolve(sys.modules["uschub." + mod_name], attribute)
            except (KeyError, AttributeError):
                self.missing.append(f"{mod_name}.{attribute}")  # gone from the package: reports 0
                continue
            if span in GENERATORS:
                wrapper = self._wrap_generator(span, original)
            else:
                wrapper = self._wrap(span, original, self._extra(span))
            if isinstance(owner, type):
                for alias, value in list(owner.__dict__.items()):
                    if value is original:
                        self._undo.append((owner, alias, value))
                        setattr(owner, alias, wrapper)
            else:
                for module in modules:
                    for alias, value in list(vars(module).items()):
                        if value is original:
                            self._undo.append((module, alias, value))
                            setattr(module, alias, wrapper)

    def uninstall(self) -> None:
        for owner, alias, value in reversed(self._undo):
            setattr(owner, alias, value)
        self._undo.clear()

    def _extra(self, span: str):
        counters = self.counters
        if span == "polyring.mul":
            poly = self._poly_type

            def mul_pairs(args, kwargs):
                a, b = args
                counters["polyring.mul_term_pairs"] += len(a) * (len(b) if type(b) is poly else 1)
            return mul_pairs
        if span == "schubert.single":
            seen = self._single_keys

            def single_hit(args, kwargs):
                # the package's cache key: (word, n), n defaulting to the word's size - 1
                w = args[0]
                n = args[1] if len(args) > 1 else kwargs.get("n")
                key = (w.word, max(w.size - 1, 1) if n is None else n)
                counters["schubert.single_hits"] += key in seen
                seen.add(key)
            return single_hit
        if span == "exactla.invert":
            def invert_dim(args, kwargs):
                counters["exactla.invert_max_dim"] = max(counters["exactla.invert_max_dim"], len(args[0]))
            return invert_dim
        return None

    def _begin(self, span: str) -> list:
        """Record a new span's name, parent and request; returns [span id, child seconds]."""
        nid = self._ids.get(span)
        if nid is None:
            nid = self._ids[span] = len(self.names)
            self.names.append(span)
            self.self_s[span] = 0.0
            self.calls[span] = 0
        sid = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_request.append(self.request)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        return [sid, 0.0]

    def _end(self, span: str, frame: list, start: float, duration: float, credit_parent: bool = True) -> None:
        self.span_start[frame[0]] = start
        self.span_end[frame[0]] = start + duration
        self.self_s[span] += duration - frame[1]
        self.calls[span] += 1
        if credit_parent and self._stack:
            self._stack[-1][1] += duration

    def _wrap(self, span: str, fn, extra):
        begin, end, stack = self._begin, self._end, self._stack
        counters, poly = self.counters, self._poly_type

        def wrapper(*args, **kwargs):
            frame = begin(span)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                end(span, frame, t0, t1 - t0)
            if extra is not None:
                extra(args, kwargs)
            if type(result) is poly and len(result) > counters["polyring.max_terms"]:
                counters["polyring.max_terms"] = len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, span: str, fn):
        """One span per generator; its duration is the time spent inside next()."""
        begin, end, stack = self._begin, self._end, self._stack

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            frame = begin(span)
            start = perf_counter()
            busy = 0.0
            try:
                while True:
                    stack.append(frame)
                    t0 = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        dt = perf_counter() - t0
                        busy += dt
                        stack.pop()
                        if stack:
                            stack[-1][1] += dt
                    yield item
            finally:
                # each next() was already credited to the span that consumed it
                end(span, frame, start, busy, credit_parent=False)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ------------------------------------------------------------------

    def aggregate(self) -> dict:
        """Self seconds, call counts and counters, in a form ``merge`` can add up."""
        return {"self_s": dict(self.self_s), "calls": dict(self.calls), "counters": dict(self.counters)}

    def merge(self, other: dict) -> None:
        """Fold in the aggregate of another process (a traced ``cli`` child)."""
        for span, seconds in other["self_s"].items():
            self.self_s[span] = self.self_s.get(span, 0.0) + seconds
        for span, count in other["calls"].items():
            self.calls[span] = self.calls.get(span, 0) + count
        for key, value in other["counters"].items():
            if key in MAX_COUNTERS:
                self.counters[key] = max(self.counters[key], value)
            else:
                self.counters[key] += value

    def layer_metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for metric, (kind, key) in SPAN_METRICS.items():
            if kind == "self":
                out[metric] = self.self_s.get(key, 0.0)
            elif kind == "calls":
                out[metric] = self.calls.get(key, 0)
            else:
                out[metric] = self.counters[key]
        calls = self.calls.get("schubert.single", 0)
        out["schubert.single_hit_ratio"] = self.counters["schubert.single_hits"] / calls if calls else 0.0
        return out

    def self_shares(self) -> dict[str, float]:
        """Each span's share of the self time of all spans, largest first."""
        total = sum(self.self_s.values())
        ranked = sorted(self.self_s.items(), key=lambda kv: -kv[1])
        return {span: seconds / total for span, seconds in ranked} if total else {}

    def write(self, path_prefix: str) -> None:
        """Spans as raw arrays (<prefix>.spans) plus a JSON index (<prefix>.json)."""
        with open(path_prefix + ".spans", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_request, self.span_start, self.span_end):
                arr.tofile(fh)
        with open(path_prefix + ".json", "w") as fh:
            json.dump({
                "names": self.names,
                "count": len(self.span_start),
                "layout": "int32 name[count], int32 parent[count], int32 request[count], "
                          "float64 start[count], float64 end[count]; parent -1 is a root span",
                "aggregate": self.aggregate(),
                "missing": self.missing,
            }, fh, indent=1)
