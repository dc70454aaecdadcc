"""In-process spans and counters around the public entry points of minksurf.

Nothing under ``src/`` is edited: the wrappers replace names in the module
namespace where the caller looks them up (``exporters.point_data``,
``verify.parabolic_closed_forms``, ...), and :func:`installed` puts the
originals back.  Spans are kept in memory as ``(name, start, end, parent)``
tuples; a layer's self time is the duration of its spans minus the time
covered by the spans nested directly inside them.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.reports = None     # what the claim suite returned, if it ran
        self._stack: list[int] = []

    def span(self, name: str, fn):
        """``fn`` wrapped so that every call records one span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
        return wrapper

    def counted(self, name: str, fn):
        """``fn`` wrapped so that every call increments a counter."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def returns_spanned(self, name: str, factory):
        """``factory`` wrapped so that the callable it returns is spanned."""
        def wrapper(*args, **kwargs):
            return self.span(name, factory(*args, **kwargs))
        return wrapper

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[i]
        return out


@contextmanager
def installed(replacements):
    """Set ``obj.attr = new`` for each (obj, attr, new); restore on exit."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in replacements]
    try:
        for obj, attr, new in replacements:
            setattr(obj, attr, new)
        yield
    finally:
        for obj, attr, old in reversed(saved):
            setattr(obj, attr, old)


def certificate_names(verify) -> list[str]:
    """The certificate functions the claim suite calls: verify.verify_*."""
    return sorted(name for name, fn in vars(verify).items()
                  if name.startswith("verify_") and inspect.isfunction(fn)
                  and fn.__module__ == verify.__name__)


def layer_wrappers(tracer: Tracer) -> list:
    """The (namespace, name, wrapper) triples of the traced pass."""
    from minksurf import cli, exporters, meridian, surface, verify
    t = tracer
    out = []

    def span_in(name, *namespaces, attr):
        for ns in namespaces:
            out.append((ns, attr, t.span(name, getattr(ns, attr))))

    original_parser, original_suite = cli.build_parser, cli.claim_suite

    def traced_parser(*args, **kwargs):
        parser = t.span("cli.parse", original_parser)(*args, **kwargs)
        parser.parse_args = t.span("cli.parse", parser.parse_args)
        return parser

    def captured_suite(*args, **kwargs):
        t.reports = original_suite(*args, **kwargs)
        return t.reports

    out.append((cli, "build_parser", traced_parser))
    out.append((cli, "claim_suite", captured_suite))
    span_in("meridian.build_parabolic", cli, verify, meridian,
            attr="build_parabolic")
    span_in("surface.point_data", exporters, verify, attr="point_data")
    span_in("surface.jet_eval_surface", surface, exporters, verify,
            attr="jet_eval_surface")
    span_in("meridian.closed_forms", verify, attr="parabolic_closed_forms")
    for attr in ("export_grid_csv", "export_positions_csv", "export_obj"):
        span_in("exporters.export", exporters, attr=attr)
    for attr in certificate_names(verify):
        span_in("verify.certificate", verify, attr=attr)
    out.append((meridian, "parabolic_normal_frame",
                t.returns_spanned("meridian.frame",
                                  meridian.parabolic_normal_frame)))
    out.append((cli, "compile_profile",
                t.returns_spanned("expr.profile", cli.compile_profile)))
    for ns, attrs in ((meridian, ("profile_u", "profile_v")),
                      (verify, ("profile_u", "profile_v")),
                      (cli, ("profile_v",))):
        for attr in attrs:
            out.append((ns, attr, t.counted("meridian.profile_eval",
                                            getattr(ns, attr))))
    return out


def construction_counters(tracer: Tracer) -> list:
    """Count ``Jet2`` and ``Vec4M`` constructions.

    Too hot to time under, so these run in a pass of their own.
    """
    from minksurf.jets import Jet2
    from minksurf.minkowski import Vec4M
    return [(Jet2, "__init__", tracer.counted("jets.Jet2", Jet2.__init__)),
            (Vec4M, "__init__", tracer.counted("minkowski.Vec4M",
                                               Vec4M.__init__))]


def layer_metrics(tracer: Tracer, points: int, bytes_written: int,
                  claims: tuple[str, ...]) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    s = tracer.summary()

    def get(name, key):
        return s[name][key] if name in s else 0

    metrics = {
        "cli.parse_s": get("cli.parse", "total_s"),
        "meridian.build_parabolic.s": get("meridian.build_parabolic",
                                          "total_s"),
        "surface.point_data.calls": get("surface.point_data", "calls"),
        "surface.point_data.self_s": get("surface.point_data", "self_s"),
        "surface.jet_eval_surface.calls_per_point":
            get("surface.jet_eval_surface", "calls") / points,
        "surface.jet_eval_surface.self_s": get("surface.jet_eval_surface",
                                               "self_s"),
        "meridian.frame.calls": get("meridian.frame", "calls"),
        "meridian.frame.self_s": get("meridian.frame", "self_s"),
        "meridian.closed_forms.calls": get("meridian.closed_forms", "calls"),
        "meridian.closed_forms.self_s": get("meridian.closed_forms", "self_s"),
        "meridian.profile_evals_per_point":
            tracer.counts["meridian.profile_eval"] / points,
        "expr.profile_calls": get("expr.profile", "calls"),
        "expr.profile_self_s": get("expr.profile", "self_s"),
        "exporters.self_s": get("exporters.export", "self_s"),
        "exporters.bytes_written": bytes_written,
    }
    # The i-th certificate call produced the i-th report of the suite.
    # When spans and reports cannot be paired that way, the claims are
    # left out, and a run that misses a declared metric is not correct.
    certs = [end - start for name, start, end, _ in tracer.spans
             if name == "verify.certificate"]
    reports = tracer.reports or []
    if not certs and not reports:
        by_claim = dict.fromkeys(claims, 0.0)   # the suite did not run
    elif len(certs) == len(reports):
        by_claim = {r.claim_id: d for r, d in zip(reports, certs)}
    else:
        by_claim = {}
    for claim in claims:
        if claim in by_claim:
            metrics[f"verify.{claim}.s"] = by_claim[claim]
    metrics["verify.claims_passed"] = sum(r.passed for r in reports)
    return metrics
