"""Per-layer tracing of ``minkdev`` from outside the library.

``Tracer.install`` wraps each layer's public functions for the duration of
one traced pass and ``uninstall`` puts the originals back; nothing under
``src/`` changes.  Wrapped functions are replaced in every ``minkdev``
module that imported them, so calls made through ``from .x import f``
names are seen too.

Layers and what is wrapped:

* ``cli``        ``cli.main``
* ``market``     ``market.space_from_json``, ``market.positions_from_json``
* ``deviations`` ``DeviationFunctional.eval``, keyed by catalogue measure
* ``sets``       the membership oracle of every set built by a ``sets``
                 constructor or ``Polytope.as_acceptance_set``, keyed by kind
* ``gauge``      ``gauge.minkowski_gauge``
* ``duality``    ``dual_representation_check``, ``bipolar_check``,
                 ``support_function``, ``polar``; ``Polytope.contains`` is
                 counted but not timed
* ``lp``         ``lp.solve_lp``

Each wrapped call is a span.  Spans of the coarse layers (all but ``sets``
and ``deviations``) are kept as ``(name, start, end, parent, request)``
rows; membership and measure spans run millions of times per pass, so they
are folded into per-key totals instead of stored.  A span's self time is
its duration minus the time of the spans it directly contains.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import Counter, defaultdict

SET_KINDS = ("sublevel", "ball", "halfspaces", "scale", "combine", "add_constants",
             "star_hull", "law_invariant_hull", "polytope")
MEASURES = ("variance", "std_dev", "lower_semidev", "lr", "ur", "frd", "esd")

_CONSTRUCTORS = {
    "sublevel_set": "sublevel",
    "ball_set": "ball",
    "scale_set": "scale",
    "combine": "combine",
    "add_constants": "add_constants",
    "star_hull": "star_hull",
    "law_invariant_hull": "law_invariant_hull",
}


def per_layer_names() -> list[tuple[str, str]]:
    """``(metric, unit)`` of every per-layer metric, in report order."""
    names = [("cli.calls", "count"), ("cli.self_s", "s"), ("cli.us_per_call", "us"),
             ("market.calls", "count"), ("market.self_s", "s"),
             ("deviations.calls", "count"), ("deviations.self_s", "s")]
    names += [(f"deviations.{m}.ns_per_eval", "ns") for m in MEASURES]
    names += [("sets.calls", "count"), ("sets.self_s", "s"), ("sets.fanout", "calls/call"),
              ("sets.hit_ratio", "ratio")]
    for kind in SET_KINDS:
        names += [(f"sets.{kind}.calls", "count"), (f"sets.{kind}.us_per_call", "us")]
    names += [("gauge.solves", "count"), ("gauge.self_s", "s"), ("gauge.us_per_solve", "us"),
              ("gauge.oracle_calls_per_solve", "calls/solve"), ("gauge.approximate", "count"),
              ("gauge.budget_errors", "count"),
              ("duality.calls", "count"), ("duality.self_s", "s"),
              ("duality.support_calls", "count"), ("duality.contains_calls", "count"),
              ("lp.solves", "count"), ("lp.self_s", "s"), ("lp.us_per_solve", "us"),
              ("lp.pivots_per_solve", "pivots/solve"), ("lp.unbounded", "count"),
              ("lp.infeasible", "count"),
              ("trace.overhead", "ratio")]
    return names


class Tracer:
    """Span and counter recorder for one traced pass."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[list[float]] = []   # child seconds of each open span
        self._open: list[int] = []            # indices of open stored spans
        self._set_depth = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, key: str, fn, on_result=None, on_error=None):
        clock = time.perf_counter
        stack, open_spans, spans = self._stack, self._open, self.spans
        self_s, total_s, calls = self.self_s, self.total_s, self.calls

        def traced(*args, **kwargs):
            row = [key, 0.0, 0.0, open_spans[-1] if open_spans else -1, self.request]
            open_spans.append(len(spans))
            spans.append(row)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                end = clock()
                duration = end - start
                stack.pop()
                open_spans.pop()
                if stack:
                    stack[-1][0] += duration
                self_s[key] += duration - frame[0]
                total_s[key] += duration
                calls[key] += 1
                row[1], row[2] = start, end
            if on_result is not None:
                on_result(result)
            return result
        return traced

    def _folded(self, fn, key_of):
        """Timed wrapper whose spans are summed per key, not stored."""
        clock = time.perf_counter
        stack, self_s, calls = self._stack, self.self_s, self.calls

        def traced(*args):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                key = key_of(args)
                self_s[key] += duration - frame[0]
                calls[key] += 1
        return traced

    def _membership(self, kind: str, fn):
        key = f"sets.{kind}"
        timed = self._folded(fn, lambda args: key)
        counts = self.counts

        def member(x):
            depth = self._set_depth
            self._set_depth = depth + 1
            try:
                hit = timed(x)
            finally:
                self._set_depth = depth
            if depth == 0:
                counts["sets.top_calls"] += 1
                counts["sets.top_hits"] += bool(hit)
            return hit
        return member

    def _tagged(self, kind_of, ctor):
        def build(*args, **kwargs):
            A = ctor(*args, **kwargs)
            return dataclasses.replace(A, membership=self._membership(kind_of(args), A.membership))
        return build

    def _on_gauge(self, result) -> None:
        self.counts["gauge.oracle_calls"] += result.oracle_calls
        self.counts["gauge.approximate"] += bool(result.approximate)

    def _on_lp(self, outcome) -> None:
        self.counts["lp.pivots"] += outcome.iterations
        self.counts[f"lp.{outcome.status}"] += 1

    # -- install / uninstall ------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        """Point every ``minkdev`` module name bound to ``original`` at ``wrapper``."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "minkdev" or name.startswith("minkdev.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _replace_method(self, cls, attr: str, wrapper) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        from minkdev import cli, deviations, duality, gauge, lp, market, sets

        self._replace(cli.main, self._span("cli.main", cli.main))
        for fn in (market.space_from_json, market.positions_from_json):
            self._replace(fn, self._span(f"market.{fn.__name__}", fn))
        self._replace(gauge.minkowski_gauge,
                      self._span("gauge.minkowski_gauge", gauge.minkowski_gauge, self._on_gauge,
                                 self._on_gauge_error))
        for fn in (duality.dual_representation_check, duality.bipolar_check,
                   duality.support_function, duality.polar):
            self._replace(fn, self._span(f"duality.{fn.__name__}", fn))
        self._replace(lp.solve_lp, self._span("lp.solve_lp", lp.solve_lp, self._on_lp))
        for name, kind in _CONSTRUCTORS.items():
            fn = getattr(sets, name)
            self._replace(fn, self._tagged(lambda args, kind=kind: kind, fn))

        as_set = duality.Polytope.as_acceptance_set
        self._replace_method(duality.Polytope, "as_acceptance_set", self._tagged(
            lambda args: "halfspaces" if args[0].rows is not None else "polytope", as_set))
        contains = duality.Polytope.contains
        counts = self.counts

        def counted_contains(*args, **kwargs):
            counts["duality.contains"] += 1
            return contains(*args, **kwargs)
        self._replace_method(duality.Polytope, "contains", counted_contains)

        self._replace_method(deviations.DeviationFunctional, "eval", self._folded(
            deviations.DeviationFunctional.eval,
            lambda args: "deviations." + args[0].label.split("(")[0]))

    def _on_gauge_error(self, exc: Exception) -> None:
        from minkdev.gauge import OracleBudgetError

        if isinstance(exc, OracleBudgetError):
            self.counts["gauge.budget_errors"] += 1

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """Every deterministic count of the pass (calls and library counters)."""
        out = {f"calls.{k}": v for k, v in self.calls.items()}
        out.update(self.counts)
        return dict(sorted(out.items()))

    def _layer(self, layer: str, table) -> float:
        return sum(v for k, v in table.items() if k.split(".")[0] == layer)

    def metrics(self, overhead: float) -> dict[str, float]:
        calls, self_s, counts = self.calls, self.self_s, self.counts

        def ratio(num: float, den: float, scale: float = 1.0) -> float:
            return scale * num / den if den else 0.0

        m = {}
        for layer in ("cli", "market", "deviations", "sets", "duality"):
            m[f"{layer}.calls"] = self._layer(layer, calls)
            m[f"{layer}.self_s"] = self._layer(layer, self_s)
        m["cli.us_per_call"] = ratio(m["cli.self_s"], m["cli.calls"], 1e6)
        for name in MEASURES:
            key = f"deviations.{name}"
            m[f"{key}.ns_per_eval"] = ratio(self_s[key], calls[key], 1e9)
        top = counts["sets.top_calls"]
        m["sets.fanout"] = ratio(m["sets.calls"] - top, top)
        m["sets.hit_ratio"] = ratio(counts["sets.top_hits"], top)
        for kind in SET_KINDS:
            key = f"sets.{kind}"
            m[f"{key}.calls"] = calls[key]
            m[f"{key}.us_per_call"] = ratio(self_s[key], calls[key], 1e6)
        solves = calls["gauge.minkowski_gauge"]
        m["gauge.solves"] = solves
        m["gauge.self_s"] = self_s["gauge.minkowski_gauge"]
        m["gauge.us_per_solve"] = ratio(self.total_s["gauge.minkowski_gauge"], solves, 1e6)
        m["gauge.oracle_calls_per_solve"] = ratio(counts["gauge.oracle_calls"], solves)
        m["gauge.approximate"] = counts["gauge.approximate"]
        m["gauge.budget_errors"] = counts["gauge.budget_errors"]
        m["duality.support_calls"] = calls["duality.support_function"]
        m["duality.contains_calls"] = counts["duality.contains"]
        lp_solves = calls["lp.solve_lp"]
        m["lp.solves"] = lp_solves
        m["lp.self_s"] = self_s["lp.solve_lp"]
        m["lp.us_per_solve"] = ratio(self.total_s["lp.solve_lp"], lp_solves, 1e6)
        m["lp.pivots_per_solve"] = ratio(counts["lp.pivots"], lp_solves)
        m["lp.unbounded"] = counts["lp.unbounded"]
        m["lp.infeasible"] = counts["lp.infeasible"]
        m["trace.overhead"] = overhead
        return m
