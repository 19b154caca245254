"""Span and count tracing of the divischeck modules, applied from outside.

The tracer wraps public functions of the package for the length of one
traced invocation and restores the originals afterwards, so untraced
invocations run the package's own code unchanged.  A name bound into other
modules with ``from .x import y`` is replaced in every module that holds it,
not only in its home module; otherwise calls through such imports (for
example ``divisibility.tensor`` or ``infoflow.apply``) would go unseen.

Each wrapped call records a span: name, start, end and the span that was
open when it began.  The hot leaf ``superop.apply`` is wrapped as a count
only, added to every open span, so a positivity probe's span knows how many
objective evaluations ran beneath it.  Spans live in memory until the
invocation's metrics are taken.
"""
from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# Functions timed as spans, by home module and name.
SPANNED = [
    "divisibility.cp_divisibility_scan",
    "divisibility.tensor_p_divisibility_probe",
    "divisibility.first_order_witness",
    "divisibility.verify_witness",
    "generator.propagate",
    "generator.cp_divisibility_check",
    "generator.p_divisibility_check_pauli",
    "generator.liouvillian",
    "infoflow.backflow_scan",
    "linalg.inverse",
    "linalg.check_hermitian",
    "linalg.similarity_to_transpose",
    "pauli_family.channel",
    "pauli_family.pauli_weights",
    "pauli_family.bloch_eigenvalues",
    "superop.positivity_probe",
    "superop.tensor",
    "superop.choi",
    "superop.is_cp",
    "superop.intermediate",
]

# Hot leaves recorded as counts only.
COUNTED = ["superop.apply"]

# Closure returned by ``generator.liouvillian``; each call evaluates L(t).
L_EVAL = "generator.liouvillian.eval"


def _result_counts(name: str, result) -> dict:
    """Work done by one call, read from what it returned."""
    if name == "superop.positivity_probe":
        return {"restarts": result.restarts_used}
    if name == "infoflow.backflow_scan":
        return {"samples": int(result.sigma.size)}
    if name in ("divisibility.cp_divisibility_scan",
                "divisibility.tensor_p_divisibility_probe"):
        return {"pairs": result.pairs_scanned}
    return {}


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name: str, start: float, parent: "Span | None"):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counts: Counter = Counter()

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counts of one traced invocation."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.totals: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def open(self, name: str) -> Span:
        span = Span(name, time.perf_counter(), self.stack[-1] if self.stack else None)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()

    def count(self, name: str) -> None:
        self.totals[name] += 1
        for span in self.stack:
            span.counts[name] += 1

    def _spanned(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            span.counts.update(_result_counts(name, result))
            if name == "generator.liouvillian":
                return tracer._counted(L_EVAL, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        return wrapper

    # -- patching --------------------------------------------------------
    def install(self) -> None:
        """Wrap every planned function wherever the package binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "divischeck" or key.startswith("divischeck."))]
        plan = [(q, self._spanned) for q in SPANNED] + [(q, self._counted) for q in COUNTED]
        for qualname, make in plan:
            home, attr = qualname.split(".")
            fn = getattr(sys.modules[f"divischeck.{home}"], attr)
            wrapper = make(qualname, fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, fn))

    def uninstall(self) -> None:
        for module, key, fn in reversed(self._restore):
            setattr(module, key, fn)
        self._restore.clear()

    # -- per-invocation metrics -----------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded so far."""
        calls: Counter = Counter()
        busy: Counter = Counter()
        counts: defaultdict[str, Counter] = defaultdict(Counter)
        child_time: Counter = Counter()
        for span in self.spans:
            calls[span.name] += 1
            busy[span.name] += span.duration
            counts[span.name].update(span.counts)
            if span.parent is not None:
                child_time[id(span.parent)] += span.duration
        cli_self = sum(s.duration - child_time[id(s)] for s in self.spans if s.name == "cli.main")

        m: dict[str, float] = {"cli.self_s": cli_self}
        for name in SPANNED:
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.s"] = busy[name]
        for name in ("divisibility.cp_divisibility_scan",
                     "divisibility.tensor_p_divisibility_probe"):
            m[f"{name}.pairs"] = counts[name]["pairs"]

        probe = counts["superop.positivity_probe"]
        m["superop.positivity_probe.restarts"] = probe["restarts"]
        m["superop.positivity_probe.evals"] = probe["superop.apply"]
        m["superop.positivity_probe.s_per_eval"] = _ratio(
            busy["superop.positivity_probe"], probe["superop.apply"])
        m["superop.apply.calls"] = self.totals["superop.apply"]

        flow = counts["infoflow.backflow_scan"]
        m["infoflow.backflow_scan.samples"] = flow["samples"]
        m["infoflow.backflow_scan.s_per_sample"] = _ratio(
            busy["infoflow.backflow_scan"], flow["samples"])

        # Classical RK4 evaluates L at the start once and then at the
        # midpoint and right end of every step (the right end is reused as
        # the next step's start).
        l_evals = counts["generator.propagate"][L_EVAL]
        m["generator.propagate.rk4_steps"] = (l_evals - calls["generator.propagate"]) // 2
        return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
