"""Spans around the package's public functions, installed from outside.

Each function is wrapped where its caller looks it up (for example
`harness.sample_flight` and `stabilizer.dvhc_control`), so nothing under
src/ changes. A span's self time is its duration minus the time covered by
the spans it contains. Spans are kept as running totals in memory.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

from devilstick import cli, dvhc, dynamics, dzd, harness, model
from devilstick import stabilizer as stab

# (owner, attribute, span name): every binding a caller resolves at call time
SPANS = (
    (harness, "run_episode", "harness.run_episode"),
    (cli, "run_episode", "harness.run_episode"),
    (harness, "residuals", "dvhc.residuals"),
    (dvhc, "residuals", "dvhc.residuals"),
    (harness, "dvhc_control", "dvhc.dvhc_control"),
    (stab, "dvhc_control", "dvhc.dvhc_control"),
    (harness, "impulsive_update", "dynamics.impulsive_update"),
    (dynamics, "impulsive_update", "dynamics.impulsive_update"),
    (harness, "flight", "dynamics.flight"),
    (dynamics, "flight", "dynamics.flight"),
    (harness, "time_of_flight", "dynamics.time_of_flight"),
    (stab, "time_of_flight", "dynamics.time_of_flight"),
    (harness, "sample_flight", "dynamics.sample_flight"),
    (stab, "linearize", "stabilizer.linearize"),
    (stab, "controllability", "stabilizer.controllability"),
    (stab, "dlqr", "stabilizer.dlqr"),
    (stab, "feedback", "stabilizer.feedback"),
    (cli, "design_orbit", "dzd.design_orbit"),
    (dzd, "design_orbit", "dzd.design_orbit"),
    (cli, "load_scenario", "cli.load_scenario"),
    (cli, "cmd_simulate", "cli.cmd_simulate"),
)
# spans whose inner calls are not traced: sampling calls flight once per
# sample, and that cost belongs to sampling
OPAQUE = {"dynamics.sample_flight"}
# call counters without a span
COUNTED = (
    (stab, "poincare_map", "stabilizer.poincare_map"),
    (model.FullState, "__post_init__", "model.FullState"),
)


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []      # [name, child time, opaque]
        self._saved: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        opaque = name in OPAQUE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][2]:
                return fn(*args, **kwargs)
            frame = [name, 0.0, opaque]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
        return wrapper

    def _counter(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _hooked(self, name: str, fn):
        """Result-dependent counts, recorded inside the span."""
        counts, calls = self.counts, self.calls
        if name == "dynamics.sample_flight":
            def wrapper(*args, **kwargs):
                samples = fn(*args, **kwargs)
                counts["dynamics.sample_flight.samples"] += len(samples)
                return samples
        elif name == "stabilizer.linearize":
            def wrapper(*args, **kwargs):
                before = calls["stabilizer.poincare_map"]
                lin = fn(*args, **kwargs)
                counts[f"poincare_map.{lin.scheme}"] += (
                    calls["stabilizer.poincare_map"] - before)
                counts[f"linearize.{lin.scheme}"] += 1
                return lin
        elif name == "stabilizer.feedback":
            def wrapper(*args, **kwargs):
                u = fn(*args, **kwargs)
                counts["stabilizer.feedback.active"] += bool(u.any())
                return u
        else:
            return fn
        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        originals = [(owner, attr, getattr(owner, attr))
                     for owner, attr, _ in SPANS + COUNTED]
        for (owner, attr, name), (_, _, fn) in zip(SPANS, originals):
            setattr(owner, attr, self._span(name, self._hooked(name, fn)))
        for (owner, attr, name), (_, _, fn) in zip(COUNTED,
                                                   originals[len(SPANS):]):
            setattr(owner, attr, self._counter(name, fn))
        self._saved = originals

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
