"""Spans around the benchmark's calls into the fracdamp layers.

A traced pass installs thin wrappers on the names the CLI and the resolvent
module look up at call time (``fracdamp.cli.simulate``,
``fracdamp.resolvent.resolvent_norm``, ...), records one span per call, and
restores the originals afterwards.  Nothing under ``src/`` is edited; the
untimed (untraced) passes run the program exactly as shipped.

Resolvent solves are counted through ``CountingOperator``: the operator the
CLI assembles is handed on wrapped in a proxy that implements the duck-typed
``shifted_system(lam)`` protocol (the one ``DiagonalOperator`` uses) and
delegates to the real factorized system, timing the factorization and every
``solve`` / ``solve_adjoint``.
"""

from __future__ import annotations

import contextlib
import functools
import math
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import List, Optional

import fracdamp.bessel
import fracdamp.cli
import fracdamp.resolvent


@dataclass
class Span:
    """One call into a layer: [start, end] on the perf_counter clock."""

    id: int
    parent: Optional[int]
    trace: int  # the benchmark operation (CLI or public call) that caused it
    name: str
    start: float
    end: float = math.nan

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; spans nest by call order on one thread."""

    def __init__(self):
        self.spans: List[Span] = []
        self.trace = 0
        self._stack: List[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span (the hot path: no generator)."""
        s = Span(len(self.spans), self._stack[-1] if self._stack else None, self.trace,
                 name, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            return fn(*args, **kwargs)
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced


def self_time(span: Span, children: List[Span]) -> float:
    """Duration of `span` minus the part of its interval `children` cover."""
    covered = 0.0
    reach = span.start
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, reach), min(c.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.duration - covered


def nesting_errors(spans: List[Span]) -> List[str]:
    """Children that leave their parent's interval or trace."""
    out = []
    for s in spans:
        if s.parent is None:
            continue
        p = spans[s.parent]
        if not (p.start <= s.start <= s.end <= p.end) or p.trace != s.trace:
            out.append(f"span {s.name}#{s.id} escapes parent {p.name}#{p.id}")
    return out


class _CountingSystem:
    def __init__(self, system, tracer: Tracer):
        self._system = system
        self._tracer = tracer
        self.weights = system.weights

    def solve(self, f):
        return self._tracer.call("resolvent.solve", self._system.solve, f)

    def solve_adjoint(self, f):
        return self._tracer.call("resolvent.solve", self._system.solve_adjoint, f)


class CountingOperator:
    """Proxy for an assembled operator that times and counts shifted solves.

    Every attribute other than ``shifted_system`` is the real operator's, so
    the time march, state preparation and direct solves see the same arrays.
    """

    def __init__(self, op, tracer: Tracer):
        self._op = op
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._op, name)

    def shifted_system(self, lam: float):
        system = self._tracer.call("resolvent.factor", fracdamp.resolvent._shifted_system,
                                   self._op, lam)
        return _CountingSystem(system, self._tracer)


# (module, attribute, span name).  The CLI binds these names at import, so
# they are patched where the CLI looks them up; ``resolvent_norm`` is looked
# up in its own module by ``scan_resolvent`` and ``smallest_singular_value``.
_PATCHES = [
    (fracdamp.cli, "build_x_grid", "operator.build_x_grid"),
    (fracdamp.cli, "build_xi_quadrature", "diffusive.build_xi_quadrature"),
    (fracdamp.cli, "prepare_initial_state", "evolution.prepare_initial_state"),
    (fracdamp.cli, "simulate", "evolution.simulate"),
    (fracdamp.cli, "fit_decay_exponent", "evolution.fit_decay_exponent"),
    (fracdamp.cli, "scan_resolvent", "resolvent.scan_resolvent"),
    (fracdamp.cli, "kernel_check", "diffusive.kernel_check"),
    (fracdamp.cli, "forcing_integral", "resolvent.forcing_integral"),
    (fracdamp.cli, "solve_resolvent", "resolvent.solve_resolvent"),
    (fracdamp.resolvent, "resolvent_norm", "resolvent.resolvent_norm"),
    (fracdamp.bessel, "analytic_resolvent_P", "bessel.analytic_resolvent_P"),
]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route the CLI's layer calls through `tracer` for the duration."""
    saved = []
    try:
        for module, attr, name in _PATCHES:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, tracer.wrap(name, getattr(module, attr)))
        assemble = fracdamp.cli.assemble_operator
        saved.append((fracdamp.cli, "assemble_operator", assemble))

        def assemble_counting(*args, **kwargs):
            op = tracer.call("operator.assemble_operator", assemble, *args, **kwargs)
            return CountingOperator(op, tracer)

        fracdamp.cli.assemble_operator = assemble_counting
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(spans: List[Span], march_steps: int) -> dict:
    """Per-layer numbers of one traced pass (seconds unless named otherwise)."""

    by_name, children = defaultdict(list), defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        children[s.parent].append(s)

    def named(name):
        return by_name.get(name, [])

    def total(*names):
        return sum(s.duration for n in names for s in named(n))

    def self_total(name):
        return sum(self_time(s, children[s.id]) for s in named(name))

    shifts = named("resolvent.resolvent_norm")
    march = total("evolution.simulate")
    return {
        "operator.build_s": total(
            "operator.build_x_grid", "diffusive.build_xi_quadrature",
            "operator.assemble_operator",
        ),
        "evolution.march_s": march,
        "evolution.step_us": 1e6 * march / march_steps if march_steps else 0.0,
        "evolution.prepare_s": total("evolution.prepare_initial_state"),
        "evolution.fit_s": total("evolution.fit_decay_exponent"),
        "resolvent.scan_s": total("resolvent.scan_resolvent"),
        "resolvent.shift_s": (
            statistics.median(s.duration for s in shifts) if shifts else 0.0
        ),
        "resolvent.solves_per_shift": (
            len(named("resolvent.solve")) / len(shifts) if shifts else 0.0
        ),
        "resolvent.factor_s": total("resolvent.factor"),
        "resolvent.solve_s": total("resolvent.solve"),
        "resolvent.lanczos_other_s": self_total("resolvent.resolvent_norm"),
        "resolvent.fit_s": self_total("resolvent.scan_resolvent"),
        "resolvent.direct_solve_s": total(
            "resolvent.solve_resolvent", "resolvent.forcing_integral"
        ),
        "bessel.oracle_s": total("bessel.analytic_resolvent_P"),
        "diffusive.kernel_check_s": total("diffusive.kernel_check"),
        "diffusive.psi_march_s": total("diffusive.evolve_psi_forced"),
        "diffusive.frac_conv_s": total("diffusive.direct_fractional_integral"),
        "cli.io_s": self_total("cli.main"),
    }
