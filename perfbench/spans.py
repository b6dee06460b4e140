"""In-memory span recorder and the per-layer summary computed from its spans.

A span is a list ``[name, start, end, parent, extra, excluded]``: ``parent``
is the index of the enclosing span (-1 at top level), ``extra`` a small dict
filled after the call (bytes written, projection iterations, ...) and
``excluded`` the seconds the recorder itself spent inside the span computing
such extras, which self times leave out.  Spans stay in memory until the run
ends; nothing is written while the program steps.
"""

from __future__ import annotations

import statistics
import time
from functools import wraps

clock = time.monotonic

NAME, START, END, PARENT, EXTRA, EXCLUDED = range(6)

STEP = "stepper.step"
FFT_PREFIX = "fft."


class Tracer:
    """Records nested spans of one process, kept on an explicit stack."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, clock(), None, parent, None, 0.0])
        self._stack.append(len(self.spans) - 1)

    def end(self) -> list:
        span = self.spans[self._stack.pop()]
        span[END] = clock()
        return span

    def drop(self) -> None:
        """Discard the innermost open span; it must have no children."""
        index = self._stack.pop()
        if index != len(self.spans) - 1:
            raise RuntimeError("dropped span has children")
        self.spans.pop()

    def wrap(self, name: str, fn, extra=None):
        """Wrap fn in a span; extra(args, kwargs, result) -> dict is run after
        the span closes and its cost is excluded from the parent's self time."""

        @wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.end()
            if extra is not None:
                t0 = clock()
                span[EXTRA] = extra(args, kwargs, result)
                if self._stack:
                    self.spans[self._stack[-1]][EXCLUDED] += clock() - t0
            return result

        return traced


def _step_owner(spans: list[list]) -> list[int]:
    """Index of the enclosing step span of every span, or -1."""
    owner = [-1] * len(spans)
    for i, span in enumerate(spans):
        parent = span[PARENT]
        if parent >= 0:
            owner[i] = parent if spans[parent][NAME] == STEP else owner[parent]
    return owner


def check_nesting(spans: list[list]) -> list[str]:
    """Problems with the span tree: children must lie inside their parents."""
    problems = []
    for i, span in enumerate(spans):
        if span[END] is None or span[END] < span[START]:
            problems.append(f"span {i} {span[NAME]} is not closed")
            continue
        parent = span[PARENT]
        if parent >= 0:
            p = spans[parent]
            if parent >= i or not p[START] <= span[START] <= span[END] <= p[END]:
                problems.append(f"span {i} {span[NAME]} is not inside its parent {p[NAME]}")
    return problems


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced call.

    Per-step figures count only spans inside a step span, so work done
    before the first step (energy of the initial field, say) is left out and
    counts such as transforms per step are exact.  Per-call figures (``.ms``,
    ``.bytes``) are means over the calls made; a layer never called reads 0.
    """
    owner = _step_owner(spans)
    steps = [i for i, s in enumerate(spans) if s[NAME] == STEP]
    n_steps = len(steps)
    child_time = [0.0] * len(spans)
    by_name: dict[str, list] = {}  # every span, by name (transforms as FFT_PREFIX)
    in_steps: dict[str, list] = {}  # the spans inside a step, likewise
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
        key = FFT_PREFIX if s[NAME].startswith(FFT_PREFIX) else s[NAME]
        by_name.setdefault(key, []).append(s)
        if owner[i] >= 0:
            in_steps.setdefault(key, []).append(s)

    def per_step(values) -> float:
        return sum(values) / n_steps if n_steps else 0.0

    def mean(values) -> float:
        values = list(values)
        return statistics.fmean(values) if values else 0.0

    def ms(s) -> float:
        return 1e3 * (s[END] - s[START])

    metrics: dict[str, float] = {}
    for layer in ("operators.apply_phi", "operators.energy", "projection.project"):
        inside = in_steps.get(layer, [])
        metrics[f"{layer}.calls_per_step"] = per_step(1 for _ in inside)
        metrics[f"{layer}.ms_per_step"] = per_step(ms(s) for s in inside)
    metrics["operators.nonlinear_F.ms_per_step"] = per_step(
        ms(s) for s in in_steps.get("operators.nonlinear_F", [])
    )
    ffts = in_steps.get(FFT_PREFIX, [])
    metrics["operators.fft.transforms_per_step"] = per_step(1 for _ in ffts)
    metrics["operators.fft.mb_per_step_computed"] = per_step(
        s[EXTRA]["bytes"] / 1e6 for s in ffts
    )

    projections = [s[EXTRA] for s in in_steps.get("projection.project", [])]
    iterations = [p["iterations"] for p in projections]
    metrics["projection.iterations_mean"] = mean(iterations)
    metrics["projection.iterations_max"] = float(max(iterations, default=0))
    metrics["projection.noop_frac"] = mean(1.0 if k == 0 else 0.0 for k in iterations)
    metrics["projection.clamped_fraction_mean"] = mean(p["clamped"] for p in projections)

    metrics["stepper.step.ms"] = mean(ms(spans[i]) for i in steps)
    metrics["stepper.step.self_ms"] = mean(
        ms(spans[i]) - 1e3 * (child_time[i] + spans[i][EXCLUDED]) for i in steps
    )

    for layer in ("grid.write_snapshot", "stepper.write_diagnostics_csv"):
        metrics[f"{layer}.ms"] = mean(ms(s) for s in by_name.get(layer, []))
        metrics[f"{layer}.bytes"] = mean(s[EXTRA]["bytes"] for s in by_name.get(layer, []))
    for layer in (
        "operators.build_phi_table",
        "config.parse_config",
        "experiments.count_structures",
    ):
        metrics[f"{layer}.ms"] = mean(ms(s) for s in by_name.get(layer, []))
    metrics["steps"] = float(n_steps)
    return metrics
