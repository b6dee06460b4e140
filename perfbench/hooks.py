"""Hooks the benchmark puts around the nch package, from outside it.

Two kinds, both installed by replacing module-level names; nothing under
``src/nch`` is edited:

* the step clock, always on: ``advance`` is wrapped so that its ``on_step``
  callback stamps the end of every step.  Each ``advance`` call writes its
  stamps to ``<log dir>/advance-<pid>-<n>.json`` when it returns, also in
  process-pool workers.  Cost: two clock reads per step.
* the tracer, on in traced calls only: spans around the public functions of
  ``config``, ``operators``, ``projection``, ``grid``, ``stepper`` and
  ``experiments`` and around the 2-D and n-D entry points of ``numpy.fft``
  and ``scipy.fft`` (complex and real), plus one span per step.

A function is replaced under every name any ``nch`` module holds it by, so
``from .operators import apply_phi`` in another module is covered too.
Calls made through references kept elsewhere (a dict of functions, a default
argument) are not seen.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import sys
from functools import wraps
from pathlib import Path

import numpy as np

from spans import FFT_PREFIX, STEP, Tracer, clock

LOG_ENV = "PERFBENCH_LOG"
TRACE_ENV = "PERFBENCH_TRACE"

FFT_NAMES = ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")


def _file_bytes(args, kwargs, result) -> dict:
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _projection_extra(args, kwargs, result) -> dict:
    return {
        "iterations": int(result.iterations),
        "clamped": np.count_nonzero(result.lam) / result.lam.size,
    }


def _fft_bytes(args, kwargs, result) -> dict:
    data = args[0] if args else kwargs["x" if "x" in kwargs else "a"]
    return {"bytes": int(np.asarray(data).nbytes + result.nbytes)}


# (module, function, span name, extra)
LAYER_FUNCTIONS = (
    ("nch.config", "parse_config", "config.parse_config", None),
    ("nch.operators", "build_phi_table", "operators.build_phi_table", None),
    ("nch.operators", "apply_phi", "operators.apply_phi", None),
    ("nch.operators", "nonlinear_F", "operators.nonlinear_F", None),
    ("nch.operators", "energy", "operators.energy", None),
    ("nch.projection", "project", "projection.project", _projection_extra),
    ("nch.grid", "write_snapshot", "grid.write_snapshot", _file_bytes),
    ("nch.stepper", "write_diagnostics_csv", "stepper.write_diagnostics_csv", _file_bytes),
    ("nch.experiments", "count_structures", "experiments.count_structures", None),
)


def _replace(original, replacement, home=None) -> None:
    """Rebind every nch-module name (and home's) that refers to original."""
    modules = [m for n, m in list(sys.modules.items()) if n == "nch" or n.startswith("nch.")]
    if home is not None:
        modules.append(home)
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


class Hooks:
    """The hooks of one process: step clock, optional tracer, output files."""

    def __init__(self, log_dir: Path, traced: bool) -> None:
        self.log_dir = log_dir
        self.tracer = Tracer() if traced else None
        self.missing: list[str] = []
        self._counter = itertools.count()

    def install(self) -> None:
        import nch.cli  # noqa: F401  imports every module the CLI uses
        import nch.stepper

        _replace(nch.stepper.advance, self._clocked(nch.stepper.advance))
        if self.tracer is not None:
            self._install_tracer()

    def _install_tracer(self) -> None:
        import scipy.fft

        for module_name, attr, span, extra in LAYER_FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            _replace(original, self.tracer.wrap(span, original, extra))
        for home in (np.fft, scipy.fft):
            for attr in FFT_NAMES:
                original = getattr(home, attr)
                span = f"{FFT_PREFIX}{home.__name__.split('.')[0]}.{attr}"
                _replace(original, self.tracer.wrap(span, original, _fft_bytes), home)

    def _clocked(self, original):
        tracer = self.tracer

        @wraps(original)
        def advance(*args, on_step=None, **kwargs):
            marks: list[tuple[float, float]] = []

            def stamp(state, diag):
                t_in = clock()
                if tracer is not None and marks:
                    tracer.end()
                if on_step is not None:
                    on_step(state, diag)
                marks.append((t_in, clock()))
                if tracer is not None:
                    tracer.begin(STEP)

            if tracer is not None:
                tracer.begin("stepper.advance")
            returned = False
            try:
                result = original(*args, on_step=stamp, **kwargs)
                returned = True
                return result
            finally:
                if tracer is not None:
                    if marks and returned:
                        tracer.drop()  # the empty step opened by the last stamp
                    elif marks:
                        tracer.end()  # the step that raised
                    tracer.end()
                self._write(f"advance-{os.getpid()}-{next(self._counter)}.json", marks)

        return advance

    def _write(self, name: str, payload) -> None:
        with open(self.log_dir / name, "w") as f:
            json.dump(payload, f)

    def finish(self, cli_done: float) -> None:
        """Write what the benchmark reads after the call: when the CLI
        returned (before the spans were written) and the spans."""
        self._write("child.json", {"cli_done": cli_done})
        if self.tracer is not None:
            self._write("spans.json", self.tracer.spans)


def install_from_env() -> Hooks | None:
    """Install the hooks the environment asks for; None outside a benchmark call."""
    log_dir = os.environ.get(LOG_ENV)
    if not log_dir:
        return None
    hooks = Hooks(Path(log_dir), os.environ.get(TRACE_ENV) == "1")
    hooks.install()
    return hooks
