"""Self-test of the tracer on a 16 x 16 mesh.

    PYTHONPATH=src python3 perfbench/selftest.py LOG_DIR

Checks that the transform counter reads exactly 4 transforms per p-etd1
step and 8 per p-etdrk2 step, that every complex and real 2-D and n-D entry
point of numpy.fft and scipy.fft counts once per call (and nothing else
does), and that every traced child span lies inside its parent.  Exits 0
when all hold and 1 otherwise, listing the problems on standard error.
"""

import sys
from pathlib import Path

import numpy as np
import scipy.fft

import hooks
from spans import FFT_PREFIX, NAME, PARENT, check_nesting, summarize

TRANSFORMS_PER_STEP = {"p-etd1": 4, "p-etdrk2": 8}
STEPS = 3


def run_checks(log_dir: Path) -> list[str]:
    probe = hooks.Hooks(log_dir, traced=True)
    probe.install()
    spans = probe.tracer.spans
    problems = [f"not traced: {name}" for name in probe.missing]

    import nch.stepper
    from nch import ModelParams

    params = ModelParams(M=16, tau=0.1)
    u0 = nch.stepper.random_initial(params.grid(), 0.2, 0.05, 1)
    for scheme, want in TRANSFORMS_PER_STEP.items():
        spans.clear()
        nch.stepper.advance(u0, params, scheme, STEPS)
        got = summarize(spans)
        if got["steps"] != STEPS:
            problems.append(f"{scheme}: {got['steps']} step spans, expected {STEPS}")
        if got["operators.fft.transforms_per_step"] != want:
            problems.append(
                f"{scheme}: {got['operators.fft.transforms_per_step']} transforms "
                f"per step, expected {want}"
            )
        problems += [f"{scheme}: {p}" for p in check_nesting(spans)]
        for span in spans:
            if span[NAME].startswith(FFT_PREFIX):
                parent = spans[span[PARENT]][NAME]
                if parent != "operators.apply_phi":
                    problems.append(f"{scheme}: transform inside {parent}")

    field = np.random.default_rng(0).standard_normal((16, 16))
    half = np.fft.rfft2(field)
    for home in (np.fft, scipy.fft):
        for attr in hooks.FFT_NAMES:
            arg = half if attr.startswith("irfft") else field
            spans.clear()
            getattr(home, attr)(arg)
            names = [s[NAME] for s in spans]
            want = f"{FFT_PREFIX}{home.__name__.split('.')[0]}.{attr}"
            if names != [want]:
                problems.append(f"{home.__name__}.{attr} recorded {names}, expected [{want!r}]")
    return problems


if __name__ == "__main__":
    found = run_checks(Path(sys.argv[1]))
    for problem in found:
        print(f"selftest: {problem}", file=sys.stderr)
    sys.exit(1 if found else 0)
