"""Guard: no module of the package calls a BLAS-backed product.

numpy hands np.dot, vdot, inner, matmul, tensordot, the binary @ and
einsum(..., optimize=...) to OpenBLAS, which runs on every core and keeps
its threads spinning between calls.  That is the cpu_s trap: on a 2-core
machine a loop of np.vdot over two 128 x 128 fields, with other work
between the calls, used 2.0 s of CPU per second of wall time and saved
little time (32 against 40 us per iteration with np.einsum), so a step that
took its sums from BLAS would raise the benchmark's cpu_s while its step
time barely moved.  np.einsum without optimize runs numpy's own loop on one
core (1.0 s of CPU per second).  A sum of products over a field belongs in
einsum without optimize, or in an elementwise product and a sum.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nch"
NUMPY_NAMES = {"np", "numpy"}
BLAS_FUNCTIONS = {"dot", "vdot", "inner", "matmul", "tensordot"}


def blas_calls(source: str) -> list[str]:
    """Line and form of every BLAS-backed product in the source text."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"line {node.lineno}: @")
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        name, owner = node.func.attr, node.func.value
        numpy_call = isinstance(owner, ast.Name) and owner.id in NUMPY_NAMES
        if (numpy_call and name in BLAS_FUNCTIONS) or name == "dot":
            found.append(f"line {node.lineno}: {name}")
        if name == "einsum" and any(k.arg == "optimize" for k in node.keywords):
            found.append(f"line {node.lineno}: einsum with optimize")
    return found


def test_detector_sees_every_form():
    source = "\n".join(
        [
            "np.dot(a, b)",
            "numpy.vdot(a, b)",
            "np.inner(a, b)",
            "np.matmul(a, b)",
            "np.tensordot(a, b)",
            "a.dot(b)",
            "c = a @ b",
            "c @= b",
            "np.einsum('ij,ij->', a, b, optimize=True)",
        ]
    )
    lines = sorted(int(f.split(":")[0].split()[1]) for f in blas_calls(source))
    assert lines == list(range(1, 10))
    # a grid's inner product and einsum without optimize are fine
    assert blas_calls("grid.inner(a, b)\nnp.einsum('ij,ij->i', a, b)") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_calls_no_blas_product(path):
    assert blas_calls(path.read_text()) == []
