"""Print the sha256 of every file the reference commands write.

    python3 tests/output_digests.py

Runs the commands below on the shipped configs against the package in this
checkout's src/, each in its own directory under a temporary directory,
and prints one `<file> <sha256>` line per output file, the file named by
its command's label and its path in that directory.  A change meant to keep
the solver's outputs byte-identical must leave every line as it was.
Not collected by pytest (no test_ prefix); takes about 5 s on 2 cores.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

SWEEP = ["sweep", str(CONFIGS / "sweep.cfg"), "--sigma-list=30,70", "--T_final=15"]
CONVERGE = [
    "converge", str(CONFIGS / "convergence.cfg"), "--scheme=p-etdrk2",
    "--tau-list=1e-3,5e-4,2.5e-4", "--benchmark-tau=6.25e-5", "--amplitude=0.1",
]
# (label, nch arguments, NCH_THREADS or None to leave it as it is)
COMMANDS = (
    ("run", ["run", str(CONFIGS / "comparison.cfg")], None),
    ("sweep-threads1", SWEEP, "1"),
    ("sweep-threads2", SWEEP, "2"),
    ("converge-threads1", CONVERGE, "1"),
    ("converge-threads2", CONVERGE, "2"),
)


def digests(workdir: Path) -> list[tuple[str, str]]:
    """Run every command in its own directory under workdir; returns
    (label/path, sha256) per output file, in command then path order."""
    lines = []
    for label, args, threads in COMMANDS:
        cwd = workdir / label
        cwd.mkdir()
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        if threads is not None:
            env["NCH_THREADS"] = threads
        subprocess.run(
            [sys.executable, "-m", "nch.cli", *args],
            cwd=cwd, env=env, check=True, stdout=subprocess.DEVNULL,
        )
        for path in sorted(p for p in cwd.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append((f"{label}/{path.relative_to(cwd)}", digest))
    return lines


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in digests(Path(tmp)):
            print(name, digest)
