"""Run one ``nch`` CLI call in this process under the benchmark's hooks.

    PERFBENCH_LOG=DIR [PERFBENCH_TRACE=1] python3 perfbench/child.py NCH-ARGS...

``src`` must be on PYTHONPATH.  The exit code is the CLI's; the hooks leave
their stamps and spans in DIR (see hooks.py).
"""

import sys

import hooks
from spans import clock

# Installed at import, not under the main guard: a process pool started with
# the spawn or forkserver method imports this script again in every worker,
# and the workers must step under the same hooks.
HOOKS = hooks.install_from_env()


def main(argv: list[str]) -> int:
    import nch.cli

    code = nch.cli.main(argv)
    if HOOKS is not None:
        HOOKS.finish(clock())
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
