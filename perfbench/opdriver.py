"""Run one ``repro`` command as ``python -m repro.cli`` does, marking when
the simulation starts.

Usage::

    python3 perfbench/opdriver.py MARK_FILE run --topology ... --json-out ...

Writes ``time.time()`` to ``MARK_FILE`` when ``Simulator.run`` is first
entered.  An op killed at its wall limit then still has a measured
set-up: the time from its spawn to that mark.  Nothing else changes: the
command's output and exit code are those of ``repro.cli.main``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path


def main(argv: list) -> int:
    mark = Path(argv[0])
    from repro.core.simulator import Simulator

    run = Simulator.run

    def marked_run(self):
        if not mark.exists():
            mark.write_text(repr(time.time()))
        return run(self)

    Simulator.run = marked_run
    from repro.cli import main as cli_main

    return cli_main(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
