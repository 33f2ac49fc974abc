"""Boot the program with span wrappers installed: the traced run's entry.

``python perfbench/traced_main.py serve ...`` is ``python -m repro serve
...`` with :func:`perfbench.tracing.install` applied first; the spans go
to the file named by ``PERFBENCH_SPANS`` when the program exits.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import tracing  # noqa: E402


def main(argv: list) -> int:
    recorder = tracing.Recorder()
    tracing.import_program()
    tracing.install(recorder)
    from repro.__main__ import main as program_main

    try:
        return program_main(argv)
    finally:
        recorder.dump(os.environ["PERFBENCH_SPANS"])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
