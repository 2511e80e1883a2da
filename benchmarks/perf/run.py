"""Entry point of the benchmark: ``python3 benchmarks/perf/run.py``.

Run from the root of a checkout.  Puts the checkout root and ``src`` on
``sys.path`` (in place of this directory, so sibling modules can never
shadow the standard library) and hands over to
:func:`benchmarks.perf.cli.main`.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import sys
from pathlib import Path


def bootstrap() -> None:
    root = Path(__file__).resolve().parents[2]
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [p for p in sys.path if p != here]
    for entry in (str(root / "src"), str(root)):
        if entry not in sys.path:
            sys.path.insert(0, entry)


if __name__ == "__main__":
    bootstrap()
    from benchmarks.perf.cli import main

    sys.exit(main())
