"""``python -m benchmarks.perf`` — the same command as ``run.py``."""

import sys

from benchmarks.perf.run import bootstrap

if __name__ == "__main__":
    bootstrap()
    from benchmarks.perf.cli import main

    sys.exit(main())
