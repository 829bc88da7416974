"""Path set-up for the benchmark's self-tests (``pytest bench/tests``).

They live outside tier-1's ``testpaths``; the harness modules are plain
files next to ``run.py``, imported the way ``run.py`` imports them.
"""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
for path in (BENCH_DIR, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
