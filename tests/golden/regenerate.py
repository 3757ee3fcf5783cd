"""Rewrite the golden files of tests/test_golden.py from the current code.

Running it is a deliberate output change; say so with the change.

    PYTHONPATH=src python tests/golden/regenerate.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import CASES, GOLDEN, run_case  # noqa: E402

for argv, pooled in CASES:
    for name, data in run_case(argv, pooled).items():
        (GOLDEN / name).write_bytes(data)
