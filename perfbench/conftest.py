"""Make the program's sources importable for the benchmark's own tests
(``python3 -m pytest perfbench`` from the repository root)."""

import pathlib
import sys

_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
