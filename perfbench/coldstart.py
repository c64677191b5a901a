"""Build one workload's set-up state in a fresh process, then say so.

    python3 perfbench/coldstart.py sweep 1

Prints ``ready`` once the state the workload's rounds start from is
built.  ``common.cold_setup_s`` times this from process start, so
``setup_s`` includes the interpreter start and the program's imports.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SRC  # noqa: E402

sys.path.insert(0, str(SRC))
importlib.import_module(sys.argv[1]).setup(int(sys.argv[2]))
print("ready", flush=True)
