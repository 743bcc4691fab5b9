"""Set-up in a fresh interpreter: import corec and build the workload's
tables.  ``run.py`` times this script from spawn to exit as ``setup_s``.

Usage: python3 perfbench/setup_child.py WORKLOAD
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import build_tables, import_corec  # noqa: E402

if __name__ == "__main__":
    build_tables(import_corec(), sys.argv[1])
