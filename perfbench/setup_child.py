"""One workload set-up in a fresh interpreter; run.py times the whole process.

Usage: python3 setup_child.py <workload> <seed>   (with the program's src on
PYTHONPATH)
"""

import sys

import inputs

inputs.build(sys.argv[1], int(sys.argv[2]))
