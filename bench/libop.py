"""Run the benchmark's library op (a generic Y search over one box) and
print the hit diagonals.

    PYTHONPATH=src python3 bench/libop.py 4 41,40,40,41
"""

import sys

from workloads import lib_generic

if __name__ == "__main__":
    sys.stdout.write(lib_generic(*sys.argv[1:]))
