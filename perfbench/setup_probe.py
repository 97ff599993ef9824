"""Build one workload's inputs and tables in a fresh process, then exit.

The benchmark times this process from outside as the workload's set-up:
interpreter start, imports, and everything built before the first op.

Usage: python perfbench/setup_probe.py <workload> <seed>
Needs ``src`` on PYTHONPATH.
"""

import sys

import workloads

if __name__ == "__main__":
    workloads.build(sys.argv[1], int(sys.argv[2]))
