"""Set-up of a Python process that goodint does not control, for scaling setup_s.

    python3 -I perfbench/base.py

Starts like child.py (same interpreter and flags) and imports only numpy,
goodint's one third-party dependency, then writes the CLOCK_MONOTONIC time
at which that finished to stdout.  run.py times these probes between the
goodint processes and divides goodint's set-up by their median, so that a
host that starts processes and loads libraries slower for a while does not
read as a slower goodint.
"""

import time

import numpy  # noqa: F401

print(time.monotonic())
