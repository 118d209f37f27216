"""
One set-up sample, in a fresh interpreter started by run.py: import numpy
and adlv.cli, with a speed probe (speed.py) before and after, and print

    <perf_counter when imported> <seconds spent probing before> <probe before> <probe after>

The probes run in this process, on the CPU the imports run on.
"""

import time

t0 = time.perf_counter()
import speed  # noqa: E402

before = speed.probe()
probing_s = time.perf_counter() - t0

import numpy  # noqa: E402,F401
import adlv.cli  # noqa: E402,F401

done = time.perf_counter()
print(repr(done), repr(probing_s), repr(before), repr(speed.probe()))
