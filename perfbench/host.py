"""Host speed, measured between processes, and times corrected for it.

The shared 2-core host the benchmark was sized on runs every process
30-80 % slower for stretches of seconds to minutes, as its neighbours
load it; process CPU time slows with wall time, so it is no way out.
Over 30-second windows, the median raw time of the workloads' commands
spread 18 % between the quartiles, and 44 % from least to most. Start-up
with `import numpy` shifts on its own as well: the raw set-up time fell
by a quarter between two runs a minute apart while bare start-up held.

So the benchmark times a fixed probe process next to every timed one: a
bare `python -c pass` around each command, a `python -c "import numpy"`
around each set-up sample (`--help` imports numpy). A time is rescaled
by its probe's reference time over the mean of the probes just before
and after it: it reads as seconds on a host where the probe takes its
reference time. The probes run none of the program, so a change to the
program moves the rescaled time as it moves the raw one, while most of
the host's state cancels. Over the same windows, commands rescaled by
the bare probe spread 4 % between the quartiles and 13 % from least to
most; of the probes tried (a pure-Python loop, NumPy FFTs, start-up
with and without `import numpy`) the bare start-up tracked commands
best and the numpy one tracked `--help` best. Raw times are kept and
printed next to the rescaled ones.
"""
from __future__ import annotations

import subprocess
import sys
from time import perf_counter

# (probe code, its median time on the host the benchmark was sized on:
# Intel Xeon at 2.1 GHz, 2 vCPUs; rounded).
COMMAND_PROBE = ("pass", 0.06)
SETUP_PROBE = ("import numpy", 0.16)


class HostClock:
    """Rescales each time by the probes taken just before and after it."""

    def __init__(self, code: str, reference_s: float) -> None:
        self.code = code
        self.reference_s = reference_s
        self.probes = [self.probe()]

    def probe(self) -> float:
        """Seconds to run the probe process."""
        start = perf_counter()
        subprocess.run([sys.executable, "-c", self.code], check=True)
        return perf_counter() - start

    def rescale(self, seconds: float) -> float:
        """Probe now and rescale `seconds`, timed since the last probe."""
        before = self.probes[-1]
        self.probes.append(self.probe())
        return seconds * self.reference_s / ((before + self.probes[-1]) / 2)
