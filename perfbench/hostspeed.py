"""Timings corrected for the speed of a shared host.

On a shared virtual machine the same code can run at about half speed for
seconds at a time while another tenant loads the core, so a multi-second
solve does not repeat within a tenth.  The benchmark therefore splits each
timed call into blocks of a few tens of milliseconds and runs a short
fixed probe kernel between blocks.  A block's time is scaled by
REFERENCE_PROBE_S over the mean of the two probes around it; the sum is the
call's time at the host speed at which the probe takes REFERENCE_PROBE_S.
That constant is about the probe's time on an idle core of the 2-vCPU Xeon
virtual machine the benchmark was tuned on, so there a corrected time reads
close to wall time on an idle core.  Being a constant, it keeps corrected
times comparable between runs made in fast and in slow host phases.  Raw
wall times are kept next to the corrected ones.
"""

from __future__ import annotations

import time

import numpy as np

_clock = time.perf_counter

# The probe mixes what the workloads do: small-array numpy calls driven by
# Python (the solvers) and vectorised math over a few thousand rows (checks).
_SMALL = np.array([0.3, -0.2, 1.1])
_MAT = np.eye(3)
_BATCH = np.linspace(-0.9, 0.9, 3 * 1024).reshape(1024, 3)


def _probe_kernel():
    s = 0.0
    for _ in range(40):
        a = _MAT @ _SMALL
        s += float(np.sqrt(a @ a)) + float(np.sum(np.maximum(a, 0.0)))
    for _ in range(4):
        r = np.sum(_BATCH * _BATCH, axis=-1)
        s += float(np.sum(np.arccos(np.clip(r - 1.0, -1.0, 1.0))))
    return s


REFERENCE_PROBE_S = 0.4e-3


class HostSpeed:
    """All probe times of one run."""

    reference = REFERENCE_PROBE_S

    def __init__(self):
        self.probes = []

    def probe(self):
        t0 = _clock()
        _probe_kernel()
        elapsed = _clock() - t0
        self.probes.append(elapsed)
        return elapsed


class Stopwatch:
    """Times one call as blocks separated by probes; ``lap`` closes a block.

    Use as a context manager around the call, and call ``lap`` from inside
    it (from a trace sink) every few tens of milliseconds.  Probe time is
    excluded from the blocks.
    """

    def __init__(self, host):
        self.host = host
        self.blocks = []  # (seconds, probe before, probe after)

    def __enter__(self):
        self._before = self.host.probe()
        self._t0 = _clock()
        return self

    def lap(self):
        end = _clock()
        after = self.host.probe()
        self.blocks.append((end - self._t0, self._before, after))
        self._before = after
        self._t0 = _clock()

    def __exit__(self, *exc):
        self.lap()
        return False

    @property
    def wall(self):
        return sum(block[0] for block in self.blocks)

    def corrected(self, reference):
        """Seconds at the host speed whose probe takes ``reference`` seconds."""
        return sum(t * reference / (0.5 * (a + b)) for t, a, b in self.blocks)
