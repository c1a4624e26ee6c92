"""The host's speed during a run, from fixed reference computations.

The benchmark runs on a few cores of a shared host whose speed drifts by
a quarter or more within minutes: a fixed pure-Python loop timed in ten
twenty-second windows spread 25% of its median between its quartiles,
and raw wall-time figures of one workload spread up to 42% across ten
runs.  No run length averages that away, so every run also times a
fixed reference computation, which touches no program code, in short
samples spread evenly over the run.  ``run.py`` divides wall times by the host's
slowdown measured this way (:meth:`SpeedProbe.slowdown`), which gives
them in seconds at the reference speed, and prints the raw wall-time
figures beside them.

Different work slows differently on this host, so each workload names
the reference that slows as it does (``Workload.reference``) and how
closely in time its slowdown is read (``Workload.per_request_speed``).
Chosen from five-seed sets of every workload, with the parts of both
references timed in every sample, and checked on two ten-seed sets:

* ``objects`` -- an interpreter loop, a JSON decode that allocates
  thousands of objects, and a pointer chase through a list larger than
  the L2 cache: Python code building and walking object graphs, as the
  service does when it parses its store.  Read within :data:`WINDOW_S`
  of each request, it cut the quartile spread of service-warm's timings
  from 0.05-0.32 raw to 0.01-0.10 in five sets.  It swings far more
  than the solver does, so on table2-ilp and loops-verified it added
  noise in calm periods.
* ``numeric`` -- the interpreter loop, a sort and a hash over arrays:
  compiled code over arrays plus the Python around it, as in the two
  solver workloads.  Their requests last from half a second to seconds
  and the host is only sampled between them, so the median over all
  timed passes is used: it cut their spreads from 0.11-0.40 raw to
  0.04-0.18 in periods of drift, and held them at 0.07-0.13 (0.09-0.19
  raw) in calmer ones.

Set-up is divided by the whole run's median: set-up is too short to
sample well, and the drift that matters is slow.

The garbage collector is paused during the decode, whose objects are
all freed before it resumes, so sampling never triggers or shifts a
collection.  The references' data adds about 10 MB to the process's
resident memory.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import random
import statistics
import time

import numpy as np

#: How far either side of a request its slowdown is read, in seconds.
WINDOW_S = 0.25
#: Share of the run spent sampling.
SHARE = 0.04

_DOCUMENT = json.dumps(
    [{"id": i, "name": f"op{i}", "ins": [i, i + 1], "w": i * 0.5, "s": "x" * 20} for i in range(1500)]
)
_ORDER = list(range(1 << 18))
random.Random(20240).shuffle(_ORDER)
#: One cycle through every index, in a random order.
_CHAIN = [0] * len(_ORDER)
for _here, _next in zip(_ORDER, _ORDER[1:] + _ORDER[:1]):
    _CHAIN[_here] = _next
del _ORDER, _here, _next
_ARRAY = np.random.default_rng(20240).random(1 << 17)
_BYTES = _ARRAY.tobytes() * 2


def _interpret(steps: int) -> int:
    total = 0
    for i in range(steps):
        total += i * i % 7
    return total


def _decode() -> int:
    collecting = gc.isenabled()
    gc.disable()
    try:
        return len(json.loads(_DOCUMENT))
    finally:
        if collecting:
            gc.enable()


def _chase(steps: int) -> int:
    at = 0
    for _ in range(steps):
        at = _CHAIN[at]
    return at


def objects_work() -> int:
    """Python object work: 4 ms at the reference speed."""
    return _interpret(6_000) + _decode() + _chase(5_000)


def numeric_work() -> int:
    """Interpreter plus array work: 4 ms at the reference speed."""
    np.sort(_ARRAY)
    hashlib.sha256(_BYTES).digest()
    return _interpret(12_000)


#: name -> (computation, its time at the reference speed: this host's
#: speed when calm, 2 vCPUs of an Intel Xeon).
REFERENCES = {
    "objects": (objects_work, 0.004),
    "numeric": (numeric_work, 0.004),
}


class SpeedProbe:
    """Samples a reference computation between requests.

    :meth:`tick` is called outside every timed request; it samples once
    :data:`SHARE` of the time since ``since`` (a ``perf_counter``
    reading) has built up beyond the time already spent sampling, so
    samples spread evenly over the run whatever the request lengths.
    """

    def __init__(self, reference: str, since: float):
        self.reference = reference
        self.work, self.reference_s = REFERENCES[reference]
        self.starts: list[float] = []
        self.samples: list[float] = []
        self._owed = 0.0
        self._last = since

    def tick(self) -> None:
        now = time.perf_counter()
        self._owed += SHARE * (now - self._last)
        if not self.samples:
            self._owed = max(self._owed, self.reference_s)
        while self._owed > 0:
            began = time.perf_counter()
            self.work()
            spent = time.perf_counter() - began
            self.starts.append(began)
            self.samples.append(spent)
            self._owed -= spent
        self._last = time.perf_counter()

    def slowdown(self, start: float, end: float) -> float:
        """How many times slower than the reference speed the host ran
        from ``start`` to ``end`` (``perf_counter`` readings): the median
        sample taken within :data:`WINDOW_S` of that span, or else the
        nearest sample on each side."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if lo == hi:
            lo, hi = max(lo - 1, 0), hi + 1
        return statistics.median(self.samples[lo:hi]) / self.reference_s
