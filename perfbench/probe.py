"""Host speed probe: fixed work that shares no code with fracbound.

The benchmark runs on shared machines whose speed drifts by up to 2x
within minutes, and differs between processors of one machine at the same
moment; a run cannot average that out.  Each repetition's child times
this probe just before and just after ``fracbound.cli.main``, in its own
process, and run.py scales the repetition's times by
``REFERENCE_S / probe time``: a figure reads as seconds on a host that
runs the probe in ``REFERENCE_S``.  The probe mixes the kinds of work
fracbound does (float powers, small dicts, numpy seeding, the pure-Python
JSON encoder) so that it slows down with the host the way fracbound does.
A change to fracbound cannot move the probe.
"""

import json
import statistics
import time

import numpy as np

REFERENCE_S = 0.03

_RECORDS = [{"trial": i, "alpha": 0.5 * (1 + i % 4), "x": i / 7.0, "gap": (i + 1) ** 0.5,
             "passed": True} for i in range(2000)]


def _work() -> int:
    acc = 0.0
    for i in range(1, 20000):
        t = i * 5e-5
        acc += t ** 1.5 - (1.0 - t) ** 2.5 / 2.5
    table = {i: (i * 0.5, str(i)) for i in range(10000)}
    for k in range(100):
        seq = np.random.SeedSequence(entropy=k, spawn_key=(k,))
        acc += np.random.Generator(np.random.PCG64(seq)).uniform()
    return len(table) + len(json.dumps(_RECORDS, indent=1)) + int(acc)


def probe_seconds(runs: int = 3) -> float:
    """Median time of ``runs`` runs of the probe, in seconds."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        _work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
