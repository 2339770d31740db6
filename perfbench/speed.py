"""Machine-speed sampling, so timings hold still on a shared, noisy host.

On a host shared with other tenants the same work runs up to 1.7x slower
in episodes of 0.1-2 s, and the share of slow time drifts from one minute
to the next. Raw wall times of identical runs then differ by 20-60 %.

``start()`` arms a CPU-time interval timer in this process (and, through
``os.register_at_fork``, in every worker forked from it). Every
INTERVAL_S of CPU time the signal handler times a fixed probe; the ratio
REF_S / probe time is the machine speed at that moment relative to a
reference speed. Work done in an interval is proportional
to its length times that speed, so

    seconds at reference speed = raw seconds x mean(REF_S / probe time)

with the mean over the samples taken in the interval, in all processes
of the run. A change in metadkit's own cost moves the figure one-for-one;
a slow episode on the host does not. The probe costs about 1 % of CPU.
Over repeated diagnose passes it cut the spread of pass times from 38 %
to 4 % (interquartile range over median).
The raw seconds are printed next to every scaled figure.
"""

from __future__ import annotations

import atexit
import json
import os
import signal
import time
from pathlib import Path

import numpy as np

INTERVAL_S = 0.02
# probe duration that defines reference speed: about its fast-mode time on
# a 2-vCPU Intel Xeon (Sapphire Rapids) VM
REF_S = 1.9e-4
_LINE = ('{"question_id": "q000001", "domain": "Arts", "condition": "1", '
         '"format": "f16", "correct": true, "nlp": -1.25}')
_SMALL = np.arange(8.0)


class _Sampler:
    def __init__(self):
        self.samples = 0
        self.factor_sum = 0.0
        self.out_dir: Path | None = None
        self.owner_pid = os.getpid()


_state = _Sampler()


def _probe() -> float:
    """Seconds for a fixed mix of the work metadkit's hot paths do:
    interpreter arithmetic, JSON parsing and small-object allocation, and
    small-array numpy calls. Slow episodes hit these by different factors
    (JSON/allocation the most), so one kind alone tracks them poorly."""
    start = time.perf_counter()
    acc = 0
    for i in range(1000):
        acc = (acc * 31 + i) & 0xFFFFF
    for _ in range(30):
        record = json.loads(_LINE)
        record["x"] = [record["nlp"]] * 3
    for _ in range(20):
        float(np.exp(_SMALL * 1e-3).sum())
    return time.perf_counter() - start


def _on_signal(signum, frame) -> None:
    _state.samples += 1
    _state.factor_sum += REF_S / _probe()
    if _state.out_dir is not None and os.getpid() != _state.owner_pid:
        # a forked worker can exit at any moment, so its totals are
        # written on every sample
        path = _state.out_dir / f"{os.getpid()}.txt"
        path.write_text(f"{_state.samples} {_state.factor_sum!r}\n", encoding="utf-8")


def _arm() -> None:
    signal.signal(signal.SIGPROF, _on_signal)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)


def _after_fork_in_child() -> None:
    _state.samples = 0
    _state.factor_sum = 0.0
    if _state.out_dir is not None:
        _arm()                  # interval timers are not inherited by fork


def start(worker_dir: str | Path | None = None) -> None:
    """Sample this process; with ``worker_dir``, forked workers too."""
    _state.owner_pid = os.getpid()
    if worker_dir is not None:
        _state.out_dir = Path(worker_dir)
        _state.out_dir.mkdir(parents=True, exist_ok=True)
        os.register_at_fork(after_in_child=_after_fork_in_child)
    # a SIGPROF after the handler is gone at shutdown would kill the process
    atexit.register(stop)
    _arm()


def stop() -> None:
    signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)


def reset() -> None:
    """Start a new interval: drop this process's and the workers' totals."""
    _state.samples = 0
    _state.factor_sum = 0.0
    if _state.out_dir is not None:
        for path in _state.out_dir.glob("*.txt"):
            path.unlink()


def factor() -> tuple[float, int]:
    """(mean REF_S / probe time, sample count) since the last reset,
    over this process and its forked workers; (1.0, 0) without samples."""
    samples, total = _state.samples, _state.factor_sum
    if _state.out_dir is not None:
        for path in _state.out_dir.glob("*.txt"):
            n, s = path.read_text(encoding="utf-8").split()
            samples += int(n)
            total += float(s)
    return (total / samples, samples) if samples else (1.0, 0)
