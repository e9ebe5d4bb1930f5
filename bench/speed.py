"""Wall time corrected for the machine's current speed and for waits for a core.

On cores shared with other tenants, pure Python runs up to 1.8x slower for
seconds at a time, and a runnable process also waits while other tasks hold
the cores, so raw wall times of one program drift by 20 % and more between
runs.  While a `Speedometer` runs, SIGALRM fires every TICK_S seconds and the
handler times a small fixed kernel that uses only the standard library.  Both
are counted in CPU time, which leaves out the waits: each stretch of CPU time
up to a sample is scaled by REFERENCE_S / (that sample's kernel CPU time), and
the sum is the time the stretch would have taken on a reference core of its
own.  CPU time includes reaped child processes; where threads or children
make it exceed the wall time, the result is scaled down by wall / CPU, so
work spread over several cores still counts as the wall time it took.  The
handler's own time is left out of both the wall and the scaled time.
"""

import resource
import signal
import time

TICK_S = 0.025
# Median kernel time inside the handler on an uncontended core of the 2.0 GHz
# Xeon (Python 3.11) the benchmark was tuned on, so scaled seconds read about
# like wall seconds there.
REFERENCE_S = 0.00031


def kernel():
    """Fixed work shaped like the program's: dict updates, int bit tricks."""
    seen = {}
    acc = 0
    for i in range(600):
        m = (i * 2654435761) & 0xFFFF
        seen[m] = seen.get(m, 0) + bin(m).count("1")
        acc += m & ~i
    return acc


def cpu_seconds():
    """CPU time of this process and of its reaped child processes."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Speedometer:
    """Samples the kernel between `start` and `stop`; main thread only."""

    def __init__(self):
        self._samples = []
        self._origin = (0.0, 0.0)
        self._previous = None

    def _sample(self, *_):
        wall, cpu = time.perf_counter(), cpu_seconds()
        kernel()
        self._samples.append((wall, time.perf_counter(), cpu, cpu_seconds()))

    def start(self, origin=None):
        """Start sampling; the measured interval begins now, or at process
        start when `origin` is given: the perf_counter reading of the parent
        just before it started this process."""
        self._samples.clear()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        if origin is None:
            self._origin = (time.perf_counter(), cpu_seconds())
        else:
            self._origin = (origin, 0.0)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        """Stop sampling; returns (wall seconds, scaled seconds)."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        end_wall, end_cpu = time.perf_counter(), cpu_seconds()
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()  # the speed of the last stretch
        wall = cpu = scaled = 0.0
        last_wall, last_cpu = self._origin
        for wall_begin, wall_end, cpu_begin, cpu_end in self._samples:
            wall += min(wall_begin, end_wall) - last_wall
            stretch = min(cpu_begin, end_cpu) - last_cpu
            cpu += stretch
            scaled += stretch * REFERENCE_S / max(cpu_end - cpu_begin, 1e-6)
            last_wall, last_cpu = wall_end, cpu_end
        if cpu > wall:
            scaled *= wall / cpu
        return wall, scaled
