"""Speed probe: how fast this CPU runs the workload's kind of work, now.

On a shared host the speed of a vCPU changes with other tenants' load.
On a 2-vCPU Intel Xeon VM the same code ran 20-40% faster or slower
for seconds to minutes at a time, the two vCPUs independently.  The
medians of five to ten 20-second runs of one workload spread by 8-34%
(interquartile range over median), and set-up times by up to 50%.  No
median over the passes of one run removes that.

While a timed pass runs, a daemon thread wakes every few milliseconds
and runs a short fixed kernel that does the same kind of work as the
pass (big-float arithmetic, one-element NumPy calls, NumPy on vectors)
without calling potlab.  The parts of each workload's kernel were
chosen by how closely the kernel's slowdown followed the pass's across
the host's fast and slow periods; NumPy on long vectors slows down less
than the interpreter-bound passes do, so it enters only where the pass
does such work.

The worker is pinned to one CPU, so the kernel runs on the CPU the pass
runs on and in the same moments.  Both sides are measured in thread CPU
time, which leaves out the time each spends waiting for the other.  The
pass's CPU time times the mean of (reference kernel time / kernel time)
over the samples is the pass's time at the reference speed.  Set-up is
timed the same way, with a kernel that needs no import.
"""

import threading
from time import sleep, thread_time

PERIOD_S = 0.01


def _int_kernel():
    """Modular products of 1000-bit integers: interpreter work that needs
    no import, for timing imports."""
    x = 3 ** 600
    m = x + 12345

    def run():
        s = 1
        for i in range(150):
            s = (s * x + i) % m
        return s

    return run


def _mpf_kernel(bits):
    """Sturm-sequence-like recurrence on 7 big floats."""
    from mpmath import mp, mpf

    with mp.workprec(bits):
        a = [mpf(1) / (k + 3) for k in range(7)]
        b = [mpf(1) / (k + 5) ** 2 for k in range(7)]
        x = mpf(1) / 7

    def run():
        with mp.workprec(bits):
            for _ in range(12):
                d = a[0] - x
                for i in range(1, 7):
                    d = (a[i] - x) - b[i] / d
        return d

    return run


def _numpy_scalar_kernel():
    """The exterior map and a Chebyshev level on one-element arrays."""
    import numpy as np

    def run():
        for k in range(20):
            z = np.asarray([0.3 + 0.01j * k], dtype=complex)
            w = z + np.sqrt(z - 1) * np.sqrt(z + 1)
            w = np.where(np.abs(w) < 1,
                         np.divide(1.0, w, out=np.ones_like(w), where=w != 0),
                         w)
            float(np.abs(w ** 16 + w ** -16.0)[0])

    return run


def _polyval_scalar_kernel():
    """A complex polynomial evaluated at one point at a time."""
    import numpy as np

    coeffs = np.asarray([1, 0, -1], dtype=complex)

    def run():
        for k in range(40):
            abs(np.polyval(coeffs, complex(0.3, 0.01 * k)))

    return run


def _numpy_vector_kernel():
    """Log-distances from a few points to a complex vector."""
    import numpy as np

    v = np.exp(1j * np.linspace(0.0, 6.0, 8192))

    def run():
        s = 0.0
        for k in range(4):
            s += float(np.sum(np.log(np.abs(v - 0.5 * v[k]))))
        return s

    return run


def kernel(parts, bits):
    """One callable running every named part once."""
    make = {"int": _int_kernel,
            "mpf": lambda: _mpf_kernel(bits),
            "numpy_scalar": _numpy_scalar_kernel,
            "polyval_scalar": _polyval_scalar_kernel,
            "numpy_vector": _numpy_vector_kernel}
    runs = [make[p]() for p in parts]

    def run():
        for r in runs:
            r()

    return run


class SpeedProbe:
    """Thread CPU seconds of `run()` samples taken while the probe is on."""

    def __init__(self, run):
        self._run = run
        self._stop = threading.Event()
        self._thread = None
        self.samples = []

    def __enter__(self):
        self.samples = []
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _loop(self):
        while not self._stop.is_set():
            sleep(PERIOD_S)
            t0 = thread_time()
            self._run()
            self.samples.append(thread_time() - t0)
