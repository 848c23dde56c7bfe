"""Fixed reference jobs that tell how fast the host runs a kind of work right now.

On a shared 2-core x86_64 host, other tenants slowed the program by up to
2x for spells of seconds to minutes.  ``time.process_time`` drifted with
wall time, so the slowdown was not descheduling but contention inside the
CPU, and it hit kinds of work differently: interpreter-bound code slowed
about twice as much as a LAPACK eigensolve.  So each workload names the job whose
work is most like its own:

* ``interpreter``: a pure-Python loop, products of polynomials held in
  dicts and small matrix products, like the jones workloads, which run in
  the interpreter (the bracket's state sum, parsing) and in small numpy
  calls;
* ``eigensolve``: one dense 1024x1024 ``eigvalsh``, the call that takes
  most of a ``verify`` run.

``run.py`` scales the wall time of each round of ops by ``REF_S[kind]``
over the job's time beside it: a change to the program still moves the
scaled time in full, while the host's drift mostly cancels.
"""

import time

import numpy as np

# time of each job on an idle 2-core x86_64 host (Python 3.11, numpy 2.4,
# OpenBLAS on one thread), so that scaled times read as wall times on that host
REF_S = {"interpreter": 2.5e-3, "eigensolve": 0.105}

_Q = np.linalg.qr(np.random.default_rng(0).standard_normal((8, 8)))[0]
_P = {e: (e * 7) % 5 - 2 for e in range(-6, 7)}   # a fixed Laurent polynomial


def interpreter_s() -> float:
    """Wall time of a pure-Python loop, ten products of dict polynomials
    and 300 small matrix products (orthogonal, so that values stay normal
    floats)."""
    t0 = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    q = {0: 1}
    for _ in range(10):
        r = {}
        for a, x in q.items():
            for b, y in _P.items():
                if -30 <= a + b <= 30:
                    r[a + b] = r.get(a + b, 0) + x * y
        q = {e: c % 1000003 for e, c in r.items() if c}
    m = _Q
    for _ in range(300):
        m = _Q @ m
    return time.perf_counter() - t0


def eigensolve_s() -> float:
    """Wall time of the eigenvalues of a fixed symmetric 1024x1024 matrix.
    The matrix is made outside the timer and not kept, so that it does not
    count in peak_rss_mb between calls."""
    h = np.random.default_rng(0).standard_normal((1024, 1024))
    h += h.T
    t0 = time.perf_counter()
    np.linalg.eigvalsh(h)
    return time.perf_counter() - t0


JOBS = {"interpreter": interpreter_s, "eigensolve": eigensolve_s}


def scale(kind: str, seconds: float) -> float:
    """Factor that turns wall time into reference seconds, given the job's
    time ``seconds`` beside it."""
    return REF_S[kind] / seconds
