"""Fixed reference kernels that measure how fast the machine runs now.

On the shared VM the benchmark was built on, the same RL step took between
0.40 and 0.60 s of CPU time from one process to the next, as the host's load
changed. The kernel ``run`` runs between ops (at each RL step, every
fiftieth SFT step, after each score round and around each set-up), and
end-to-end times are scaled by REFERENCE_S over the kernel's median time in
the same phase of the same run. In one experiment, five processes running
identical RL steps gave step times spread over +-20% and step/kernel ratios
over +-5%.

``run`` touches no earl code. It does what earl's hot paths do: gathers
k+1 columns of a [V, F] float64 matrix and sums them (logits), loops over
small ints and a dict (parser, simulator, sampling loop) and multiplies a
one-hot sparse matrix (SFT and gradient).

The same VM also switches between a fast and a slow state many times a
second. Pure-Python code such as ``reward.score`` runs 1.7 times slower in
the slow state, ``run`` only 1.25 times, and a 4 ms kernel every round
cannot follow the switches. So the score and rl-train workloads run
``tick`` next to every score call and every sampled rollout instead (see
layers.between_ticks): a 70 us pure-Python kernel, also free of earl code,
that evaluates small RTL-like expression trees over a dict of signal values,
as earl's simulator does. It slows by 1.77 in the slow state, close to the
score calls next to it.
"""

from __future__ import annotations

import gc
import time

import numpy as np
import scipy.sparse as sp

# About the kernel's median CPU time inside benchmark runs on the 2-core
# x86-64 VM the bounds were set on, so scaled times read close to raw ones.
REFERENCE_S = 0.004
TICK_REFERENCE_S = 70e-6
TICK_PASSES = 10

_rng = np.random.default_rng(0)
_W = _rng.random((125, 6008))
_IDX = _rng.integers(0, 6008, 49)
_X = sp.csr_matrix((np.ones(16 * 49), _rng.integers(0, 6008, 16 * 49),
                    np.arange(0, 17 * 49, 49)), shape=(16, 6008))


def _kernel() -> None:
    for _ in range(60):
        _W[:, _IDX].sum(axis=1)
    d, s = {}, 0
    for i in range(3000):
        s = (s * 31 + i) & 0xFFFF
        d[i & 255] = s
    _X @ _W.T


def run() -> float:
    """CPU seconds of one kernel run. A first, untimed run brings the
    kernel's data back into cache, so the time does not depend on how much
    memory the benchmarked code touched before."""
    _kernel()
    t = time.process_time()
    _kernel()
    return time.process_time() - t


# Expression trees as earl's simulator evaluates them: (op, operands...),
# with ("id", name) leaves, over 8-bit signal values.
_MASK = 0xFF
_STATEMENTS = [
    ("n0", ("&", ("id", "a"), ("id", "b"))),
    ("n1", ("^", ("|", ("id", "c"), ("id", "n0")), ("id", "d"))),
    ("n2", ("|", ("~", ("&", ("id", "n1"), ("id", "a"))),
            ("^", ("id", "b"), ("id", "c")))),
    ("n3", ("?", ("==", ("id", "n2"), ("id", "d")), ("id", "n1"),
            ("~", ("id", "n0")))),
    ("q0", ("^", ("id", "q1"), ("id", "n3"))),
    ("q1", ("|", ("&", ("id", "q0"), ("id", "n2")), ("id", "a"))),
    ("y", ("&", ("|", ("id", "q0"), ("id", "q1")),
           ("~", ("^", ("id", "n3"), ("id", "b"))))),
]
_VALUES = {name: 3 for name in "abcd"}


def _eval(e: tuple, values: dict) -> int:
    op = e[0]
    if op == "id":
        return values.get(e[1], 0)
    if op == "~":
        return ~_eval(e[1], values) & _MASK
    if op == "?":
        return _eval(e[2] if _eval(e[1], values) else e[3], values)
    a, b = _eval(e[1], values), _eval(e[2], values)
    if op == "&":
        return a & b
    if op == "|":
        return a | b
    if op == "^":
        return a ^ b
    return int(a == b)


def tick() -> float:
    """CPU seconds of a fixed number of passes over the statements, with the
    garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    t = time.process_time()
    for _ in range(TICK_PASSES):
        for target, e in _STATEMENTS:
            _VALUES[target] = _eval(e, _VALUES)
    elapsed = time.process_time() - t
    if enabled:
        gc.enable()
    return elapsed
