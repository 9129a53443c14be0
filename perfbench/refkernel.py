"""Host-speed reference kernel, run in its own process.

This module never imports ``repro``: the sample it takes describes the
host (clock, neighbours on the machine), not the program's heap or
threads.  The parent writes one line per sample and reads back the
kernel's duration in nanoseconds; it samples only while the program it
measures is idle.

The kernel imitates the compiler's hot path in miniature: it builds
validated gate-like objects, layers them ASAP through a dict, groups
and sorts them.  Over 150 s of a noisy 2-core VM, normalising a fixed
compile workload by it cut the spread of 2 s block medians from 32% to
8%; a kernel of plain dict and tuple operations reached 10%.

Run: ``python3 refkernel.py`` (one line in, one duration out; EOF ends
it).  ``python3 refkernel.py --startup`` is the set-up reference: the
parent times the whole process, which imports numpy and runs the kernel
once.
"""

from __future__ import annotations

import sys
import time


class _Op:
    __slots__ = ("name", "qubits", "params")

    def __init__(self, name, qubits, params=()):
        qubits = tuple(int(q) for q in qubits)
        if len(set(qubits)) != len(qubits):
            raise ValueError("repeated qubit")
        self.name = name
        self.qubits = qubits
        self.params = tuple(float(p) for p in params)


def kernel() -> int:
    ops = []
    for i in range(1200):
        a = (i * 7919) % 53
        if i % 3:
            ops.append(_Op("cz", (a, (a + 1 + i % 7) % 53)))
        else:
            ops.append(_Op("rz", (a,), (i * 0.001,)))
    level = {}
    depth = 0
    for op in ops:
        start = max(level.get(q, 0) for q in op.qubits)
        for q in op.qubits:
            level[q] = start + 1
        depth = max(depth, start + 1)
    by_name = {}
    for op in ops:
        by_name.setdefault(op.name, []).append(op)
    ordered = sorted(ops, key=lambda op: (op.qubits, op.name))
    return depth + len(by_name) + len(ordered)


def main() -> int:
    for _ in sys.stdin:
        # An untimed pass first: the measured program ran on this CPU
        # just before, and its footprint must not show up in the sample.
        kernel()
        start = time.perf_counter_ns()
        kernel()
        sys.stdout.write(f"{time.perf_counter_ns() - start}\n")
        sys.stdout.flush()
    return 0


def startup() -> int:
    """The set-up reference: a fresh interpreter importing what the
    program's set-up imports most (numpy) and running the kernel once."""
    import decimal, fractions, json  # noqa: E401,F401
    import numpy  # noqa: F401

    kernel()
    return 0


if __name__ == "__main__":
    raise SystemExit(startup() if sys.argv[1:] == ["--startup"] else main())
