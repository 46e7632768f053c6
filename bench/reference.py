"""A fixed reference load, timed just before and just after each bellsim run.

The host this benchmark was built on is shared, and its speed swings by up to
2x within seconds: CPU time swings with wall time, so the process is not
waiting, the CPU is slower.  The swings do not slow all code alike, so the
reference is the sum of four small kernels, each shaped like one kind of
bellsim hot path: pure-Python rows and formatting, NumPy calls on tiny arrays,
NumPy passes over MB-sized arrays, and small objects serialised to JSON.  A
run's wall time divided by the reference time around it (``wall_norm``) is
the run's cost in units of the host's speed at that moment.  Nothing in here
may import bellsim: a change to bellsim must not move the reference.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np


def python_rows(n: int = 10_000) -> int:
    """Small dicts, tuples and float formatting, as in record building and CSV export."""
    acc = 0
    table = {}
    for i in range(n):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
        acc += len(f"{i},{key[0]},{key[1]},{i * 0.5:.6g}")
    return acc + len(table)


def numpy_small(n: int = 750) -> float:
    """NumPy calls on 2x2x2 arrays, as in the observers' probability tables."""
    p = np.full((2, 2, 2), 0.125)
    acc = 0.0
    for i in range(n):
        q = p.sum(axis=i % 3, keepdims=True)
        r = p / q
        acc += float(np.moveaxis(r, 0, -1).reshape(-1)[i % 8])
    return acc


def numpy_bulk(n: int = 1 << 16) -> float:
    """Philox draws, inverse-CDF sampling and counting over MB-sized arrays, as in bulk sampling."""
    u = np.random.Generator(np.random.Philox(key=7)).random((n, 4))
    idx = np.searchsorted(np.cumsum(np.full(4, 0.25)), u[:, 2], side="right")
    return float(np.bincount(idx, minlength=5)[0])


@dataclass(frozen=True)
class _Node:
    name: str
    value: float
    tags: tuple


def objects(n: int = 3_000) -> int:
    """Frozen dataclasses grouped, sorted and written to JSON, as in the trace and summary."""
    nodes = [_Node(f"n{i}", i * 0.25, (i % 3, i % 5)) for i in range(n)]
    groups = {}
    for node in nodes:
        groups.setdefault(node.tags, []).append(node)
    doc = {str(k): [{"name": x.name, "value": x.value} for x in v] for k, v in groups.items()}
    return len(json.dumps(doc, sort_keys=True)) + len(sorted(nodes, key=lambda x: (x.tags, -x.value)))


KERNELS = (python_rows, numpy_small, numpy_bulk, objects)


def reference_s(repeats: int = 5) -> float:
    """Median over ``repeats`` passes of the summed kernel times, after one untimed pass.

    The untimed pass takes the first-call costs (page faults, caches) that
    would otherwise make the passes before a run slower than those after it.
    """
    for kernel in KERNELS:
        kernel()
    passes = []
    for _ in range(repeats):
        total = 0.0
        for kernel in KERNELS:
            t = time.perf_counter()
            kernel()
            total += time.perf_counter() - t
        passes.append(total)
    return sorted(passes)[len(passes) // 2]
