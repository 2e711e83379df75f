"""Workload inputs: StudySpec payloads made only from the workload seed.

Every workload sends submissions of one shape — an 8-cell table-1a
``operating_map`` study (one U × two λ × four schemes) — and only the
study seed or the lattice position changes between submissions, so the
latency percentiles of a window describe one kind of request.

Study seeds are ``workload_seed · 2**20 + index``: two workload seeds
never share a study seed, and since an operating-map cell's seed is its
study seed plus a function of its (U, λ) point, two workload seeds never
share a cell identity either.  Window submissions use indices below
``2**19``; warm-up submissions use indices from ``2**19`` up, so set-up
never touches a cell the window measures.
"""

from __future__ import annotations

import random
import threading
from typing import Dict, List

TABLE = "1a"
U = 0.8
LAMS = (0.0014, 0.0016)
WARM_SET_SIZE = 8
WARMUP_COUNT = 2

#: Repetitions per cell.  An exact 32-rep cell is one short block, so
#: the process backend's latency-adaptive dispatch always ships a cold
#: submission's eight blocks as one group: at 64 reps block latency sits
#: near the point where the group splits, and the run flips between
#: one and two busy workers.  Both sizes put well over 100 submissions
#: in a 30-second window.
EXACT_REPS = 32
FAST_REPS = 256

#: Sliding-lattice step in λ.  Tiny, so the cost of a cell stays flat
#: across the hundreds of lattice points a window walks.
LATTICE_STEP = 1e-7

_SEED_STRIDE = 1 << 20
WARMUP_BASE = 1 << 19


def study_seed(workload_seed: int, index: int) -> int:
    if workload_seed < 0:
        raise ValueError(f"workload seed must be >= 0, got {workload_seed}")
    if not 0 <= index < _SEED_STRIDE:
        raise ValueError(f"study index out of range: {index}")
    return workload_seed * _SEED_STRIDE + index


def exact_spec(seed: int) -> Dict[str, object]:
    """One 8-cell exact study (the warm-store and cold-process shape)."""
    return {
        "kind": "operating_map",
        "table": TABLE,
        "u_grid": [U],
        "lam_grid": list(LAMS),
        "reps": EXACT_REPS,
        "seed": seed,
    }


def lattice_lam(point: int) -> float:
    return round(LAMS[0] + point * LATTICE_STEP, 12)


def lattice_spec(seed: int, window: int) -> Dict[str, object]:
    """Window ``window`` of the sliding lattice: points ``window, window+1``.

    Consecutive windows share one λ point, i.e. four of their eight
    cells, and every study of one walk has the same seed, so a shared
    point is the same cell identity in both.
    """
    return {
        "kind": "operating_map",
        "table": TABLE,
        "u_grid": [U],
        "lam_grid": [lattice_lam(window), lattice_lam(window + 1)],
        "reps": FAST_REPS,
        "seed": seed,
        "kernel": "fast",
    }


def warm_set(workload_seed: int) -> List[Dict[str, object]]:
    return [
        exact_spec(study_seed(workload_seed, index))
        for index in range(WARM_SET_SIZE)
    ]


def warmup_specs(workload: str, workload_seed: int) -> List[Dict[str, object]]:
    """Set-up submissions: same shape, seeds no window uses."""
    seeds = [
        study_seed(workload_seed, WARMUP_BASE + index)
        for index in range(WARMUP_COUNT)
    ]
    if workload == "overlap-fast":
        return [lattice_spec(seeds[0], window) for window in range(WARMUP_COUNT)]
    return [exact_spec(seed) for seed in seeds]


class SpecStream:
    """The window's submissions, handed out to client threads.

    ``warm-store`` clients each draw from the warm set with their own
    seeded generator; ``cold-process`` takes fresh study seeds in order;
    ``overlap-fast`` clients take consecutive lattice windows of one
    study seed from a shared counter, so the two clients' in-flight
    windows overlap.
    """

    def __init__(self, workload: str, workload_seed: int, clients: int) -> None:
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.workload_seed = workload_seed
        self._lock = threading.Lock()
        self._next = 0
        self._warm = warm_set(workload_seed)
        self._choosers = [
            random.Random(workload_seed * 1009 + client)
            for client in range(clients)
        ]

    def next_spec(self, client: int) -> Dict[str, object]:
        if self.workload == "warm-store":
            return self._choosers[client].choice(self._warm)
        with self._lock:
            index = self._next
            self._next += 1
        if self.workload == "cold-process":
            return exact_spec(study_seed(self.workload_seed, index))
        return lattice_spec(study_seed(self.workload_seed, 0), index)


WORKLOADS = ("warm-store", "cold-process", "overlap-fast")
