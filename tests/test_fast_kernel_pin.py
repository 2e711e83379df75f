"""Fast-kernel estimates pinned across commits.

The rest of the fast-kernel suite checks *properties* — statistical
equivalence with exact mode, block determinism, scripted conformance —
none of which notices a change that moves fast-mode values while
keeping them statistically sound.  This file pins the values
themselves: the ``repr`` of a small serial grid (table-1a Poisson,
k-f-t and A_D_S cells under the default ``PoissonFaults``, 2 blocks of
64 reps).  Any edit to the kernel, the fault pre-draws or the replan
table that changes a single bit of a fast estimate fails here; an
intended change re-records the reprs and says why.
"""

import dataclasses

import pytest

from repro.experiments.config import table_spec
from repro.sim.backends import SerialBackend
from repro.sim.parallel import BatchRunner

SEED = 2006
BLOCK = 64
REPS = 2 * BLOCK

#: (U, λ, scheme) -> repr of the finalized fast-kernel CellEstimate.
PINNED = {
    (0.76, 0.0014, "Poisson"): (
        "CellEstimate(p_timely=ProportionEstimate(value=0.1484375, "
        "low=0.09713463112002767, high=0.22022729129185392, trials=128), "
        "energy_timely=MeanEstimate(value=38831.163432029396, "
        "low=38351.43499344394, high=39310.891870614854, count=19), "
        "energy_all=MeanEstimate(value=31526.58292314123, "
        "low=30557.39091271063, high=32495.774933571833, count=128), "
        "mean_finish_time_timely=9707.790858007347, "
        "mean_detected_faults=8.75, mean_checkpoints=39.5703125, "
        "mean_sub_checkpoints=0.0, reps=128)"
    ),
    (0.76, 0.0014, "k-f-t"): (
        "CellEstimate(p_timely=ProportionEstimate(value=0.1640625, "
        "low=0.10988331642327533, high=0.2378180761036338, trials=128), "
        "energy_timely=MeanEstimate(value=38888.812925253114, "
        "low=38563.82051454706, high=39213.80533595917, count=21), "
        "energy_all=MeanEstimate(value=31595.417105165146, "
        "low=30652.902363872174, high=32537.93184645812, count=128), "
        "mean_finish_time_timely=9722.203231313277, "
        "mean_detected_faults=8.5546875, mean_checkpoints=38.6328125, "
        "mean_sub_checkpoints=0.0, reps=128)"
    ),
    (0.76, 0.0014, "A_D_S"): (
        "CellEstimate(p_timely=ProportionEstimate(value=1.0, "
        "low=0.9708630436808796, high=1.0, trials=128), "
        "energy_timely=MeanEstimate(value=53881.300258099334, "
        "low=52874.7488753673, high=54887.851640831366, count=128), "
        "energy_all=MeanEstimate(value=53881.300258099334, "
        "low=52874.7488753673, high=54887.851640831366, count=128), "
        "mean_finish_time_timely=8157.088074129228, "
        "mean_detected_faults=8.78125, mean_checkpoints=45.0234375, "
        "mean_sub_checkpoints=88.8828125, reps=128)"
    ),
    (0.82, 0.0016, "Poisson"): (
        "CellEstimate(p_timely=ProportionEstimate(value=0.0, low=0.0, "
        "high=0.0291369563191205, trials=128), "
        "energy_timely=MeanEstimate(value=nan, low=nan, high=nan, "
        "count=0), energy_all=MeanEstimate(value=23203.02780667953, "
        "low=22349.81831975518, high=24056.237293603877, count=128), "
        "mean_finish_time_timely=nan, mean_detected_faults=7.203125, "
        "mean_checkpoints=30.8828125, mean_sub_checkpoints=0.0, reps=128)"
    ),
    (0.82, 0.0016, "k-f-t"): (
        "CellEstimate(p_timely=ProportionEstimate(value=0.0, low=0.0, "
        "high=0.0291369563191205, trials=128), "
        "energy_timely=MeanEstimate(value=nan, low=nan, high=nan, "
        "count=0), energy_all=MeanEstimate(value=22877.06829189817, "
        "low=21889.688998884125, high=23864.447584912214, count=128), "
        "mean_finish_time_timely=nan, mean_detected_faults=6.828125, "
        "mean_checkpoints=26.984375, mean_sub_checkpoints=0.0, reps=128)"
    ),
    (0.82, 0.0016, "A_D_S"): (
        "CellEstimate(p_timely=ProportionEstimate(value=1.0, "
        "low=0.9708630436808796, high=1.0, trials=128), "
        "energy_timely=MeanEstimate(value=62712.67317441674, "
        "low=61739.14647778573, high=63686.19987104775, count=128), "
        "energy_all=MeanEstimate(value=62712.67317441674, "
        "low=61739.14647778573, high=63686.19987104775, count=128), "
        "mean_finish_time_timely=8388.142206967315, "
        "mean_detected_faults=10.453125, mean_checkpoints=50.453125, "
        "mean_sub_checkpoints=100.171875, reps=128)"
    ),
}


def _grid():
    spec = table_spec("1a")
    cells = list(PINNED)
    jobs = [
        dataclasses.replace(
            spec.cell_job(u, lam, scheme, reps=REPS, seed=SEED),
            kernel="fast",
        )
        for u, lam, scheme in cells
    ]
    runner = BatchRunner(backend=SerialBackend(), chunk_size=BLOCK)
    return dict(zip(cells, runner.run_cells(jobs)))


@pytest.fixture(scope="module")
def grid():
    return _grid()


@pytest.mark.parametrize(
    "cell", list(PINNED), ids=lambda c: f"{c[2]}-U{c[0]}-lam{c[1]}"
)
def test_fast_estimate_matches_pinned_repr(grid, cell):
    assert repr(grid[cell]) == PINNED[cell]
