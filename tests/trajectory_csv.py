"""Parse the trajectory CSV that ``Trajectory.to_csv`` and ``lagmech
simulate`` write, for the tests."""

import numpy as np

from lagmech.trajectories import Trajectory


def read_csv(text: str) -> Trajectory:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    header = lines[0].split(",")
    n = sum(1 for c in header if c.startswith("x"))
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return Trajectory(
        t=rows[:, 0],
        xs=rows[:, 1:1 + n],
        ys=rows[:, 1 + n:1 + 2 * n],
        energy=rows[:, 1 + 2 * n],
        lagrangian=rows[:, 2 + 2 * n],
        power=rows[:, 3 + 2 * n],
        el_residual=rows[:, 4 + 2 * n],
    )
