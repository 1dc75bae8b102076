"""Rerun the six ensemble cases of acceptance item a04 over a seed range.

    python3 tools/seed_sweep.py FIRST LAST

The cases are the presets free, harmonic and interference, each sampled
with (gamma = 3, eta = 1e-3) and (gamma = 1, eta = 0.05): 1e5 walkers,
checkpoints every steps // 6 steps, and calibration seed 100 + j at
checkpoint j, as in a04.  Only the ensemble seed varies, over FIRST..LAST
inclusive (a04 uses 42).  For each case the script prints the number of
checkpoints inside the density band at every seed, marked `u` when any
checkpoint is underpowered, and the pass rate: a case passes at five or
more checkpoints in band with none underpowered.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from edsim.cli import density_checkpoints  # noqa: E402
from edsim.grids import process_label  # noqa: E402
from edsim.presets import build_preset  # noqa: E402
from edsim.quantum import evolve_trajectory  # noqa: E402
from edsim.stochastic import simulate_ensemble, with_eta  # noqa: E402

WALKERS = 100_000
PRESETS = ("free", "harmonic", "interference")
PROCESSES = ((3.0, 1e-3), (1.0, 0.05))   # (gamma, eta)
MIN_IN_BAND = 5


def in_band(sc, timeline, gamma: float, eta: float, seed: int) -> tuple[int, bool]:
    """Checkpoints in band and whether any is underpowered, for one case."""
    system = with_eta(sc.system, eta, gamma_exponent=gamma)
    ens = simulate_ensemble(timeline, sc.potentials, system,
                            n_walkers=WALKERS, seed=seed,
                            record_stride=sc.steps // 6)
    reports = density_checkpoints(sc, timeline, ens, 200, 100)
    return (sum(rep["passed"] for rep in reports),
            any(rep["underpowered"] for rep in reports))


def sweep(seeds: range) -> None:
    print(f"{'case':<16}" + "".join(f"{s:>5}" for s in seeds) + "   pass")
    for preset in PRESETS:
        sc = build_preset(preset)
        timeline = evolve_trajectory(sc.state, sc.potentials, sc.dt, sc.steps)
        for gamma, eta in PROCESSES:
            cells, ok = [], 0
            for seed in seeds:
                n, under = in_band(sc, timeline, gamma, eta, seed)
                cells.append(f"{n}{'u' if under else ''}")
                ok += n >= MIN_IN_BAND and not under
            label = f"{preset}/{process_label(gamma)}"
            print(f"{label:<16}" + "".join(f"{c:>5}" for c in cells)
                  + f"   {ok}/{len(seeds)}", flush=True)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    first, last = int(sys.argv[1]), int(sys.argv[2])
    if last < first:
        sys.exit("seed_sweep: LAST must not be below FIRST")
    sweep(range(first, last + 1))
