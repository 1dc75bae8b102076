"""Rerun the vanishing-noise study of `edsim limits` over a seed range.

    python3 tools/limit_sweep.py FIRST LAST

For every preset at its defaults and every seed in FIRST..LAST inclusive,
the script runs the study of `limits` (`edsim.cli.limit_study`:
`edsim.cli.LIMIT_WALKERS` ES walkers, the default of `limits --walkers`, at
each of eta = 1e-2, 1e-3 and 1e-4 against their eta = 0 paths) and prints
the fitted exponent of the mean largest deviation in eta, marked `*` where
the deviations do not fall monotonically.  The Brownian
displacement sqrt(eta t / m) gives 1/2.  For each preset it then prints the
exponent's mean over the seeds and its sample standard deviation (`-` for
one seed), the spread a gate on |exponent - 1/2| has to allow for.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from edsim.cli import LIMIT_WALKERS, limit_study  # noqa: E402
from edsim.presets import PRESETS, build_preset  # noqa: E402
from edsim.quantum import evolve_trajectory  # noqa: E402


def sweep(seeds: range) -> None:
    print(f"{'preset':<16}" + "".join(f"{s:>8}" for s in seeds)
          + f"{'mean':>8}{'sd':>8}")
    for preset in PRESETS:
        sc = build_preset(preset)
        timeline = evolve_trajectory(sc.state, sc.potentials, sc.dt, sc.steps)
        cells, exponents = [], []
        for seed in seeds:
            study = limit_study(sc, timeline, LIMIT_WALKERS, seed)
            exponents.append(study["deviation_exponent"])
            mark = "" if study["monotone"] else "*"
            cells.append(f"{exponents[-1]:.3f}{mark}")
        sd = f"{np.std(exponents, ddof=1):.3f}" if len(exponents) > 1 else "-"
        print(f"{preset:<16}" + "".join(f"{c:>8}" for c in cells)
              + f"{np.mean(exponents):>8.3f}{sd:>8}", flush=True)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    first, last = int(sys.argv[1]), int(sys.argv[2])
    if last < first:
        sys.exit("limit_sweep: LAST must not be below FIRST")
    sweep(range(first, last + 1))
