"""Simulator and validation toolkit for entropic quantum dynamics.

Modules by theme; names are imported from them, e.g.
`from edsim.quantum import evolve`:

* grids      - configuration grids, fields, particle systems and their
               fluctuation law
* entropic   - maximum-entropy transition steps, Chapman-Kolmogorov
               composition, Bayes reversal, maximizer verification
* quantum    - lattice Hamiltonians, Crank-Nicolson evolution, Madelung
               variables, gauge transforms, winding numbers
* stochastic - trajectory ensembles of every fluctuation law, one drift
               rule, deterministic limit, centre-of-mass reports
* geometry   - probability-simplex phase space: symplectic form, metric,
               complex structure, Hamilton-Killing checks, Fisher metric
* stats      - density comparisons with calibrated noise bands, power-law
               and convergence-order fits
* presets    - ready-made scenarios
* io         - deterministic JSON/CSV run artifacts
* cli        - command-line entry point
"""

__version__ = "0.1.0"
