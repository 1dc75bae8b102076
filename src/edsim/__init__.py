"""Simulator and validation toolkit for entropic quantum dynamics.

Subpackages by theme:

* grids      - configuration grids, fields, particle systems and their
               fluctuation law
* entropic   - maximum-entropy transition steps, Chapman-Kolmogorov
               composition, Bayes reversal, maximizer verification
* quantum    - lattice Hamiltonians, Crank-Nicolson evolution, Madelung
               variables, gauge transforms, winding numbers
* stochastic - trajectory ensembles (ES / OU / fractional), deterministic
               limit, centre-of-mass reports
* geometry   - probability-simplex phase space: symplectic form, metric,
               complex structure, Hamilton-Killing checks, Fisher metric
* stats      - density comparisons with calibrated noise bands, power-law
               and convergence-order fits
* presets    - ready-made scenarios
* io         - deterministic JSON/CSV run artifacts
* cli        - command-line entry point
"""

__version__ = "0.1.0"

from .grids import (ConfigGrid, ParticleSystem, ScalarField, VectorField,
                    gradient, integrate, particles_on_line, rectangle_loop,
                    single_particle)
from .entropic import (GaussianStep, MaxEntProblem, bayes_reverse,
                       chapman_kolmogorov_step, maxent_transition,
                       transition_kernel_at, verify_maximizer)
from .quantum import (CrankNicolson, MadelungPair, Potentials, WaveState,
                      build_potentials, charge_quantization_check, energy,
                      evolve, evolve_trajectory, free_potentials,
                      gauge_transform, gaussian_packet, hamilton_residuals,
                      hamiltonian_matrix, madelung, phase_gradient,
                      position_moments, quantum_potential, reverse_potentials,
                      superpose, time_reverse, winding_number)
from .stochastic import (Ensemble, TransitionParams, bohmian_trajectories,
                         center_of_mass_report, draw_initial_positions,
                         drift_velocity_field, fluctuation_covariance,
                         max_deviation_from_deterministic, scaling_exponent,
                         simulate_ensemble, with_eta)
from .geometry import (EPhasePoint, EPhaseTangent, apply_J,
                       commutator_identity_gap, fs_length_squared,
                       geometry_battery, hamiltonian_flow_step,
                       kernel_gradient, killing_residual, metric,
                       normalization_gradient, poisson_bracket, project_tgf,
                       random_tgf_tangent, symplectic,
                       transition_information_metric)
from .stats import (compare_density, convergence_order, fit_power_law,
                    histogram_on_grid)
from .presets import PRESETS, Scenario, build_preset
from .io import RunWriter, load_json, save_json, verify_run_dir
