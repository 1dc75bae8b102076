"""Per-layer instrumentation of edsim, applied from outside the package.

`instrument` wraps every public function of each layer module, plus a few
public methods and the sparse LU factorization, in a `Tracer`.  References
that other edsim modules imported by name are replaced too, so calls between
modules are traced.  `layer_metrics` turns one traced pass into the
per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import inspect
import sys

from tracer import Tracer

LAYERS = ("cli", "presets", "quantum", "stochastic", "grids", "stats",
          "geometry", "entropic", "io")

# public methods traced besides the module-level functions
METHODS = {
    "grids": {"ConfigGrid": ("wrap",)},
    "quantum": {"CrankNicolson": ("__init__", "step")},
    "io": {"RunWriter": ("__init__", "write_config", "write_json",
                         "write_csv", "finish")},
}

# counts read from arguments and results: name -> on_return hook
COUNTERS = {
    "stochastic.simulate_ensemble": lambda a, ens: {
        "walker_steps": a["n_walkers"] * (len(a["timeline"]) - 1),
        "escaped": ens.meta["escaped"]},
    "stats.compare_density": lambda a, _: {
        "calibration_draws": a["n_calibration"]},
}


def instrument(tracer: Tracer) -> None:
    """Install tracing wrappers; `tracer.remove()` takes them out."""
    modules = {layer: importlib.import_module(f"edsim.{layer}")
               for layer in LAYERS}
    wrapped = {}   # original function -> wrapper
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                name = f"{layer}.{attr}"
                wrapped[obj] = tracer.wrap(name, obj, COUNTERS.get(name))
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                tracer.patch(cls, meth, tracer.wrap(
                    f"{layer}.{cls_name}.{meth}", cls.__dict__[meth]))
    for mod in [m for n, m in sys.modules.items()
                if n == "edsim" or n.startswith("edsim.")]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                tracer.patch(mod, attr, wrapped[obj])
    # every CN set-up factorizes through scipy's sparse LU
    spla = importlib.import_module("scipy.sparse.linalg")
    for attr in ("splu", "factorized"):
        tracer.patch(spla, attr, tracer.wrap(f"quantum.lu.{attr}",
                                             getattr(spla, attr)))


def ns_per_walker_step(tracer: Tracer, label: str) -> float:
    """Time of simulate_ensemble per walker-step in one command, in ns.

    Uses the inclusive time (drift lookup, wrap and noise included), so
    moving work between the functions of one walker step does not move it.
    """
    steps = tracer.count("walker_steps", label)
    if not steps:
        return 0.0
    busy = tracer.total("stochastic.simulate_ensemble", label=label)
    return 1e9 * busy / steps


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass as {name: (value, unit)}."""
    t = tracer.total
    calls = lambda name: int(t(name, "calls"))
    times = {
        "stochastic.simulate_ensemble_s": t("stochastic.simulate_ensemble"),
        "stochastic.interpolate_vector_s": t("stochastic.interpolate_vector"),
        "stochastic.drift_velocity_field_s":
            t("stochastic.drift_velocity_field"),
        "stochastic.bohmian_s": t("stochastic.bohmian_trajectories"),
        "grids.wrap_s": t("grids.ConfigGrid.wrap"),
        "grids.gradient_s": t("grids.gradient"),
        "quantum.energy_s": t("quantum.energy"),
        "quantum.hamiltonian_matrix_s": t("quantum.hamiltonian_matrix"),
        "quantum.cn_setup_s": t("quantum.CrankNicolson.__init__"),
        "quantum.cn_step_s": t("quantum.CrankNicolson.step"),
        "quantum.evolve_trajectory_s": t("quantum.evolve_trajectory"),
        "quantum.madelung_s": t("quantum.madelung"),
        "quantum.position_moments_s": t("quantum.position_moments"),
        "stats.compare_density_s": t("stats.compare_density"),
        "geometry.battery_s": t("geometry.geometry_battery"),
        "geometry.killing_residual_s": t("geometry.killing_residual"),
        "geometry.fs_length_s": t("geometry.fs_length_squared"),
        "entropic.maxent_transition_s": t("entropic.maxent_transition"),
        "entropic.chapman_kolmogorov_s": t("entropic.chapman_kolmogorov_step"),
        "entropic.verify_maximizer_s": t("entropic.verify_maximizer"),
        "io.write_s": tracer.prefix_total("io.RunWriter.", "inclusive_s"),
        "io.verify_s": t("io.verify_run_dir"),
        "presets.build_s": t("presets.build_preset"),
    }
    for layer in LAYERS:
        times[f"{layer}.self_s"] = tracer.prefix_total(f"{layer}.")
    counts = {
        "stochastic.walker_steps": tracer.count("walker_steps"),
        "stochastic.interpolate_vector_calls":
            calls("stochastic.interpolate_vector"),
        "stochastic.drift_velocity_field_calls":
            calls("stochastic.drift_velocity_field"),
        "stochastic.escaped": tracer.count("escaped"),
        "grids.wrap_calls": calls("grids.ConfigGrid.wrap"),
        "quantum.hamiltonian_builds": calls("quantum.hamiltonian_matrix"),
        "quantum.cn_factorizations":
            calls("quantum.lu.splu") + calls("quantum.lu.factorized"),
        "quantum.cn_steps": calls("quantum.CrankNicolson.step"),
        "stats.calibration_draws": tracer.count("calibration_draws"),
        "geometry.hamilton_field_calls": calls("geometry.hamilton_field"),
        "io.bytes_written": tracer.count("bytes_written"),
    }
    ns = {
        "stochastic.ns_per_walker_step.free_ou":
            ns_per_walker_step(tracer, "ensemble.free_ou"),
        "stochastic.ns_per_walker_step.harmonic_es":
            ns_per_walker_step(tracer, "ensemble.harmonic_es"),
    }
    return ({k: (v, "s") for k, v in times.items()}
            | {k: (v, "count") for k, v in counts.items()}
            | {k: (v, "ns") for k, v in ns.items()})
