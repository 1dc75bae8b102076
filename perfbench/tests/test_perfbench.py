"""Tests of the benchmark's own arithmetic: self time, counts and failures.

Run from the repository root:  python3 -m pytest perfbench/tests -q
(They are outside the package's `tests/` directory, so the package's own
test run does not collect them.)
"""

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(ROOT / "src"))

from layers import layer_metrics, ns_per_walker_step  # noqa: E402
from run import median_times  # noqa: E402
from tracer import CallStats, Tracer  # noqa: E402
from workloads import (WORKLOADS, Command, Outcome, presets,  # noqa: E402
                       run_command, tally)


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_child_calls():
    tracer = Tracer(clock=fake_clock([0, 1, 3, 4, 7, 10]))
    mod = types.ModuleType("m")
    mod.inner = lambda: None
    mod.outer = lambda: (mod.inner(), mod.inner())
    tracer.patch(mod, "inner", tracer.wrap("m.inner", mod.inner))
    tracer.patch(mod, "outer", tracer.wrap("m.outer", mod.outer))
    mod.outer()
    outer = tracer.stats[("", "m.outer")]
    inner = tracer.stats[("", "m.inner")]
    assert (outer.calls, outer.inclusive_s, outer.self_s) == (1, 10, 5)
    assert (inner.calls, inner.inclusive_s, inner.self_s) == (2, 5, 5)
    assert tracer.prefix_total("m.") == 10   # self times add up to the span


def test_recursive_call_counts_inclusive_time_once():
    tracer = Tracer(clock=fake_clock([0, 2, 5, 9]))
    mod = types.ModuleType("m")

    def rec(n):
        return mod.rec(n - 1) if n else 0

    mod.rec = rec
    tracer.patch(mod, "rec", tracer.wrap("m.rec", rec))
    mod.rec(1)
    st = tracer.stats[("", "m.rec")]
    assert (st.calls, st.inclusive_s, st.self_s) == (2, 9, 9)


def test_remove_restores_originals_after_an_exception():
    tracer = Tracer()
    mod = types.ModuleType("m")

    def boom():
        raise ValueError("x")

    mod.boom = boom
    tracer.patch(mod, "boom", tracer.wrap("m.boom", boom))
    with pytest.raises(ValueError):
        mod.boom()
    assert tracer.stats[("", "m.boom")].calls == 1
    assert not tracer._stack
    tracer.remove()
    assert mod.boom is boom


def test_counts_come_from_arguments_and_results_per_label():
    tracer = Tracer()
    traced = tracer.wrap("m.f", lambda n, k=3: n * k,
                         on_return=lambda a, r: {"work": a["n"], "out": r})
    with tracer.labelled("a"):
        traced(2)
    with tracer.labelled("b"):
        traced(5, k=1)
    assert tracer.count("work") == 7
    assert tracer.count("out", "a") == 6
    assert tracer.count("out", "b") == 5


def test_ns_per_walker_step_uses_inclusive_time_of_its_command():
    tracer = Tracer()
    tracer.stats[("ensemble.free_ou", "stochastic.simulate_ensemble")] = \
        CallStats(calls=1, inclusive_s=2.0, self_s=0.5)
    tracer.stats[("ensemble.harmonic_es", "stochastic.simulate_ensemble")] = \
        CallStats(calls=1, inclusive_s=9.0, self_s=9.0)
    tracer.counts[("ensemble.free_ou", "walker_steps")] = 100_000_000
    assert ns_per_walker_step(tracer, "ensemble.free_ou") == pytest.approx(20.0)
    assert ns_per_walker_step(tracer, "ensemble.vortex_2d") == 0.0


def test_layer_metric_names_are_declared_in_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, (_, unit) in layer_metrics(Tracer()).items():
        assert declared[name] == unit


def test_tally_counts_errors_and_failed_checks():
    outcomes = [Outcome("a", 1.0), Outcome("b", 0.1, error="IndexError"),
                Outcome("c", 1.0, problems=["not monotone"])]
    assert tally(outcomes) == (3, 2, False)
    assert tally(outcomes[:2]) == (2, 1, True)


def test_median_times_skip_failed_runs():
    passes = [{"a": Outcome("a", 1.0), "b": Outcome("b", 0.1, error="x")},
              {"a": Outcome("a", 3.0), "b": Outcome("b", 0.2, error="x")},
              {"a": Outcome("a", 2.0, problems=["bad"]),
               "b": Outcome("b", 0.3, error="x")}]
    assert median_times(passes) == {"a": 2.0}
    assert median_times(passes, [0.5, 2.0, 1.0]) == {"a": 1.75}


def _writing_main(report, code=0):
    from edsim.io import RunWriter

    def main(argv):
        writer = RunWriter(argv[argv.index("--out") + 1])
        writer.write_config({"argv": argv})
        writer.write_json("report.json", report)
        writer.finish()
        return code
    return main


def _verify(out):
    from edsim.io import verify_run_dir
    return verify_run_dir(out)


LIMITS = Command("limits.x", ("limits",),
                 lambda r: [] if r["monotone"] else ["not monotone"], ())


def test_run_command_passes_a_good_run(tmp_path):
    o = run_command(_writing_main({"monotone": True}), _verify, LIMITS, 7,
                    tmp_path / "run")
    assert o.ok and o.report == {"monotone": True}


def test_run_command_fails_a_bad_check(tmp_path):
    o = run_command(_writing_main({"monotone": False}), _verify, LIMITS, 7,
                    tmp_path / "run")
    assert not o.ok and o.problems == ["not monotone"] and not o.error


def test_run_command_fails_a_nonzero_exit(tmp_path):
    o = run_command(_writing_main({"monotone": True}, code=1), _verify,
                    LIMITS, 7, tmp_path / "run")
    assert "exit code 1" in o.error


def test_run_command_fails_an_exception_and_argparse_exit(tmp_path):
    def crash(argv):
        raise IndexError("index 1 is out of bounds")

    def reject(argv):
        raise SystemExit(2)

    o = run_command(crash, _verify, LIMITS, 7, tmp_path / "a")
    assert "IndexError" in o.error and not o.problems
    o = run_command(reject, _verify, LIMITS, 7, tmp_path / "b")
    assert o.error.startswith("SystemExit(2)")


def test_run_command_fails_a_tampered_run_directory(tmp_path):
    def tamper(argv):
        code = _writing_main({"monotone": True})(argv)
        (tmp_path / "run" / "report.json").write_text('{"monotone": true}')
        return code

    o = run_command(tamper, _verify, LIMITS, 7, tmp_path / "run")
    assert not o.ok and "does not verify" in o.problems[0]


def test_seed_goes_to_seeded_commands_only(tmp_path):
    seeded = Command("a", ("limits",), lambda r: [], ("--steps", "4"))
    plain = Command("b", ("evolve",), lambda r: [], (), seeded=False)
    assert seeded.args(5, tmp_path, warm=True) == [
        "limits", "--seed", "5", "--steps", "4", "--out", str(tmp_path)]
    assert plain.args(5, tmp_path) == ["evolve", "--out", str(tmp_path)]


def test_setup_builds_each_preset_of_a_workload_once():
    assert presets(WORKLOADS["walkers_bulk"]) == ["free", "harmonic",
                                                  "vortex_2d"]
    assert presets(WORKLOADS["wave_geometry"]) == ["interference", "vortex_2d"]
