"""Self-tests of the benchmark itself.

    python3 -m pytest perfbench -q

They run warm-up-size passes, so they take well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import passes  # noqa: E402
from probes import Counters, Tracer, patched  # noqa: E402

SEEDED = [name for name, w in passes.WORKLOADS.items() if w.seeded]


def small_pass(name: str, seed: int = 0, tracer=None):
    workload = passes.WORKLOADS[name]
    counters = Counters()
    with patched(counters.install):
        p = workload.run_pass(seed, tracer=tracer, warmup=True)
    p.counts = counters.take()
    return p


@pytest.mark.parametrize("name", SEEDED)
def test_seed_changes_generated_inputs(name):
    a, b = small_pass(name, seed=0), small_pass(name, seed=1)
    assert a.digests.keys() == b.digests.keys()
    changed = [item for item in a.digests if a.digests[item] != b.digests[item]]
    assert len(changed) > len(a.digests) // 2


@pytest.mark.parametrize("name", ["figure_suite", "figure_harness"])
def test_seed_does_not_reach_the_figures(name):
    assert passes.WORKLOADS[name].seeded is False
    assert small_pass(name, seed=0).digests == small_pass(name, seed=5).digests


def test_failing_unit_is_counted_not_raised(monkeypatch):
    from repro.experiments import evaluation

    real = evaluation.stack_mechanisms

    def broken():
        factories = dict(real())
        factories["romulus"] = lambda: 1 / 0
        return factories

    monkeypatch.setattr(evaluation, "stack_mechanisms", broken)
    p = small_pass("apps_stack")
    traces = [f"{app}.{k}" for app in passes.APP_WORKLOADS for k in range(passes.TRACES_PER_APP)]
    assert sorted(p.failures) == sorted(f"{trace}/romulus" for trace in traces)
    assert "ZeroDivisionError" in p.failures["gapbs_pr.0/romulus"]
    assert len(p.digests) == len(p.unit_ms) == 7 * len(traces)


def test_failing_fuzz_schedule_is_counted_not_raised(monkeypatch):
    import repro.faults.fuzzer as fuzzer

    real = fuzzer.run_schedule

    def broken(mechanism, engine_name, trace, interval_ops, spec, index=0, **kw):
        if (mechanism, engine_name, index) == ("dirtybit", "batched", 1):
            raise RuntimeError("injected")
        return real(mechanism, engine_name, trace, interval_ops, spec, index, **kw)

    monkeypatch.setattr(fuzzer, "run_schedule", broken)
    p = small_pass("crash_fuzz")
    # The campaign stops at the failing schedule; it and the rest count.
    assert "c0/dirtybit/batched/1" in p.failures and "c0/campaign" in p.failures
    assert len(p.digests) == 8 + 1


def test_failing_figure_unit_is_counted_not_raised(monkeypatch):
    monkeypatch.setenv("REPRO_HARNESS_FAULTS", "fig2/*=raise")
    p = small_pass("figure_suite")
    assert set(p.failures) == {f"fig2/{w}" for w in ("g500_sssp", "gapbs_pr", "ycsb_mem")} | {
        "fig2#text"
    }


@pytest.mark.parametrize("name", list(passes.WORKLOADS))
def test_traced_pass_changes_nothing(name):
    from repro.memory.hierarchy import MemoryHierarchy

    original = MemoryHierarchy.__dict__["access"]
    plain = small_pass(name)
    tracer = Tracer()
    with patched(tracer.install):
        traced = small_pass(name, tracer=tracer)
    assert MemoryHierarchy.__dict__["access"] is original  # patches undone
    assert traced.digests == plain.digests
    assert traced.counts == plain.counts and plain.counts.get("ops", 0) > 0
    assert not traced.failures
    for name_, (_, _, _, self_s) in tracer.totals.items():
        assert -1e-3 <= self_s <= tracer.totals["pass"][2] + 1e-3, name_


def test_passes_are_isolated():
    first, second = small_pass("figure_suite"), small_pass("figure_suite")
    assert len(first.unit_ms) == len(second.unit_ms) > 0
    assert first.info["cache_misses"] == second.info["cache_misses"] > 0
    assert first.digests == second.digests and first.counts == second.counts
    assert len(first.segments()) == len(second.segments()) == len(first.unit_ms) + 1
    assert sum(first.segments()) == pytest.approx(first.wall_s)


def test_best_of_takes_each_segments_fastest_time():
    import run

    a, b = passes.Pass(), passes.Pass()
    a.marks, a.unit_ms = [0.0, 1.0, 3.0], [900.0]
    b.marks, b.unit_ms = [10.0, 12.0, 13.0], [1800.0]
    assert run.best_of([a, b]) == (2.0, [900.0])
    assert run.best_of([a, b], slowdown=2.0) == (1.0, [450.0])


def test_host_slowdown_pairs_each_probe_with_its_unit():
    import run

    host = run.HostSpeed()
    p = small_pass("crash_fuzz")
    probed = passes.WORKLOADS["crash_fuzz"].run_pass(0, warmup=True, probe=host.probe)
    assert len(probed.probe_s) == len(probed.unit_ms) and all(t > 0 for t in probed.probe_s)
    assert probed.digests == p.digests  # probing changes no output
    a, b = passes.Pass(), passes.Pass()
    a.probe_s, b.probe_s = [1.0, 4.0], [2.0, 2.0]
    assert host.slowdown([a, b]) == pytest.approx(1.5 / run.REFERENCE_S)


def test_unit_tail_is_highest_percentile_with_ten_beyond():
    value, pct, n = passes.unit_tail([float(i) for i in range(100)])
    assert (value, pct, n) == (89.0, 90.0, 100)
    assert passes.unit_tail([1.0, 2.0, 3.0])[0] == 2.0


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "apps_stack", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    for line in out.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
