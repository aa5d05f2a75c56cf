"""Tests for the supervised experiment harness.

Covers the run-unit decomposition, the error taxonomy, the journal and
resume path, the shared result cache, and the worker pool's failure
modes: hangs (timeout + requeue), worker crashes (retry then harden),
deterministic workload errors (fail fast as Permanent), and
kill-then-resume byte-identical reassembly.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.harness import cache as cache_mod
from repro.harness.errors import (
    PERMANENT,
    TIMEOUT,
    TRANSIENT,
    WORKER_CRASH,
    WORKLOAD_ERROR,
    backoff_delay,
    classify_event,
    should_retry,
)
from repro.harness.figures import (
    FIGURES,
    FigureOutput,
    FigureSpec,
    RunUnit,
    figure_names,
    figure_rows,
    figure_units,
    register,
)
from repro.harness.journal import (
    ManifestMismatch,
    RunJournal,
    UnitRecord,
    load_manifest,
)
from repro.harness.pool import WorkerPool
from repro.harness.supervisor import (
    HarnessInterrupted,
    HarnessOptions,
    run_figures,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
CLI_ENV = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}


# --------------------------------------------------------------------- #
# Error taxonomy
# --------------------------------------------------------------------- #


class TestErrorTaxonomy:
    def test_timeouts_and_crashes_are_transient_events(self):
        assert classify_event(TIMEOUT, None) == TRANSIENT
        assert classify_event(WORKER_CRASH, None) == TRANSIENT

    def test_workload_errors_are_permanent_unless_listed(self):
        assert classify_event(WORKLOAD_ERROR, "RuntimeError") == PERMANENT
        assert classify_event(WORKLOAD_ERROR, "ValueError") == PERMANENT
        assert classify_event(WORKLOAD_ERROR, "MemoryError") == TRANSIENT
        assert classify_event(WORKLOAD_ERROR, "TransientWorkloadError") == TRANSIENT

    def test_retry_budget(self):
        assert should_retry(TIMEOUT, None, attempt=0, max_retries=2)
        assert should_retry(TIMEOUT, None, attempt=1, max_retries=2)
        assert not should_retry(TIMEOUT, None, attempt=2, max_retries=2)
        assert not should_retry(WORKLOAD_ERROR, "RuntimeError", 0, 2)

    def test_backoff_is_exponential_and_capped(self):
        assert backoff_delay(0, 0.5, 8.0) == 0.5
        assert backoff_delay(1, 0.5, 8.0) == 1.0
        assert backoff_delay(10, 0.5, 8.0) == 8.0


# --------------------------------------------------------------------- #
# Figure decomposition
# --------------------------------------------------------------------- #


class TestFigureRegistry:
    def test_every_cli_figure_is_registered(self):
        assert figure_names() == sorted(
            [
                "fig1", "fig2", "fig3", "fig4", "fig8", "fig9", "fig10",
                "fig11", "fig12", "fig13", "ctx-switch", "energy",
                "ablations", "extensions", "endurance", "report",
            ]
        )

    def test_unit_ids_are_stable_and_unique(self):
        # A unit is identified by (figure, unit_id): ``report`` lists
        # units of several figures, whose ids may coincide.
        for name, spec in FIGURES.items():
            units = spec.enumerate_units(2000)
            ids = [(u.figure, u.unit_id) for u in units]
            assert len(ids) == len(set(ids)), f"{name}: duplicate unit ids"
            again = [(u.figure, u.unit_id) for u in spec.enumerate_units(2000)]
            assert ids == again, f"{name}: unstable enumeration"

    def test_listed_units_of_other_figures_are_their_own(self):
        for name, spec in FIGURES.items():
            for unit in spec.enumerate_units(2000):
                if unit.figure != name:
                    assert unit in FIGURES[unit.figure].enumerate_units(2000), (
                        f"{name} lists {unit.figure}/{unit.unit_id} with other params"
                    )

    def test_unit_params_are_json_serializable(self):
        for spec in FIGURES.values():
            for unit in spec.enumerate_units(2000):
                assert json.loads(json.dumps(unit.params)) == unit.params

    def test_fig8_decomposes_per_trace_and_mechanism(self):
        units = FIGURES["fig8"].enumerate_units(2000)
        assert len(units) == 3 * 6  # 3 apps x 6 mechanisms

    def test_figure_rows_filters_and_overrides(self):
        rows = figure_rows("fig2", 2000, where=lambda u: u.unit_id == "ycsb_mem")
        assert [r["workload"] for r in rows] == ["ycsb_mem"]
        (unit,) = figure_units("fig2", 2000, lambda u: u.unit_id == "ycsb_mem", seed=7)
        assert unit.params["seed"] == 7
        assert unit.params["ops"] == 2000

    def test_figure_units_rejects_unknown_param(self):
        with pytest.raises(KeyError):
            figure_units("fig1", 2000, num_intervals=10)


# --------------------------------------------------------------------- #
# Journal
# --------------------------------------------------------------------- #


class TestJournal:
    def test_roundtrip_and_supersede(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        journal.write_meta(2000, ["fig1"])
        journal.record_unit(
            UnitRecord("fig1", "u0", "failed", 3, 1.0, None, {"kind": TIMEOUT})
        )
        journal.record_unit(
            UnitRecord("fig1", "u0", "ok", 1, 0.5, {"rows": [{"x": 1}]})
        )
        journal.close()
        state = load_manifest(path)
        assert state.meta["ops"] == 2000
        assert state.records[("fig1", "u0")].ok  # later record wins
        assert state.completed()[("fig1", "u0")].payload == {"rows": [{"x": 1}]}

    def test_torn_tail_line_is_tolerated(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        journal.write_meta(2000, ["fig1"])
        journal.record_unit(UnitRecord("fig1", "u0", "ok", 1, 0.5, {"rows": []}))
        journal.close()
        with open(path, "a") as handle:
            handle.write('{"type": "unit", "figure": "fig1", "unit_id": "u1"')
        state = load_manifest(path)
        assert ("fig1", "u0") in state.records
        assert ("fig1", "u1") not in state.records

    def test_meta_mismatch_refuses_resume(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        journal.write_meta(2000, ["fig1"])
        journal.close()
        state = load_manifest(path)
        with pytest.raises(ManifestMismatch):
            RunJournal.check_meta(state, 4000, ["fig1"])
        with pytest.raises(ManifestMismatch):
            RunJournal.check_meta(state, 2000, ["fig1", "fig2"])
        RunJournal.check_meta(state, 2000, ["fig1"])  # exact match is fine

    def test_version_and_unit_digest_mismatch_refuse_resume(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        journal.write_meta(2000, ["fig1"], "digest-a")
        journal.close()
        state = load_manifest(path)
        RunJournal.check_meta(state, 2000, ["fig1"], "digest-a")
        with pytest.raises(ManifestMismatch):
            RunJournal.check_meta(state, 2000, ["fig1"], "digest-b")
        state.meta["repro_version"] = "0.0.0"
        with pytest.raises(ManifestMismatch):
            RunJournal.check_meta(state, 2000, ["fig1"], "digest-a")


# --------------------------------------------------------------------- #
# Result cache
# --------------------------------------------------------------------- #


class TestResultCache:
    def test_vanilla_cycles_deduplicated(self):
        from repro.experiments.runner import vanilla_cycles
        from repro.workloads.apps import gapbs_pr

        trace = gapbs_pr(2000, 42)
        cache = cache_mod.ResultCache()
        cache_mod.activate(cache)
        try:
            first = cache_mod.vanilla_cycles_cached(trace)
            second = cache_mod.vanilla_cycles_cached(trace)
        finally:
            cache_mod.activate(None)
        assert first == second == vanilla_cycles(trace)
        assert cache.hits == 1 and cache.misses == 1

    def test_configs_differing_in_one_field_do_not_share_an_entry(self):
        from dataclasses import replace

        from repro.config import setup_i
        from repro.workloads.apps import gapbs_pr

        trace = gapbs_pr(2000, 42)
        config = setup_i()
        slower = replace(config, freq_hz=config.freq_hz // 2)
        cache = cache_mod.ResultCache()
        cache_mod.activate(cache)
        try:
            cache_mod.vanilla_cycles_cached(trace)
            cache_mod.vanilla_cycles_cached(trace, config)  # same machine
            cache_mod.vanilla_cycles_cached(trace, slower)
        finally:
            cache_mod.activate(None)
        assert cache.hits == 1 and cache.misses == 2

    def test_directory_layer_shared_between_instances(self, tmp_path):
        a = cache_mod.ResultCache(tmp_path)
        a.put("k", 123)
        b = cache_mod.ResultCache(tmp_path)
        assert b.get("k") == 123

    def test_fingerprint_distinguishes_traces(self):
        from repro.workloads.apps import g500_sssp, gapbs_pr

        f1 = cache_mod.trace_fingerprint(gapbs_pr(2000, 42))
        f2 = cache_mod.trace_fingerprint(g500_sssp(2000, 42))
        f3 = cache_mod.trace_fingerprint(gapbs_pr(2000, 7))
        assert len({f1, f2, f3}) == 3


# --------------------------------------------------------------------- #
# Worker-pool failure modes (chaos-injected)
# --------------------------------------------------------------------- #

TEST_FIGURE = "harness-test-fig"


def _test_units(ops: int) -> list[RunUnit]:
    return [RunUnit(TEST_FIGURE, f"u{i}", {"i": i}) for i in range(3)]


def _test_execute(params: dict) -> dict:
    return {"rows": [{"i": params["i"], "square": params["i"] ** 2}]}


def _test_assemble(ops, payloads, failed) -> FigureOutput:
    rows = [row for payload in payloads.values() for row in payload["rows"]]
    return FigureOutput("\n".join(f"{r['i']}:{r['square']}" for r in rows))


@pytest.fixture
def test_figure():
    """Register a tiny figure; forked workers inherit the registration."""
    spec = FigureSpec(TEST_FIGURE, _test_units, _test_execute, _test_assemble)
    register(spec)
    yield spec
    FIGURES.pop(TEST_FIGURE, None)


def _pool(**kwargs) -> WorkerPool:
    defaults = dict(
        jobs=2, timeout_s=None, max_retries=1, backoff_base_s=0.05, backoff_cap_s=0.1
    )
    defaults.update(kwargs)
    return WorkerPool(**defaults)


class TestWorkerPoolFailureModes:
    def test_all_units_succeed(self, test_figure):
        outcomes = _pool().run(_test_units(0))
        assert all(oc.ok for oc in outcomes)
        assert {oc.unit_id for oc in outcomes} == {"u0", "u1", "u2"}

    def test_hanging_unit_times_out_and_is_retried(self, test_figure, monkeypatch):
        monkeypatch.setenv(
            "REPRO_HARNESS_FAULTS", f"{TEST_FIGURE}/u1=hang:30"
        )
        start = time.monotonic()
        outcomes = _pool(timeout_s=0.8).run(_test_units(0))
        elapsed = time.monotonic() - start
        by_id = {oc.unit_id: oc for oc in outcomes}
        assert by_id["u0"].ok and by_id["u2"].ok
        failed = by_id["u1"]
        assert not failed.ok
        assert failed.failure.kind == TIMEOUT
        assert failed.failure.severity == PERMANENT  # hardened after retries
        assert failed.attempts == 2  # initial attempt + one retry
        assert elapsed < 30  # the hang was killed, not waited out

    def test_crashing_worker_is_retried_then_succeeds(self, test_figure, monkeypatch):
        # crash:1 -> os._exit(1) on attempt 0 only; the retry succeeds.
        monkeypatch.setenv(
            "REPRO_HARNESS_FAULTS", f"{TEST_FIGURE}/u2=crash:1"
        )
        outcomes = _pool().run(_test_units(0))
        by_id = {oc.unit_id: oc for oc in outcomes}
        assert by_id["u2"].ok
        assert by_id["u2"].attempts == 2

    def test_always_crashing_worker_hardens_to_permanent(
        self, test_figure, monkeypatch
    ):
        monkeypatch.setenv("REPRO_HARNESS_FAULTS", f"{TEST_FIGURE}/u0=crash")
        outcomes = _pool(max_retries=2).run(_test_units(0))
        failed = next(oc for oc in outcomes if oc.unit_id == "u0")
        assert failed.failure.kind == WORKER_CRASH
        assert failed.failure.severity == PERMANENT
        assert failed.attempts == 3

    def test_raising_worker_fails_fast_as_permanent(self, test_figure, monkeypatch):
        monkeypatch.setenv("REPRO_HARNESS_FAULTS", f"{TEST_FIGURE}/u1=raise")
        outcomes = _pool().run(_test_units(0))
        failed = next(oc for oc in outcomes if oc.unit_id == "u1")
        assert not failed.ok
        assert failed.failure.kind == WORKLOAD_ERROR
        assert failed.failure.severity == PERMANENT
        assert failed.attempts == 1  # deterministic errors are not retried
        assert "RuntimeError" in failed.failure.detail

    def test_transient_workload_error_is_retried(self, test_figure, monkeypatch):
        monkeypatch.setenv(
            "REPRO_HARNESS_FAULTS", f"{TEST_FIGURE}/u0=transient:1"
        )
        outcomes = _pool().run(_test_units(0))
        by_id = {oc.unit_id: oc for oc in outcomes}
        assert by_id["u0"].ok
        assert by_id["u0"].attempts == 2


# --------------------------------------------------------------------- #
# Supervisor: degradation, interrupts, resume
# --------------------------------------------------------------------- #


class TestSupervisor:
    def test_serial_and_parallel_fig1_identical(self):
        serial = run_figures(["fig1"], HarnessOptions(ops=2000, jobs=1))
        parallel = run_figures(["fig1"], HarnessOptions(ops=2000, jobs=2))
        assert serial[0].text == parallel[0].text

    def test_failed_unit_degrades_figure(self, monkeypatch):
        monkeypatch.setenv("REPRO_HARNESS_FAULTS", "fig1/gapbs_pr=raise")
        (outcome,) = run_figures(["fig1"], HarnessOptions(ops=2000))
        assert not outcome.ok
        assert "DEGRADED (1/3 runs failed" in outcome.text
        assert "gapbs_pr" in outcome.text  # named in the failure reason
        assert "ycsb_mem" in outcome.text  # surviving rows still rendered

    def test_interrupt_flushes_partial_figures(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_HARNESS_FAULTS", "fig4/ycsb_mem=interrupt")
        with pytest.raises(HarnessInterrupted) as excinfo:
            run_figures(["fig1", "fig4"], HarnessOptions(ops=2000))
        partial = excinfo.value.partial
        assert partial[0].name == "fig1" and partial[0].ok
        assert partial[1].name == "fig4"
        assert "INTERRUPTED (2/3 runs completed)" in partial[1].text

    def test_interrupted_run_resumes_byte_identical(self, monkeypatch, tmp_path):
        manifest = tmp_path / "run.jsonl"
        fresh = run_figures(["fig1", "fig4"], HarnessOptions(ops=2000))
        monkeypatch.setenv("REPRO_HARNESS_FAULTS", "fig4/g500_sssp=interrupt")
        with pytest.raises(HarnessInterrupted):
            run_figures(
                ["fig1", "fig4"],
                HarnessOptions(ops=2000, manifest_path=manifest),
            )
        monkeypatch.delenv("REPRO_HARNESS_FAULTS")
        resumed = run_figures(
            ["fig1", "fig4"],
            HarnessOptions(ops=2000, manifest_path=manifest, resume=True),
        )
        assert [oc.text for oc in resumed] == [oc.text for oc in fresh]
        # The journal shows fig1 was replayed, not re-run: all its units
        # were recorded before the interrupt and none after.
        records = [
            json.loads(line)
            for line in manifest.read_text().splitlines()
            if '"unit"' in line
        ]
        fig1_records = [r for r in records if r["figure"] == "fig1"]
        assert len(fig1_records) == 3

    def test_resume_refuses_ops_mismatch(self, tmp_path):
        manifest = tmp_path / "run.jsonl"
        run_figures(["fig1"], HarnessOptions(ops=2000, manifest_path=manifest))
        with pytest.raises(ManifestMismatch):
            run_figures(
                ["fig1"],
                HarnessOptions(ops=4000, manifest_path=manifest, resume=True),
            )


    def test_resume_refuses_altered_unit_set(self, tmp_path, monkeypatch):
        from repro.cli import main

        manifest = tmp_path / "run.jsonl"
        run_figures(["fig1"], HarnessOptions(ops=2000, manifest_path=manifest))
        spec = FIGURES["fig1"]
        monkeypatch.setitem(
            FIGURES,
            "fig1",
            dataclasses.replace(
                spec, enumerate_units=lambda ops: spec.enumerate_units(ops)[:2]
            ),
        )
        with pytest.raises(ManifestMismatch):
            run_figures(
                ["fig1"],
                HarnessOptions(ops=2000, manifest_path=manifest, resume=True),
            )
        args = ["fig1", "--ops", "2000", "--manifest", str(manifest), "--resume"]
        assert main(args) == 2


# --------------------------------------------------------------------- #
# Units shared between figures (report lists the figure units it renders)
# --------------------------------------------------------------------- #


@pytest.fixture
def quick_report(monkeypatch):
    """Run the report's shape validation at the report's own ops, so a
    report at --ops 2000 takes seconds; sharing does not depend on it."""
    from repro.experiments import report_gen

    monkeypatch.setattr(report_gen, "_validation_ops", lambda ops: ops)


def _without_generated(text: str) -> list[str]:
    return [line for line in text.splitlines() if not line.startswith("Generated ")]


class TestSharedUnits:
    def test_each_unit_runs_once(self, quick_report, monkeypatch):
        import repro.harness.supervisor as supervisor

        calls: Counter = Counter()
        original = supervisor.execute_unit

        def counting(figure, params, attempt=0, unit_id=""):
            calls[figure, unit_id] += 1
            return original(figure, params, attempt=attempt, unit_id=unit_id)

        monkeypatch.setattr(supervisor, "execute_unit", counting)
        fig8, report = run_figures(["fig8", "report"], HarnessOptions(ops=2000))
        assert fig8.ok and report.ok
        listed = {
            (u.figure, u.unit_id)
            for name in ("fig8", "report")
            for u in FIGURES[name].enumerate_units(2000)
        }
        assert set(calls) == listed
        assert set(calls.values()) == {1}

    def test_shared_report_matches_report_alone(self, quick_report):
        _, shared = run_figures(["fig8", "report"], HarnessOptions(ops=2000))
        (alone,) = run_figures(["report"], HarnessOptions(ops=2000))
        assert _without_generated(shared.text) == _without_generated(alone.text)

    def test_failed_shared_unit_degrades_report(self, quick_report, monkeypatch):
        monkeypatch.setenv("REPRO_HARNESS_FAULTS", "fig8/gapbs_pr/romulus=raise")
        fig8, report = run_figures(["fig8", "report"], HarnessOptions(ops=2000))
        for outcome in (fig8, report):
            assert not outcome.ok
            assert f"DEGRADED (1/{outcome.units_total} runs failed" in outcome.text
            assert "gapbs_pr/romulus" in outcome.text
        fig8_section = report.text.split("## Figure 8")[1].split("## ")[0]
        gapbs = next(
            line for line in fig8_section.splitlines() if line.startswith("| gapbs_pr |")
        )
        assert "| - |" in gapbs  # the failed cell


# --------------------------------------------------------------------- #
# CLI integration (exit codes, kill -9 + --resume)
# --------------------------------------------------------------------- #


class TestCliIntegration:
    def test_degraded_run_exits_nonzero(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_HARNESS_FAULTS", "fig1/gapbs_pr=raise")
        assert main(["fig1", "--ops", "2000"]) == 1
        out = capsys.readouterr().out
        assert "DEGRADED" in out

    def test_keyboard_interrupt_flushes_and_exits_130(
        self, monkeypatch, tmp_path, capsys
    ):
        from repro.cli import main

        monkeypatch.setenv("REPRO_HARNESS_FAULTS", "fig1/ycsb_mem=interrupt")
        code = main(["fig1", "--ops", "2000", "--out", str(tmp_path)])
        assert code == 130
        written = (tmp_path / "fig1.txt").read_text()
        assert "Figure 1" in written
        assert "INTERRUPTED (2/3 runs completed)" in written

    def test_resume_without_manifest_is_an_error(self, capsys):
        from repro.cli import main

        assert main(["fig1", "--resume"]) == 2

    def test_sigkill_then_resume_is_byte_identical(self, tmp_path):
        """Kill a parallel run with SIGKILL mid-flight, resume, compare."""
        manifest = tmp_path / "run.jsonl"
        base_cmd = [
            sys.executable, "-m", "repro", "fig8", "--ops", "3000",
            "--manifest", str(manifest),
        ]
        proc = subprocess.Popen(
            base_cmd + ["--jobs", "2"],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=CLI_ENV,
            cwd=REPO_ROOT,
        )
        # Give it long enough to journal some units, then pull the plug.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if manifest.exists() and manifest.read_text().count('"unit"') >= 2:
                break
            if proc.poll() is not None:
                break
            time.sleep(0.1)
        if proc.poll() is None:
            os.kill(proc.pid, signal.SIGKILL)
        proc.wait()

        resumed = subprocess.run(
            base_cmd + ["--jobs", "2", "--resume"],
            capture_output=True,
            text=True,
            env=CLI_ENV,
            cwd=REPO_ROOT,
            timeout=300,
        )
        assert resumed.returncode == 0, resumed.stderr
        fresh = subprocess.run(
            [sys.executable, "-m", "repro", "fig8", "--ops", "3000"],
            capture_output=True,
            text=True,
            env=CLI_ENV,
            cwd=REPO_ROOT,
            timeout=300,
        )
        assert fresh.returncode == 0, fresh.stderr
        assert resumed.stdout == fresh.stdout
