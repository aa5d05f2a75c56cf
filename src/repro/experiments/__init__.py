"""Experiment building blocks.

Every figure sweep is defined once, as run units in
:mod:`repro.harness.figures`; the modules here hold what those units call.

* :mod:`repro.experiments.runner` — shared driver (build engine, scale
  intervals, collect results).
* :mod:`repro.experiments.motivation` — the Figure 3 stack-only replay.
* :mod:`repro.experiments.evaluation` — the Figure 8 mechanism registry,
  SSP intervals, Figure 10 granularities, Table III micro-benchmarks.
* :mod:`repro.experiments.overhead` — the Figure 12 granularities, the
  Figure 13 tracker replay, context-switch cost, and the energy/area table.
* :mod:`repro.experiments.ablations` / :mod:`repro.experiments.extensions`
  — the design-choice ablations and future-work extensions.
* :mod:`repro.experiments.validation` / :mod:`repro.experiments.report_gen`
  — multi-seed shape checks and the markdown report, both over the
  figures' units.
"""

from repro.experiments.runner import (
    RunResult,
    make_engine,
    run_mechanism,
    scaled_interval_cycles,
)
from repro.experiments import ablations, evaluation, extensions, motivation, overhead

__all__ = [
    "RunResult",
    "make_engine",
    "run_mechanism",
    "scaled_interval_cycles",
    "motivation",
    "evaluation",
    "overhead",
    "ablations",
    "extensions",
]
