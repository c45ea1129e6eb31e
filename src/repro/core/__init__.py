"""Experiment methodology layer.

The paper's central methodological lesson (§V) is that benchmarking on
low-power ARM platforms requires *systematic, randomized* experiment
design: physical page allocation and scheduler anomalies make naive
measurement loops unreproducible.  This package provides the pieces the
rest of the library builds on:

* :mod:`repro.core.measurement` — sample containers,
* :mod:`repro.core.stats` — summary statistics, confidence intervals,
  bimodal-mode detection and least-squares fits,
* :mod:`repro.core.experiment` — randomized factorial experiment plans,
* :mod:`repro.core.report` — ASCII tables and series for regenerating
  the paper's artefacts.
"""

from repro.core.artifacts import (
    curve_from_csv,
    curve_to_csv,
    measurements_from_json,
    measurements_to_csv,
    measurements_to_json,
)
from repro.core.experiment import Experiment, ExperimentPlan, Factor, Trial
from repro.core.measurement import MeasurementSet, Sample
from repro.core.stats import (
    SummaryStats,
    confidence_interval,
    detect_modes,
    exponential_fit,
    linear_fit,
    summarize,
)
from repro.core.report import Table, render_series, render_table

__all__ = [
    "Experiment",
    "ExperimentPlan",
    "Factor",
    "MeasurementSet",
    "Sample",
    "SummaryStats",
    "Table",
    "Trial",
    "confidence_interval",
    "curve_from_csv",
    "curve_to_csv",
    "detect_modes",
    "exponential_fit",
    "linear_fit",
    "measurements_from_json",
    "measurements_to_csv",
    "measurements_to_json",
    "render_series",
    "render_table",
    "summarize",
]
