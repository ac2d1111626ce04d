"""Benchmark: ablations of the CDRW design choices called out in README.md
("Deviations from the paper").

Three knobs of Algorithm 1 are ablated on the same PPM instance:

* the candidate-size schedule (geometric ``(1+1/8e)`` growth vs linear +1),
* the stopping parameter δ (the analytic conductance vs fixed alternatives),
* the candidate-scan policy (scan-all vs stop-at-first-failure, the literal
  pseudocode reading — see README.md, "Deviations from the paper").
"""

from __future__ import annotations

import math

from repro.api import RunConfig, detect
from repro.core import CDRWParameters
from repro.experiments.runner import ExperimentTable
from repro.experiments.reporting import render_experiment
from repro.graphs import planted_partition_graph, ppm_expected_conductance
from repro.metrics import average_f_score


def _instance():
    n, r = 1024, 2
    p = 2 * math.log(n) ** 2 / n
    q = 0.6 / n
    ppm = planted_partition_graph(n, r, p, q, seed=5)
    delta = ppm_expected_conductance(n, r, p, q)
    return ppm, delta


def _run_variants(variants):
    ppm, delta = _instance()
    table = ExperimentTable(
        name="cdrw_ablations",
        description="F-score and detections of CDRW parameter variants on one PPM instance",
    )
    for label, parameters in variants.items():
        detection = detect(
            ppm.graph,
            backend="scalar",
            params=parameters,
            delta_hint=delta,
            config=RunConfig(seed=3),
        ).detection
        table.add_row(
            parameters={"variant": label},
            measurements={
                "f_score": average_f_score(detection, ppm.partition),
                "communities": float(detection.num_communities),
                "total_walk_steps": float(detection.total_walk_steps()),
            },
        )
    return table


def test_ablation_size_schedule_and_scan_policy(once, capsys):
    variants = {
        "paper_defaults": CDRWParameters(),
        "linear_schedule": CDRWParameters(size_schedule="linear"),
        "first_failure_scan": CDRWParameters(stop_at_first_failure=True),
        "no_mass_condition": CDRWParameters(min_mass=0.0),
    }
    table = once(_run_variants, variants)
    with capsys.disabled():
        print()
        print(render_experiment(table))
    scores = {str(row.parameters["variant"]): row.measurements["f_score"] for row in table.rows}
    assert scores["paper_defaults"] > 0.85
    # The linear schedule is the exhaustive reference: the geometric schedule
    # must not lose accuracy against it.
    assert scores["paper_defaults"] >= scores["linear_schedule"] - 0.05
    # The mass condition is what keeps the localized search honest (README.md,
    # "Deviations from the paper").
    assert scores["paper_defaults"] >= scores["no_mass_condition"] - 0.01


def test_ablation_stopping_delta(once, capsys):
    variants = {
        "delta_conductance": CDRWParameters(),
        "delta_0.1": CDRWParameters(delta=0.1),
        "delta_1.0": CDRWParameters(delta=1.0),
    }
    table = once(_run_variants, variants)
    with capsys.disabled():
        print()
        print(render_experiment(table))
    scores = {str(row.parameters["variant"]): row.measurements["f_score"] for row in table.rows}
    # The paper's δ = Φ_G choice should be at least as good as a crude large δ.
    assert scores["delta_conductance"] >= scores["delta_1.0"] - 0.05
