"""Reproduction of every figure of the paper's evaluation section.

Each function regenerates the data behind one figure:

* :func:`figure1_stats`      — the illustrative PPM instance of Figure 1
  (n=1000, r=5, p=1/20, q=1/1000): intra/inter edge statistics and block
  conductance (the paper shows a drawing; we report the numbers behind it);
* :func:`figure2_grid`       — CDRW accuracy on pure ``G(n, p)`` graphs as a
  function of ``n`` for the sparse and dense probability rules;
* :func:`figure3_grid`       — CDRW accuracy on two-block PPM graphs
  (``n = 2¹¹``) for every combination of the paper's ``p`` and ``q`` rules;
* :func:`figure4a_grid`      — accuracy vs number of blocks ``r`` with the
  community size fixed at ``2¹⁰`` (``n = r·2¹⁰``);
* :func:`figure4b_grid`      — accuracy vs ``r`` with the total size fixed at
  ``n = 8·2¹⁰``.

Every function returns an :class:`~repro.experiments.runner.ExperimentTable`
whose rows carry the F-score aggregate over independent trials; the benchmark
harness prints them as text tables next to the values the paper reports.
"""

from __future__ import annotations

import numpy as np

from ..api import RunConfig, detect
from ..core.parameters import CDRWParameters
from ..exceptions import ExperimentError
from ..graphs.generators import gnp_random_graph, planted_partition_graph
from ..graphs.partition import Partition
from ..graphs.properties import (
    conductance,
    ppm_expected_conductance,
    ppm_expected_inter_edges,
    ppm_expected_intra_edges,
)
from ..metrics.scores import average_f_score
from .parameters import PROBABILITY_SPECS, RATIO_SPECS, ProbabilitySpec, RatioSpec
from .runner import ExperimentTable, run_trials

__all__ = [
    "figure1_stats",
    "figure2_grid",
    "figure3_grid",
    "figure4a_grid",
    "figure4b_grid",
    "cdrw_f_score_on_gnp",
    "cdrw_f_score_on_ppm",
]

#: Graph sizes of Figure 2 (powers of two from 2^7 to 2^12).
FIGURE2_SIZES: tuple[int, ...] = (128, 256, 512, 1024, 2048, 4096)
#: Probability rules plotted in Figure 2.
FIGURE2_P_SPECS: tuple[str, ...] = ("2logn/n", "2log2n/n")
#: Graph size of Figure 3 (n = 2^11, two blocks of 2^10).
FIGURE3_SIZE: int = 2048
#: Probability rules on the x-axis of Figure 3.
FIGURE3_P_SPECS: tuple[str, ...] = ("2logn/n", "2log2n/n", "log2n/n")
#: q rules (one curve each) of Figure 3.
FIGURE3_Q_SPECS: tuple[str, ...] = ("0.1/n", "0.6/n", "logn/n", "log2n/n")
#: Block counts of Figure 4.
FIGURE4_BLOCK_COUNTS: tuple[int, ...] = (2, 4, 8)
#: p/q ratio rules (one curve each) of Figure 4.
FIGURE4_RATIO_SPECS: tuple[str, ...] = (
    "0.2log2^2(n)",
    "1.2log2^2(n)",
    "0.2log2(n)",
    "1.2log2(n)",
)
#: Community size of Figure 4a / total size of Figure 4b.
FIGURE4_COMMUNITY_SIZE: int = 1024


def _resolve_probability(spec: str | ProbabilitySpec) -> ProbabilitySpec:
    if isinstance(spec, ProbabilitySpec):
        return spec
    try:
        return PROBABILITY_SPECS[spec]
    except KeyError as error:
        raise ExperimentError(
            f"unknown probability spec {spec!r}; known: {sorted(PROBABILITY_SPECS)}"
        ) from error


def _resolve_ratio(spec: str | RatioSpec) -> RatioSpec:
    if isinstance(spec, RatioSpec):
        return spec
    try:
        return RATIO_SPECS[spec]
    except KeyError as error:
        raise ExperimentError(
            f"unknown ratio spec {spec!r}; known: {sorted(RATIO_SPECS)}"
        ) from error


# ----------------------------------------------------------------------
# Single-trial building blocks
# ----------------------------------------------------------------------
def cdrw_f_score_on_gnp(
    n: int,
    p: float,
    rng: np.random.Generator,
    parameters: CDRWParameters | None = None,
) -> float:
    """Generate one ``G(n, p)`` graph, run CDRW and return the F-score.

    The ground truth is the whole vertex set as a single community (the
    ``r = 1`` special case of Section IV).
    """
    graph = gnp_random_graph(n, p, seed=rng)
    detection = detect(
        graph, "scalar", parameters, RunConfig(seed=rng), delta_hint=0.0
    ).detection
    truth = Partition.single_community(n)
    return average_f_score(detection, truth)


def cdrw_f_score_on_ppm(
    n: int,
    num_blocks: int,
    p: float,
    q: float,
    rng: np.random.Generator,
    parameters: CDRWParameters | None = None,
) -> float:
    """Generate one PPM graph, run CDRW and return the F-score."""
    ppm = planted_partition_graph(n, num_blocks, p, q, seed=rng)
    delta = ppm_expected_conductance(n, num_blocks, p, q)
    detection = detect(
        ppm.graph, "scalar", parameters, RunConfig(seed=rng), delta_hint=delta
    ).detection
    return average_f_score(detection, ppm.partition)


# ----------------------------------------------------------------------
# Figure 1
# ----------------------------------------------------------------------
def figure1_stats(
    n: int = 1000,
    num_blocks: int = 5,
    p: float = 1.0 / 20.0,
    q: float = 1.0 / 1000.0,
    seed: int | None = 0,
) -> ExperimentTable:
    """Regenerate the PPM instance of Figure 1 and report its structure.

    The paper draws the graph twice (with and without ground-truth colours);
    the quantitative content is the community structure itself, which we
    report as per-block intra/inter edge counts against their expectations.
    """
    ppm = planted_partition_graph(n, num_blocks, p, q, seed=seed)
    table = ExperimentTable(
        name="figure1",
        description=(
            "Structure of the illustrative PPM instance of Figure 1 "
            f"(n={n}, r={num_blocks}, p={p}, q={q})"
        ),
    )
    expected_intra = ppm_expected_intra_edges(n, num_blocks, p)
    expected_inter = ppm_expected_inter_edges(n, num_blocks, q)
    for block_id, block in enumerate(ppm.partition.communities()):
        intra = ppm.graph.induced_edge_count(block)
        cut = ppm.graph.cut_size(block)
        table.add_row(
            parameters={"block": block_id, "size": len(block)},
            measurements={
                "intra_edges": float(intra),
                "expected_intra_edges": expected_intra,
                "inter_edges": float(cut),
                "expected_inter_edges": expected_inter,
                "conductance": conductance(ppm.graph, block),
                "expected_conductance": ppm_expected_conductance(n, num_blocks, p, q),
            },
        )
    return table


# ----------------------------------------------------------------------
# Figure 2
# ----------------------------------------------------------------------
def figure2_grid(
    sizes: tuple[int, ...] = FIGURE2_SIZES,
    p_specs: tuple[str, ...] = FIGURE2_P_SPECS,
    trials: int = 3,
    seed: int | None = 0,
    parameters: CDRWParameters | None = None,
) -> ExperimentTable:
    """CDRW accuracy on ``G(n, p)`` (single community) across sizes and densities."""
    table = ExperimentTable(
        name="figure2",
        description="F-score of CDRW on G(n, p) random graphs (single community)",
    )
    for spec_name in p_specs:
        spec = _resolve_probability(spec_name)
        for n in sizes:
            p = spec(n)
            aggregate = run_trials(
                lambda rng, n=n, p=p: cdrw_f_score_on_gnp(n, p, rng, parameters),
                num_trials=trials,
                seed=_derive_seed(seed, spec.label, n),
            )
            table.add_row(
                parameters={"n": n, "p": spec.label},
                measurements={
                    "f_score": aggregate.mean,
                    "f_score_std": aggregate.std,
                    "p_value": p,
                },
            )
    return table


# ----------------------------------------------------------------------
# Figure 3
# ----------------------------------------------------------------------
def figure3_grid(
    n: int = FIGURE3_SIZE,
    p_specs: tuple[str, ...] = FIGURE3_P_SPECS,
    q_specs: tuple[str, ...] = FIGURE3_Q_SPECS,
    trials: int = 3,
    seed: int | None = 0,
    parameters: CDRWParameters | None = None,
) -> ExperimentTable:
    """CDRW accuracy on two-block PPM graphs for every (p, q) rule combination."""
    table = ExperimentTable(
        name="figure3",
        description=f"F-score of CDRW on PPM graphs with r=2 and n={n}",
    )
    for q_name in q_specs:
        q_spec = _resolve_probability(q_name)
        for p_name in p_specs:
            p_spec = _resolve_probability(p_name)
            p = p_spec(n)
            q = q_spec(n)
            aggregate = run_trials(
                lambda rng, p=p, q=q: cdrw_f_score_on_ppm(n, 2, p, q, rng, parameters),
                num_trials=trials,
                seed=_derive_seed(seed, p_spec.label, q_spec.label),
            )
            table.add_row(
                parameters={"p": p_spec.label, "q": q_spec.label},
                measurements={
                    "f_score": aggregate.mean,
                    "f_score_std": aggregate.std,
                    "p_value": p,
                    "q_value": q,
                    "p_over_q": p / q if q > 0 else float("inf"),
                },
            )
    return table


# ----------------------------------------------------------------------
# Figure 4
# ----------------------------------------------------------------------
def figure4a_grid(
    block_counts: tuple[int, ...] = FIGURE4_BLOCK_COUNTS,
    community_size: int = FIGURE4_COMMUNITY_SIZE,
    ratio_specs: tuple[str, ...] = FIGURE4_RATIO_SPECS,
    p_spec: str = "2log2n/n",
    trials: int = 3,
    seed: int | None = 0,
    parameters: CDRWParameters | None = None,
) -> ExperimentTable:
    """Accuracy vs number of blocks with the community size fixed (n = r · 2¹⁰)."""
    return _figure4_grid(
        name="figure4a",
        description="F-score of CDRW vs r with fixed community size (Figure 4a)",
        sizes={r: r * community_size for r in block_counts},
        block_counts=block_counts,
        ratio_specs=ratio_specs,
        p_spec=p_spec,
        trials=trials,
        seed=seed,
        parameters=parameters,
    )


def figure4b_grid(
    block_counts: tuple[int, ...] = FIGURE4_BLOCK_COUNTS,
    total_size: int = 8 * FIGURE4_COMMUNITY_SIZE,
    ratio_specs: tuple[str, ...] = FIGURE4_RATIO_SPECS,
    p_spec: str = "2log2n/n",
    trials: int = 3,
    seed: int | None = 0,
    parameters: CDRWParameters | None = None,
) -> ExperimentTable:
    """Accuracy vs number of blocks with the total graph size fixed (n = 8 · 2¹⁰)."""
    return _figure4_grid(
        name="figure4b",
        description="F-score of CDRW vs r with fixed total size (Figure 4b)",
        sizes={r: total_size for r in block_counts},
        block_counts=block_counts,
        ratio_specs=ratio_specs,
        p_spec=p_spec,
        trials=trials,
        seed=seed,
        parameters=parameters,
    )


def _figure4_grid(
    name: str,
    description: str,
    sizes: dict[int, int],
    block_counts: tuple[int, ...],
    ratio_specs: tuple[str, ...],
    p_spec: str,
    trials: int,
    seed: int | None,
    parameters: CDRWParameters | None,
) -> ExperimentTable:
    table = ExperimentTable(name=name, description=description)
    probability = _resolve_probability(p_spec)
    for ratio_name in ratio_specs:
        ratio_spec = _resolve_ratio(ratio_name)
        for r in block_counts:
            n = sizes[r]
            if n % r != 0:
                raise ExperimentError(f"n={n} is not divisible by r={r}")
            p = probability(n)
            ratio = ratio_spec(n)
            q = min(1.0, p / ratio)
            aggregate = run_trials(
                lambda rng, n=n, r=r, p=p, q=q: cdrw_f_score_on_ppm(n, r, p, q, rng, parameters),
                num_trials=trials,
                seed=_derive_seed(seed, ratio_spec.label, r),
            )
            table.add_row(
                parameters={"r": r, "n": n, "p": probability.label, "p_over_q": ratio_spec.label},
                measurements={
                    "f_score": aggregate.mean,
                    "f_score_std": aggregate.std,
                    "p_value": p,
                    "q_value": q,
                },
            )
    return table


def _derive_seed(seed: int | None, *components) -> int | None:
    """Derive a deterministic per-cell seed from the experiment seed and labels."""
    if seed is None:
        return None
    digest = 0
    for component in components:
        digest = (digest * 1_000_003 + hash(str(component))) & 0x7FFFFFFF
    return (int(seed) * 2_654_435_761 + digest) & 0x7FFFFFFF
