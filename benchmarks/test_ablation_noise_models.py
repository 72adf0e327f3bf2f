"""Noise-model sensitivity ablation (future work the paper defers, §V-B).

Same relative σ, four noise distributions (truncated Gaussian — the paper's
model — plus mean-preserving lognormal, uniform and gamma), same Cholesky
T=6 instance.  Reported per model: mean makespan of the static plan (HEFT)
and of the dynamic scheduler (MCT), and their inflation over the σ=0
reference.  Expected: the static plan inflates under every distribution,
worst under the right-skewed ones; the dynamic scheduler stays close to its
σ=0 performance.
"""

import numpy as np

from repro.eval.compare import evaluate_baseline
from repro.graphs import CHOLESKY_DURATIONS, cholesky_dag
from repro.platforms import Platform, make_noise
from repro.utils.tables import format_table

GRAPH = cholesky_dag(6)
PLATFORM = Platform(2, 2)
MODELS = ("gaussian", "lognormal", "uniform", "gamma")
SIGMA = 0.6


def test_ablation_noise_models(benchmark, report):
    def run():
        base_heft = np.mean(evaluate_baseline(
            "heft", GRAPH, PLATFORM, CHOLESKY_DURATIONS, make_noise("none"), seeds=1
        ))
        base_mct = np.mean(evaluate_baseline(
            "mct", GRAPH, PLATFORM, CHOLESKY_DURATIONS, make_noise("none"), seeds=1
        ))
        rows = []
        for model in MODELS:
            noise = make_noise(model, SIGMA)
            heft = np.mean(evaluate_baseline(
                "heft", GRAPH, PLATFORM, CHOLESKY_DURATIONS, noise, seeds=10
            ))
            mct = np.mean(evaluate_baseline(
                "mct", GRAPH, PLATFORM, CHOLESKY_DURATIONS, noise, seeds=10
            ))
            rows.append(
                [model, heft, heft / base_heft, mct, mct / base_mct]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        f"ablation_noise_models_sigma{SIGMA}",
        format_table(
            ["noise model", "HEFT", "HEFT inflation", "MCT", "MCT inflation"],
            rows, floatfmt=".3f",
        ),
    )
    # every distribution inflates the static plan
    assert all(r[2] > 1.0 for r in rows)
    # on average across distributions, the dynamic scheduler is at least as
    # robust as the static plan (per-model gaps can be within noise at this
    # instance size, hence the aggregate check)
    mean_heft_inflation = np.mean([r[2] for r in rows])
    mean_mct_inflation = np.mean([r[4] for r in rows])
    assert mean_mct_inflation <= mean_heft_inflation + 0.02
