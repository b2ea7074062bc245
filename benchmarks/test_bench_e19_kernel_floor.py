"""Experiment E19: the kernel speed floor and variance-reduced estimators.

Two fronts of the same question — how many trial-years of Monte-Carlo
does one second of wall clock buy?

1. **Execution floor** — the e17 fleet workload (2,000 scrubbed Cheetah
   mirrored pairs over 50 years) run twice: a baseline pinned to the
   interpreted NumPy select path, serial; and the optimized
   configuration — numba-compiled select kernel when numba is
   installed, all available cores on the shared worker pool.  Both runs
   must produce bit-identical tallies (the compiled kernel and the pool
   are pure execution changes).
   The >= 10x acceptance target applies where the optimized
   configuration can actually exist (numba importable and >= 4 cores);
   elsewhere the check degrades to a bounded no-regression floor.

2. **Statistical floor** — at the e16 high-reliability operating point
   (daily-scrubbed Cheetah mirror, P(loss, 50yr) ~ 1.7e-4) the
   conditional-Monte-Carlo control variate must reach the 10% relative
   error target with >= 5x fewer trials than the standard binomial
   estimator needs, with its estimate anchored to the exact Markov
   chain.  The scrambled-Sobol QMC estimator is reported alongside when
   scipy is available.

Everything lands in ``BENCH_e19.json`` so the speed floor is an
artifact, not a commit-message claim.
"""

from pathlib import Path

import pytest

from _harness import (
    available_cores,
    standard_trials_to_target,
    time_best_of,
    trial_years_per_second,
    write_artifact,
)
from repro.analysis.tables import format_table
from repro.core.parameters import FaultModel
from repro.core.units import HOURS_PER_YEAR
from repro.fleet import simulate_fleet, stationary_timeline
from repro.markov.builders import build_mirrored_chain
from repro.markov.transient import loss_probability_over_time
from repro.simulation._kernels import NUMBA_AVAILABLE, force_fused
from repro.simulation.variance_reduction import (
    SCIPY_QMC_AVAILABLE,
    cv_loss_probability,
    qmc_loss_probability,
)

#: The e17 fleet workload: the paper's scrubbed Cheetah mirrored pair.
MODEL = FaultModel(
    mean_time_to_visible=1.4e6,
    mean_time_to_latent=2.8e5,
    mean_repair_visible=1.0 / 3.0,
    mean_repair_latent=1.0 / 3.0,
    mean_detect_latent=1460.0,
    correlation_factor=1.0,
)

#: The e16 high-reliability point (daily scrubbing) for the estimators.
RARE_MODEL = FaultModel(
    mean_time_to_visible=1.4e6,
    mean_time_to_latent=2.8e5,
    mean_repair_visible=1.0 / 3.0,
    mean_repair_latent=1.0 / 3.0,
    mean_detect_latent=12.0,
    correlation_factor=1.0,
)

MEMBERS = 2000
YEARS = 50.0
MISSION = YEARS * HOURS_PER_YEAR
TARGET_RELATIVE_ERROR = 0.1

#: Compiled kernel + all cores must deliver this where it exists.
SPEEDUP_TARGET = 10.0
#: Where it cannot exist (no numba / too few cores), the optimized
#: configuration must at least not regress past timing noise.
NO_REGRESSION_FLOOR = 0.75
#: The control variate must beat the standard estimator's trial count
#: to the same relative error by at least this factor.
CV_TRIALS_RATIO_TARGET = 5.0

ARTIFACT = Path("BENCH_e19.json")


def _timed_fleet(jobs, fused):
    """Best-of-three fleet run with the select kernel pinned."""
    force_fused(fused)
    try:
        return time_best_of(
            lambda: simulate_fleet(
                stationary_timeline(MODEL, YEARS),
                MEMBERS,
                seed=19,
                jobs=jobs,
            )
        )
    finally:
        force_fused(None)


@pytest.mark.benchmark(group="e19 kernel speed floor")
def test_bench_e19_kernel_floor(benchmark, experiment_printer):
    cores = available_cores()

    # --- front 1: execution floor on the e17 fleet workload ---------
    baseline, baseline_seconds = _timed_fleet(jobs=1, fused=False)
    optimized, optimized_seconds = _timed_fleet(
        jobs=cores, fused=True if NUMBA_AVAILABLE else None
    )
    speedup = baseline_seconds / optimized_seconds
    baseline_typs = trial_years_per_second(MEMBERS, YEARS, baseline_seconds)
    optimized_typs = trial_years_per_second(MEMBERS, YEARS, optimized_seconds)

    benchmark(
        lambda: simulate_fleet(
            stationary_timeline(MODEL, YEARS), MEMBERS, seed=19
        )
    )

    # --- front 2: statistical floor at the rare operating point -----
    exact = loss_probability_over_time(
        build_mirrored_chain(RARE_MODEL), MISSION
    )
    cv_estimate, cv_seconds = time_best_of(
        lambda: cv_loss_probability(
            RARE_MODEL,
            mission_time=MISSION,
            trials=2000,
            seed=19,
            target_relative_error=TARGET_RELATIVE_ERROR,
            max_trials=128_000,
        ),
        repeats=1,
    )
    std_trials_needed = standard_trials_to_target(
        exact, TARGET_RELATIVE_ERROR
    )
    cv_trials_ratio = std_trials_needed / cv_estimate.trials

    qmc_record = None
    if SCIPY_QMC_AVAILABLE:
        qmc_estimate, qmc_seconds = time_best_of(
            lambda: qmc_loss_probability(
                RARE_MODEL, mission_time=MISSION, trials=16_384, seed=19
            ),
            repeats=1,
        )
        qmc_low, qmc_high = qmc_estimate.confidence_interval()
        qmc_record = {
            "trials": qmc_estimate.trials,
            "mean": qmc_estimate.mean,
            "std_error": qmc_estimate.std_error,
            "ci": [qmc_low, qmc_high],
            "seconds": qmc_seconds,
        }

    cv_low, cv_high = cv_estimate.confidence_interval()
    payload = {
        "experiment": "e19_kernel_floor",
        "numba": NUMBA_AVAILABLE,
        "scipy_qmc": SCIPY_QMC_AVAILABLE,
        "cores": cores,
        "fleet": {
            "model": MODEL.as_dict(),
            "members": MEMBERS,
            "years": YEARS,
            "baseline_seconds": baseline_seconds,
            "optimized_seconds": optimized_seconds,
            "speedup": speedup,
            "baseline_trial_years_per_second": baseline_typs,
            "optimized_trial_years_per_second": optimized_typs,
        },
        "variance_reduction": {
            "model": RARE_MODEL.as_dict(),
            "markov_exact_loss": exact,
            "target_relative_error": TARGET_RELATIVE_ERROR,
            "standard_trials_needed": std_trials_needed,
            "cv_trials": cv_estimate.trials,
            "cv_mean": cv_estimate.mean,
            "cv_std_error": cv_estimate.std_error,
            "cv_ci": [cv_low, cv_high],
            "cv_seconds": cv_seconds,
            "cv_trials_ratio": cv_trials_ratio,
            "qmc": qmc_record,
        },
    }
    write_artifact(ARTIFACT, payload)

    rows = [
        ["baseline (NumPy, 1 job)", baseline_seconds, baseline_typs],
        [
            f"optimized (numba={NUMBA_AVAILABLE}, {cores} jobs)",
            optimized_seconds,
            optimized_typs,
        ],
    ]
    qmc_line = (
        "\nQMC (scrambled Sobol): "
        f"{qmc_record['mean']:.3e} +/- {qmc_record['std_error']:.1e} "
        f"at {qmc_record['trials']} trials"
        if qmc_record
        else "\nQMC: scipy.stats.qmc unavailable, leg skipped"
    )
    experiment_printer(
        f"E19: kernel speed floor at {MEMBERS} members x {YEARS:g} years "
        f"({cores} cores)",
        format_table(["configuration", "seconds", "trial-yr/s"], rows)
        + f"\nexecution speedup: {speedup:.2f}x "
        f"(target >= {SPEEDUP_TARGET:.0f}x where numba + >= 4 cores)"
        + f"\nCV trials to {TARGET_RELATIVE_ERROR:.0%} RE: "
        f"{cv_estimate.trials} vs {std_trials_needed} standard "
        f"({cv_trials_ratio:.0f}x, target >= "
        f"{CV_TRIALS_RATIO_TARGET:.0f}x)"
        + qmc_line
        + f"\nartifact: {ARTIFACT}",
    )

    # Pure execution changes: the tallies must be bit-identical.
    assert baseline.tally.as_dict() == optimized.tally.as_dict()

    # The execution floor, where the optimized configuration exists.
    if NUMBA_AVAILABLE and cores >= 4:
        assert speedup >= SPEEDUP_TARGET
    else:
        assert speedup >= NO_REGRESSION_FLOOR

    # The statistical floor is unconditional: the control variate must
    # reach the target precision...
    assert cv_estimate.std_error <= TARGET_RELATIVE_ERROR * cv_estimate.mean
    # ...with >= 5x fewer trials than the standard estimator needs...
    assert cv_trials_ratio >= CV_TRIALS_RATIO_TARGET
    # ...while staying anchored to the exact Markov chain.
    assert abs(cv_estimate.mean - exact) <= 4.0 * cv_estimate.std_error

    assert ARTIFACT.exists()
