"""The correctness oracle: every answer is checked against an anchor.

* Exact answers (``markov`` / ``analytic`` engines) are recomputed from
  the chain or the closed form and must agree to 1e-9 relative.
* Monte-Carlo answers must lie within :data:`Z` standard errors of the
  exact chain: :func:`build_mirrored_chain` for pairs, the
  parallel-repair :func:`build_scheme_chain` for (n, k) systems with
  visible faults only.  The questions are generated at operating points
  where those chains describe the simulated physics (deterministic
  repairs, audit-grid detection) to a small fraction of a standard
  error.
* Stationary fleets are checked against the pair chain; generation-
  refresh fleets for a consistent, non-increasing survival curve.
* Frontiers must be non-empty, ordered by cost and free of dominated
  rows, and the recommendation must satisfy the budget.
* Plan repeats must reproduce their earlier answer exactly, and a grown
  fleet (same seed, more chunks) cannot lose fewer members than the
  fleet it grew.

:func:`check` returns ``None`` for a correct answer and a one-line
reason otherwise.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, List, Optional, Sequence

from repro.core.mttdl import mirrored_mttdl
from repro.core.probability import probability_of_loss
from repro.markov.builders import (
    build_mirrored_chain,
    build_scheme_chain,
    mirrored_mttdl_markov,
)
from repro.markov.transient import loss_probability_over_time
from repro.study import Scenario

#: Standard errors an estimate may sit from its exact anchor.  Set from
#: the false-alarm budget, not from anchor error (every operating point
#: sits within 0.3 SE of its anchor): a run checks up to ~1,000
#: estimates and a steadiness campaign ~100 runs, and at 5.5 SE the
#: chance of one false alarm in all of them stays near 1%.
Z = 5.5

#: Relative tolerance for answers that are exact by construction.
EXACT_RTOL = 1e-9

HOURS_PER_YEAR = 8760.0

#: Latent faults at least this rare count as absent: the birth-death
#: chain then describes the simulated erasure system exactly.
VISIBLE_ONLY_ML = 1e9


def _model_key(model) -> tuple:
    return (
        model.mean_time_to_visible,
        model.mean_time_to_latent,
        model.mean_repair_visible,
        model.mean_repair_latent,
        model.mean_detect_latent,
        model.correlation_factor,
    )


@lru_cache(maxsize=4096)
def _pair_loss(key: tuple, hours: float) -> float:
    from repro.core.parameters import FaultModel

    return loss_probability_over_time(
        build_mirrored_chain(FaultModel(*key)), hours
    )


def pair_loss(model, hours: float) -> float:
    """Exact loss probability of a mirrored pair by ``hours``."""
    return _pair_loss(_model_key(model), float(hours))


def scheme_loss(scenario: Scenario) -> float:
    """Exact loss probability of a visible-fault-only (n, k) system."""
    spec = scenario.system
    model = spec.model
    if model.mean_time_to_latent < VISIBLE_ONLY_ML:
        raise ValueError("the scheme chain anchors visible-fault-only models")
    chain = build_scheme_chain(
        model.mean_time_to_visible,
        model.mean_repair_visible,
        spec.effective_scheme(),
        correlation_factor=model.correlation_factor,
        parallel_repair=True,
    )
    return loss_probability_over_time(
        chain, scenario.mission_years * HOURS_PER_YEAR
    )


def _within(value: float, exact: float, se: float, what: str) -> Optional[str]:
    if value is None or not math.isfinite(value):
        return f"{what}: non-finite value {value!r}"
    if se <= 0 or not math.isfinite(se):
        return f"{what}: unusable standard error {se!r}"
    z = (value - exact) / se
    if abs(z) > Z:
        return f"{what}: {value:.6g} is {z:+.1f} SE from exact {exact:.6g}"
    return None


def _binomial_se(p: float, trials: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 1e-300) / trials)


def check_point(scenario: Scenario, result: Dict[str, object]) -> Optional[str]:
    """Check an mttdl / loss_probability answer against its anchor."""
    spec = scenario.system
    policy = scenario.policy
    value = result.get("value")
    if result.get("question") != scenario.question:
        return f"answered {result.get('question')!r}, asked {scenario.question!r}"
    pair = spec.replicas == 2 and spec.effective_scheme().is_replication
    if policy.engine in ("markov", "analytic"):
        if not pair:
            return "exact anchors cover mirrored pairs only"
        if policy.engine == "markov":
            hours = mirrored_mttdl_markov(spec.model, double_first_fault_rate=True)
        else:
            hours = mirrored_mttdl(spec.model)
        expected = hours
        if scenario.question == "loss_probability":
            expected = probability_of_loss(
                hours, scenario.mission_years * HOURS_PER_YEAR
            )
        if value is None or not math.isclose(
            value, expected, rel_tol=EXACT_RTOL, abs_tol=0.0
        ):
            return f"exact {policy.engine}: {value!r} != {expected!r}"
        return None
    if spec.audits_per_year is not None:
        return "anchors assume the model-derived audit grid"
    if scenario.question == "mttdl":
        if not pair:
            return "MTTDL anchors cover mirrored pairs only"
        exact = mirrored_mttdl_markov(spec.model, double_first_fault_rate=True)
        horizon = scenario.max_time_hours
        lost_share = pair_loss(spec.model, horizon)
        trials = int(result.get("trials") or 0)
        if trials < 1:
            return "MTTDL answer reports no trials"
        # Censored exponential MLE: relative error 1/sqrt(losses).
        se = exact / math.sqrt(trials * lost_share)
        return _within(value, exact, se, "mttdl")
    if pair:
        exact = pair_loss(spec.model, scenario.mission_years * HOURS_PER_YEAR)
    else:
        exact = scheme_loss(scenario)
    trials = int(result.get("trials") or 0)
    if trials < 1:
        return "loss answer reports no trials"
    if result.get("method") == "standard":
        se = _binomial_se(exact, trials)
    else:
        # Weighted estimators carry their own standard error.
        se = float(result.get("std_error") or 0.0)
    return _within(value, exact, se, f"loss ({result.get('method')})")


def check_fleet(scenario: Scenario, result: Dict[str, object]) -> Optional[str]:
    details = result.get("details") or {}
    summary = details.get("summary") or {}
    value = result.get("value")
    members = scenario.members
    if summary.get("members") != members:
        return f"fleet of {summary.get('members')} members, asked {members}"
    if value is None or not 0.0 <= value <= 1.0:
        return f"fleet loss fraction {value!r} outside [0, 1]"
    if summary.get("losses") != round(value * members):
        return "fleet losses disagree with the loss fraction"
    curve = details.get("survival_curve") or []
    if not curve or any(b > a + 1e-12 for a, b in zip(curve, curve[1:])):
        return "fleet survival curve is empty or increases"
    if any(not 0.0 <= point <= 1.0 for point in curve):
        return "fleet survival curve leaves [0, 1]"
    if not result["ci_low"] <= value <= result["ci_high"]:
        return "fleet confidence interval excludes its estimate"
    timeline = scenario.timeline
    if len(timeline.epochs) == 1 and not timeline.migrations:
        epoch = timeline.epochs[0]
        if (
            epoch.audits_per_year is not None
            or epoch.shocks is not None
            or epoch.hazard_multiplier != 1.0
            or timeline.replicas != 2
            or timeline.scheme is not None
        ):
            return "stationary anchors assume plain pairs on the model audit grid"
        exact = pair_loss(epoch.model, timeline.years * HOURS_PER_YEAR)
        return _within(value, exact, _binomial_se(exact, members), "fleet")
    return None


def _bounds(row: Dict[str, object]) -> tuple:
    simulated = row.get("simulated")
    if simulated:
        return float(simulated["ci_low"]), float(simulated["ci_high"])
    loss = float(row["analytic_loss_probability"])
    return loss, loss


def _dominates(a: Dict[str, object], b: Dict[str, object]) -> bool:
    """CI-aware dominance: no dearer, and demonstrably no less reliable,
    with one of the two strict."""
    a_low, a_high = _bounds(a)
    b_low, b_high = _bounds(b)
    cost_a, cost_b = float(a["annual_cost"]), float(b["annual_cost"])
    if cost_a > cost_b or a_high > b_low:
        return False
    return cost_a < cost_b or a_high < b_low


def check_frontier(scenario: Scenario, result: Dict[str, object]) -> Optional[str]:
    details = result.get("details") or {}
    rows: List[Dict[str, object]] = details.get("frontier") or []
    if not rows:
        return "empty frontier"
    costs = [float(row["annual_cost"]) for row in rows]
    if any(b < a for a, b in zip(costs, costs[1:])):
        return "frontier not ordered by cost"
    for i, a in enumerate(rows):
        for j, b in enumerate(rows):
            if i != j and _dominates(a, b):
                return f"frontier row {j} is dominated by row {i}"
    summary = details.get("summary") or {}
    if summary.get("candidates") != scenario.space.size:
        return "frontier screened the wrong number of candidates"
    recommended = details.get("recommended")
    if scenario.budget is None:
        return None if recommended is None else "unasked recommendation"
    if recommended is None:
        return "no recommendation for a feasible budget"
    if float(recommended["annual_cost"]) > scenario.budget:
        return "recommendation exceeds the budget"
    if recommended not in rows:
        return "recommendation is not a frontier row"
    if result.get("value") != _loss(recommended):
        return "answer value is not the recommendation's loss"
    return None


def _loss(row: Dict[str, object]) -> float:
    simulated = row.get("simulated")
    if simulated:
        return float(simulated["mean"])
    return float(row["analytic_loss_probability"])


def check(question: Dict[str, object], result: Dict[str, object]) -> Optional[str]:
    """Check one answer to one generated question."""
    scenario = Scenario.from_dict(question["scenario"])
    try:
        if scenario.question == "frontier":
            return check_frontier(scenario, result)
        if scenario.question == "fleet_survival":
            return check_fleet(scenario, result)
        return check_point(scenario, result)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed answer: {exc!r}"


def _same_answer(a: Dict[str, object], b: Dict[str, object]) -> bool:
    keys = ("value", "std_error", "ci_low", "ci_high", "trials", "method")
    if any(a.get(key) != b.get(key) for key in keys):
        return False
    da, db = a.get("details") or {}, b.get("details") or {}
    return da.get("frontier") == db.get("frontier") and da.get(
        "survival_curve"
    ) == db.get("survival_curve")


def check_list(
    questions: Sequence[Dict[str, object]],
    results: Sequence[Optional[Dict[str, object]]],
) -> List[Optional[str]]:
    """Check a whole list; adds the repeat/grow relations of plan lists.

    A missing result (``None``) is reported as such.
    """
    verdicts: List[Optional[str]] = []
    for question, result in zip(questions, results):
        if result is None:
            verdicts.append("no answer")
            continue
        verdict = check(question, result)
        ref = question.get("ref")
        if verdict is None and ref is not None and results[ref] is not None:
            base = results[ref]
            if question["rel"] == "repeat" and not _same_answer(result, base):
                verdict = "repeat differs from the answer it repeats"
            elif question["rel"] == "grow" and question["kind"] != "frontier":
                grown = result["details"]["summary"]["losses"]
                if grown < base["details"]["summary"]["losses"]:
                    verdict = "grown fleet lost fewer members than its prefix"
        verdicts.append(verdict)
    return verdicts
