"""Seeded, fixed-size question lists for the three workloads.

Every list is a pure function of ``(seed, seconds)``: the seed picks the
parameters, ``seconds`` picks how many questions there are (a constant
number per second of the nominal run length, so a run's amount of work
never depends on how fast the program happens to be).  Within a list
each kind gets a fixed count and fixed trials, and its parameters are
drawn stratified from ranges over which the cost of one answer stays
flat, so two seeds cost the same.

A question is a plain dict, so it can be written to JSON for the
answering process::

    {"kind": "pair_mttdl", "scenario": {...}, "rel": None, "ref": None}

``rel``/``ref`` mark plan questions that repeat (``"repeat"``) or grow
(``"grow"``) the question at list index ``ref``.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.parameters import FaultModel
from repro.core.redundancy import ErasureCode
from repro.fleet.timeline import generation_refresh_timeline, stationary_timeline
from repro.markov.builders import mirrored_mttdl_markov
from repro.optimize.space import DesignSpace
from repro.study import EstimatorPolicy, Scenario, SystemSpec

#: Nominal answers per second of ``--seconds`` on a 2-vCPU host without
#: numba.  They size the lists; they are never measured against.
POINT_RATE = 36.0
PLAN_RATE = 19.0
SERVE_RATE = 360.0  # of the first (busy) caller

#: Kinds of each workload, in the order their counts are listed.
POINT_KINDS = ("pair_mttdl", "pair_loss_auto", "pair_loss_is", "erasure_loss")
PLAN_KINDS = ("frontier", "fleet_refresh", "fleet_stationary")

#: Trials per kind; fixed so every seed does the same sampling work.
TRIALS = {
    "pair_mttdl": 300,
    "pair_loss_auto": 3000,
    "pair_loss_is": 8000,
    "erasure_loss": 4000,
    "frontier": 400,
    "serve_mc": 1000,
    "serve_hot_mc": 1000,
}

#: Fleet sizes: members per chunk, chunks of a fresh question, and the
#: chunks a grown question adds to the question it grows.
FLEET_CHUNK = 1000
FLEET_CHUNKS = 3
FLEET_GROW_CHUNKS = 2

#: Serve: store entries primed in set-up, and shares (out of 1000
#: requests of the first caller) of cold questions and synchronised
#: cold pairs.  Cold Monte-Carlo answers are 8%, so p95 and p99 fall
#: inside them, where answer time is engine work, not the scheduling
#: hiccups that dominate the tail of ~1 ms store hits.
SERVE_HOT_EXACT = 48
SERVE_HOT_MC = 16
SERVE_COLD_EXACT_PER_MILLE = 8
SERVE_COLD_MC_PER_MILLE = 80
SERVE_SYNC_PER_MILLE = 4


def question_seed(seed: int, *labels: object) -> int:
    """A policy seed derived from the run seed and a question's labels."""
    text = ":".join(str(part) for part in (seed,) + labels)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def _strata(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` draws in [0, 1), one from each of ``count`` equal strata."""
    return (rng.permutation(count) + rng.random(count)) / max(count, 1)


def _question(
    kind: str,
    scenario: Scenario,
    rel: Optional[str] = None,
    ref: Optional[int] = None,
) -> Dict[str, object]:
    return {"kind": kind, "scenario": scenario.as_dict(), "rel": rel, "ref": ref}


def _count(rate: float, seconds: float, multiple: int) -> int:
    blocks = max(1, int(round(rate * seconds / multiple)))
    return blocks * multiple


# ---------------------------------------------------------------------------
# point: distinct Monte-Carlo questions, in process
# ---------------------------------------------------------------------------


def _pair_mttdl(u: float, seed: int) -> Scenario:
    """Compressed-time mirrored pair; repairs at 1/100 of MV keep the
    deterministic-repair simulator on the exact chain.  The horizon is
    twice the chain's MTTDL, so about 13% of trials censor."""
    mv = 400.0 + 200.0 * u
    repair = mv / 100.0
    model = FaultModel(mv, 3.0 * mv, repair, repair, repair, 1.0)
    return Scenario(
        question="mttdl",
        system=SystemSpec(model=model),
        max_time_hours=2.0 * mirrored_mttdl_markov(model),
        policy=EstimatorPolicy(
            engine="batch", trials=TRIALS["pair_mttdl"], seed=seed
        ),
    )


def _rare_pair(u: float, mission: float, engine: str, seed: int) -> Scenario:
    """A daily-to-weekly scrubbed Cheetah pair: loss ~1e-4, so an
    ``auto`` pilot always sees too few losses and escalates."""
    model = FaultModel(1.4e6, 2.8e5, 1.0 / 3.0, 1.0 / 3.0, 8.0 + 8.0 * u, 1.0)
    return Scenario(
        question="loss_probability",
        system=SystemSpec(model=model),
        mission_years=mission,
        policy=EstimatorPolicy(
            engine=engine, trials=TRIALS[f"pair_loss_{engine}"], seed=seed
        ),
    )


def _erasure_loss(u: float, seed: int) -> Scenario:
    """A (5, 3) erasure-coded system with visible faults only, so the
    parallel-repair birth-death chain is the exact anchor; the 14-year
    mission puts the loss probability near 0.04.  (At the same repair
    ratio a (6, 4) code sits 6% above its chain, so it is not used.)"""
    mv = 4.0e4 * (1.0 + 0.2 * u)
    repair = mv / 40.0
    model = FaultModel(mv, 1.0e12, repair, repair, 1.0, 1.0)
    return Scenario(
        question="loss_probability",
        system=SystemSpec(model=model, scheme=ErasureCode(5, 3)),
        mission_years=14.0,
        policy=EstimatorPolicy(
            engine="batch", trials=TRIALS["erasure_loss"], seed=seed
        ),
    )


def point_questions(seed: int, seconds: float) -> List[Dict[str, object]]:
    """Groups of four questions, one of each kind in a seeded order, so
    every run of whole groups has the same composition."""
    rng = np.random.default_rng([seed, 1])
    per_kind = _count(POINT_RATE, seconds, len(POINT_KINDS)) // len(POINT_KINDS)
    draws = {kind: iter(_strata(rng, per_kind)) for kind in POINT_KINDS}
    order = [
        POINT_KINDS[i]
        for _ in range(per_kind)
        for i in rng.permutation(len(POINT_KINDS))
    ]
    questions = []
    for index, kind in enumerate(order):
        u = float(next(draws[kind]))
        qseed = question_seed(seed, "point", index)
        if kind == "pair_mttdl":
            scenario = _pair_mttdl(u, qseed)
        elif kind == "pair_loss_auto":
            scenario = _rare_pair(u, 50.0, "auto", qseed)
        elif kind == "pair_loss_is":
            scenario = _rare_pair(u, 30.0 + 20.0 * u, "is", qseed)
        else:
            scenario = _erasure_loss(u, qseed)
        questions.append(_question(kind, scenario))
    return questions


# ---------------------------------------------------------------------------
# plan: frontiers and fleets, with worker pools and on-disk caches
# ---------------------------------------------------------------------------

#: Media pairs the frontier questions search; every space has 16
#: candidates, grown spaces add one audit rate (24 candidates).
FRONTIER_MEDIA = (
    ("drive:barracuda", "drive:cheetah"),
    ("drive:cheetah", "media:tape"),
    ("drive:barracuda", "media:tape"),
)


def _space(u: float, index: int, grown: bool = False) -> DesignSpace:
    rates = (1.0, 12.0, 52.0) if grown else (1.0, 12.0)
    return DesignSpace(
        dataset_tb=5.0 + 20.0 * u,
        media=FRONTIER_MEDIA[index % len(FRONTIER_MEDIA)],
        replica_counts=(2, 3),
        audit_rates=rates,
        placements=("single", "multi"),
    )


def cheapest_cost(space: DesignSpace) -> float:
    """The lowest annual cost of any candidate — a budget at or above it
    always admits a recommendation."""
    return min(candidate.annual_cost() for candidate in space.candidates())


def _frontier(u: float, index: int, seed: int, grown: bool = False) -> Scenario:
    space = _space(u, index, grown)
    budget = None
    if index % 2 == 0:
        budget = cheapest_cost(space) * (1.5 + u)
    return Scenario(
        question="frontier",
        space=space,
        budget=budget,
        mission_years=50.0,
        policy=EstimatorPolicy(
            engine="auto", trials=TRIALS["frontier"], seed=seed
        ),
    )


def _fleet(timeline, members: int, seed: int) -> Scenario:
    return Scenario(
        question="fleet_survival",
        timeline=timeline,
        members=members,
        chunk_size=FLEET_CHUNK,
        policy=EstimatorPolicy(engine="fleet", seed=seed),
    )


def _refresh_timeline(u: float):
    return generation_refresh_timeline(
        years=30.0, refresh_every_years=8.0 + 4.0 * u
    )


def stationary_model(u: float) -> FaultModel:
    """Stationary fleets: a pair with visible faults only (the pair chain
    is then exact) whose 20-year loss probability of 0.04-0.06 gives
    ~150 losses per fresh question."""
    mv = 2.0e4 * (1.0 + 0.25 * u)
    return FaultModel(mv, 1.0e12, 72.0, 72.0, 24.0, 1.0)


def _stationary_timeline(u: float):
    return stationary_timeline(stationary_model(u), years=20.0)


#: Per kind and block: fresh questions, then one repeat and one grown
#: question.  Fresh answers are the expensive class (~71% of the list);
#: repeats are cache hits (~14%) and grown ones partial hits (~14%), so
#: neither the median nor p95 sits on a class boundary.
PLAN_BLOCK = ("fresh",) * 5 + ("repeat", "grow")


def plan_questions(seed: int, seconds: float) -> List[Dict[str, object]]:
    """Fresh questions of each kind, plus a fixed share that repeats an
    earlier question (cache hit) or grows one (same seed, more fleet
    members or more frontier candidates: partial hits)."""
    rng = np.random.default_rng([seed, 2])
    per_block = len(PLAN_KINDS) * len(PLAN_BLOCK)
    blocks = _count(PLAN_RATE, seconds, per_block) // per_block
    fresh_count = blocks * PLAN_BLOCK.count("fresh")
    draws = {kind: iter(_strata(rng, fresh_count)) for kind in PLAN_KINDS}
    fresh: Dict[str, List[int]] = {kind: [] for kind in PLAN_KINDS}
    params: Dict[int, float] = {}
    questions: List[Dict[str, object]] = []
    for block in range(blocks):
        items = [(kind, slot) for kind in PLAN_KINDS for slot in PLAN_BLOCK]
        order = list(rng.permutation(len(items)))
        if block == 0:
            # Repeats and grows refer back to earlier fresh questions.
            order.sort(key=lambda i: items[i][1] != "fresh")
        for item in order:
            kind, slot = items[item]
            index = len(questions)
            if slot != "fresh":
                ref = fresh[kind][int(rng.integers(len(fresh[kind])))]
                if slot == "repeat":
                    base = Scenario.from_dict(questions[ref]["scenario"])
                    questions.append(_question(kind, base, "repeat", ref))
                else:
                    questions.append(_grow(questions[ref], params[ref], ref))
                continue
            u = float(next(draws[kind]))
            qseed = question_seed(seed, "plan", index)
            if kind == "frontier":
                scenario = _frontier(u, len(fresh[kind]), qseed)
            elif kind == "fleet_refresh":
                scenario = _fleet(
                    _refresh_timeline(u), FLEET_CHUNK * FLEET_CHUNKS, qseed
                )
            else:
                scenario = _fleet(
                    _stationary_timeline(u), FLEET_CHUNK * FLEET_CHUNKS, qseed
                )
            fresh[kind].append(index)
            params[index] = u
            questions.append(_question(kind, scenario))
    return questions


def _grow(base: Dict[str, object], u: float, ref: int) -> Dict[str, object]:
    scenario = Scenario.from_dict(base["scenario"])
    if base["kind"] == "frontier":
        index = FRONTIER_MEDIA.index(tuple(scenario.space.media))
        grown = _frontier(u, index, scenario.policy.seed, grown=True)
        # Keep the base question's budget so the query is unchanged.
        grown = Scenario.from_dict(
            dict(grown.as_dict(), budget=scenario.budget)
        )
    else:
        grown = Scenario.from_dict(
            dict(
                scenario.as_dict(),
                members=scenario.members + FLEET_CHUNK * FLEET_GROW_CHUNKS,
            )
        )
    return _question(base["kind"], grown, "grow", ref)


# ---------------------------------------------------------------------------
# serve: a primed hot set, cold exact and Monte-Carlo questions, and
# synchronised cold pairs for single-flight and batching
# ---------------------------------------------------------------------------


def _serve_pair_model(u: float) -> FaultModel:
    """A pair whose 6-12-year loss probability is 0.07-0.28 (70-280
    losses at 1000 trials); at 100,000 trials it sits within 0.15 of a
    1000-trial standard error of its chain."""
    mv = 8.0e3 * (1.0 + 0.5 * u)
    return FaultModel(mv, 4.0 * mv, 48.0, 48.0, 96.0, 1.0)


def _exact(u: float, index: int, seed: int) -> Scenario:
    """Exact pair questions: the chain or the closed form, MTTDL or loss."""
    model = FaultModel(
        1.0e5 * (1.0 + u), 2.0e4 * (1.0 + u), 2.0 + 4.0 * u, 2.0, 50.0 + 500.0 * u
    )
    engine = ("markov", "analytic")[index % 2]
    question = ("mttdl", "loss_probability")[(index // 2) % 2]
    return Scenario(
        question=question,
        system=SystemSpec(model=model),
        mission_years=10.0 + 40.0 * u,
        policy=EstimatorPolicy(engine=engine, seed=seed),
    )


def _serve_mc(u: float, mission: float, seed: int, trials: int) -> Scenario:
    return Scenario(
        question="loss_probability",
        system=SystemSpec(model=_serve_pair_model(u)),
        mission_years=mission,
        policy=EstimatorPolicy(engine="batch", trials=trials, seed=seed),
    )


def serve_questions(seed: int, seconds: float) -> Dict[str, object]:
    """``{"hot": [...], "callers": [[...], [...]]}``.

    ``hot`` is primed into the store in set-up.  The first caller asks
    the whole list of ``{"kind", "scenario"}`` items (hot items name
    their hot-set index instead).  The second caller holds only the
    ``sync_same`` / ``sync_batch`` items: at each of them both callers
    meet at a barrier and then send the same cold question
    (single-flight) or the same system with two mission lengths
    (batching).  Two callers that both stay busy saturate a 2-vCPU host
    and made p95 swing by a third from run to run; one busy caller plus
    a synchronised second one keeps it within a few percent.
    """
    rng = np.random.default_rng([seed, 3])
    hot: List[Dict[str, object]] = []
    u_exact = _strata(rng, SERVE_HOT_EXACT)
    for index in range(SERVE_HOT_EXACT):
        qseed = question_seed(seed, "hot", index)
        hot.append(_question("hot_exact", _exact(float(u_exact[index]), index, qseed)))
    u_mc = _strata(rng, SERVE_HOT_MC)
    for index in range(SERVE_HOT_MC):
        qseed = question_seed(seed, "hot-mc", index)
        scenario = _serve_mc(
            float(u_mc[index]), 10.0, qseed, TRIALS["serve_hot_mc"]
        )
        hot.append(_question("hot_mc", scenario))

    length = _count(SERVE_RATE, seconds, 1000)
    per_mille = length // 1000
    counts = {
        "sync": SERVE_SYNC_PER_MILLE * per_mille,
        "cold_exact": SERVE_COLD_EXACT_PER_MILLE * per_mille,
        "cold_mc": SERVE_COLD_MC_PER_MILLE * per_mille,
    }
    slots: List[Optional[str]] = [None] * length
    positions = iter(rng.permutation(length))
    for kind in ("sync_same", "sync_batch"):
        for _ in range(counts["sync"] // 2):
            slots[next(positions)] = kind
    for kind in ("cold_exact", "cold_mc"):
        for _ in range(counts[kind]):
            slots[next(positions)] = kind
    draws = {
        "cold_exact": iter(_strata(rng, counts["cold_exact"])),
        "cold_mc": iter(_strata(rng, counts["cold_mc"])),
        "sync_same": iter(_strata(rng, counts["sync"] // 2)),
        "sync_batch": iter(_strata(rng, counts["sync"] // 2)),
    }
    hot_picks = rng.integers(len(hot), size=length)
    first: List[Dict[str, object]] = []
    second: List[Dict[str, object]] = []
    for position, kind in enumerate(slots):
        qseed = question_seed(seed, "serve", position)
        if kind is None:
            first.append({"kind": "hot", "hot": int(hot_picks[position])})
            continue
        u = float(next(draws[kind]))
        if kind == "cold_exact":
            first.append(_question(kind, _exact(u, position, qseed)))
        elif kind == "cold_mc":
            scenario = _serve_mc(u, 8.0 + 4.0 * u, qseed, TRIALS["serve_mc"])
            first.append(_question(kind, scenario))
        else:
            scenario = _serve_mc(u, 10.0, qseed, TRIALS["serve_mc"])
            partner = scenario
            if kind == "sync_batch":
                partner = _serve_mc(u, 6.0, qseed, TRIALS["serve_mc"])
            first.append(_question(kind, scenario))
            second.append(_question(kind, partner))
    return {"hot": hot, "callers": [first, second]}


def kind_counts(questions: Sequence[Dict[str, object]]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for question in questions:
        key = question["kind"]
        if question.get("rel"):
            key = f"{key}:{question['rel']}"
        counts[key] = counts.get(key, 0) + 1
    return counts


def prefix(generated, share: float):
    """The first ``share`` of a generated list (for serve, of the first
    caller's list, and the second caller's synchronised items within it).
    Plan references only point backwards, so they stay valid."""
    if isinstance(generated, dict):
        first = generated["callers"][0][: int(len(generated["callers"][0]) * share)]
        synced = sum(1 for item in first if item["kind"].startswith("sync"))
        return {
            "hot": generated["hot"],
            "callers": [first, generated["callers"][1][:synced]],
        }
    return generated[: int(len(generated) * share)]


def generate(workload: str, seed: int, seconds: float):
    if workload == "point":
        return point_questions(seed, seconds)
    if workload == "plan":
        return plan_questions(seed, seconds)
    if workload == "serve":
        return serve_questions(seed, seconds)
    raise ValueError(f"unknown workload {workload!r}")
