"""Per-layer metrics from the spans of a traced run.

Every metric of :data:`PER_LAYER` is always reported; a layer the
workload bypasses reports 0.  Sums (``*_s``, counts) are totals over the
traced part of the run's fixed question list, so they compare across
commits directly.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Span = Dict[str, object]

#: name -> unit of every per-layer metric, in report order.
PER_LAYER: Dict[str, str] = {
    "study.calls": "count",
    "study.self_ms_p50": "ms",
    "study.hash_us_p50": "us",
    "simulation.kernel_calls": "count",
    "simulation.kernel_s": "s",
    "simulation.trials": "count",
    "simulation.escalations": "count",
    "simulation.useful_trial_frac": "ratio",
    "markov.calls": "count",
    "markov.s": "s",
    "core.closed_form_calls": "count",
    "fleet.calls": "count",
    "fleet.chunks": "count",
    "fleet.s": "s",
    "fleet.cache_hit_ratio": "ratio",
    "optimize.calls": "count",
    "optimize.screen_s": "s",
    "optimize.refine_s": "s",
    "optimize.refined_per_candidate": "ratio",
    "optimize.cache_hit_ratio": "ratio",
    "parallel.pools": "count",
    "parallel.pool_start_ms_p50": "ms",
    "parallel.pool_s": "s",
    "parallel.dispatch_overhead_s": "s",
    "serve.store_lookup_us_p50": "us",
    "serve.store_put_ms_p50": "ms",
    "serve.store_hit_ratio": "ratio",
    "serve.from_store_frac": "ratio",
    "serve.from_inflight_frac": "ratio",
    "serve.from_engine_frac": "ratio",
    "serve.batch_size_mean": "count",
    "serve.engine_wait_ms_p50": "ms",
    "serve.engine_ms_p50": "ms",
    "serve.wire_ms_p50": "ms",
    "setup.import_s": "s",
    "obs.trace_overhead_frac": "ratio",
    "obs.span_coverage": "ratio",
}


def duration(span: Span) -> float:
    return float(span["end"]) - float(span["start"])


def _p50(values: Sequence[float], scale: float = 1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


class SpanIndex:
    """Spans grouped by name, with per-process parent links."""

    def __init__(self, spans: Sequence[Span]) -> None:
        self.spans = list(spans)
        self.by_name: Dict[str, List[Span]] = defaultdict(list)
        self.by_key: Dict[Tuple[int, int], Span] = {}
        self.children: Dict[Tuple[int, int], List[Span]] = defaultdict(list)
        for span in self.spans:
            self.by_name[str(span["name"])].append(span)
            self.by_key[(span["pid"], span["id"])] = span
        for span in self.spans:
            if span["parent"] is not None:
                self.children[(span["pid"], span["parent"])].append(span)

    def named(self, name: str) -> List[Span]:
        return self.by_name.get(name, [])

    def parent(self, span: Span) -> Optional[Span]:
        if span["parent"] is None:
            return None
        return self.by_key.get((span["pid"], span["parent"]))

    def has_ancestor(self, span: Span, name: str) -> bool:
        node = self.parent(span)
        while node is not None:
            if node["name"] == name:
                return True
            node = self.parent(node)
        return False

    def self_time(self, span: Span) -> float:
        start, end = float(span["start"]), float(span["end"])
        covered = _union_length(
            (max(start, float(c["start"])), min(end, float(c["end"])))
            for c in self.children[(span["pid"], span["id"])]
        )
        return duration(span) - covered


def layer_metrics(
    spans: Sequence[Span],
    requests: Sequence[Dict[str, object]] = (),
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric except the set-up and overhead ones.

    ``requests`` are the callers' ``{"start", "end", "hash"}`` records of
    a serve run (pairing client latency with server-side submit spans);
    point and plan runs pass none and measure coverage against their own
    ``bench.request`` spans.
    """
    index = SpanIndex(spans)
    metrics: Dict[str, float] = {}

    runs = index.named("study.run")
    metrics["study.calls"] = float(len(runs))
    metrics["study.self_ms_p50"] = _p50([index.self_time(s) for s in runs], 1e3)
    metrics["study.hash_us_p50"] = _p50(
        [duration(s) for s in index.named("study.hash")], 1e6
    )

    kernels = index.named("simulation.kernel")
    estimates = index.named("simulation.estimate")
    drawn = sum(int(s["trials"]) for s in kernels)
    # Trials an estimator returned, plus kernel calls no estimator wraps
    # (serve's batch groups use every trial they draw).
    useful = sum(int(s["returned_trials"]) for s in estimates) + sum(
        int(s["trials"])
        for s in kernels
        if not index.has_ancestor(s, "simulation.estimate")
    )
    metrics["simulation.kernel_calls"] = float(len(kernels))
    metrics["simulation.kernel_s"] = sum(duration(s) for s in kernels)
    metrics["simulation.trials"] = float(drawn)
    metrics["simulation.escalations"] = float(
        sum(1 for s in estimates if s["escalated"])
    )
    metrics["simulation.useful_trial_frac"] = _ratio(useful, drawn)

    markov = index.named("markov.solve")
    metrics["markov.calls"] = float(len(markov))
    metrics["markov.s"] = sum(duration(s) for s in markov)
    metrics["core.closed_form_calls"] = float(len(index.named("core.closed_form")))

    fleets = index.named("fleet.simulate")
    chunks = sum(int(s["chunks"]) for s in fleets)
    metrics["fleet.calls"] = float(len(fleets))
    metrics["fleet.chunks"] = float(chunks)
    metrics["fleet.s"] = sum(duration(s) for s in fleets)
    metrics["fleet.cache_hit_ratio"] = _ratio(
        sum(int(s["cache_hits"]) for s in fleets), chunks
    )

    plans = index.named("optimize.run")
    survivors = sum(int(s["survivors"]) for s in plans)
    metrics["optimize.calls"] = float(len(plans))
    metrics["optimize.screen_s"] = sum(
        duration(s) for s in index.named("optimize.screen")
    )
    metrics["optimize.refine_s"] = sum(
        duration(s) for s in index.named("optimize.refine")
    )
    metrics["optimize.refined_per_candidate"] = _ratio(
        survivors, sum(int(s["candidates"]) for s in plans)
    )
    metrics["optimize.cache_hit_ratio"] = _ratio(
        sum(int(s["cache_hits"]) for s in plans), survivors
    )

    metrics.update(_parallel(index))
    metrics.update(_serve(index, requests))

    if requests:
        answered = sum(float(r["end"]) - float(r["start"]) for r in requests)
        covered = sum(duration(s) for s in index.named("serve.submit"))
    else:
        top = index.named("bench.request")
        answered = sum(duration(s) for s in top)
        covered = sum(
            duration(c)
            for s in top
            for c in index.children[(s["pid"], s["id"])]
        )
    metrics["obs.span_coverage"] = _ratio(covered, answered)
    return metrics


def _parallel(index: SpanIndex) -> Dict[str, float]:
    pools = sorted(index.named("parallel.pool"), key=lambda s: s["start"])
    pool_pid = pools[0]["pid"] if pools else None
    worker_spans = sorted(
        (
            s
            for s in index.spans
            if s["pid"] != pool_pid and s["parent"] is None
            and s["name"] in ("fleet.chunk", "optimize.refine_one")
        ),
        key=lambda s: s["start"],
    )
    starts, overhead = [], 0.0
    for pool in pools:
        inside = [
            s
            for s in worker_spans
            if pool["start"] <= s["start"] and s["end"] <= pool["end"]
        ]
        busy = sum(duration(s) for s in inside)
        workers = int(pool.get("workers") or 1)
        overhead += duration(pool) - busy / workers
        if inside:
            starts.append(float(inside[0]["start"]) - float(pool["start"]))
    return {
        "parallel.pools": float(len(pools)),
        "parallel.pool_start_ms_p50": _p50(starts, 1e3),
        "parallel.pool_s": sum(duration(s) for s in pools),
        "parallel.dispatch_overhead_s": overhead,
    }


def _serve(
    index: SpanIndex, requests: Sequence[Dict[str, object]]
) -> Dict[str, float]:
    submits = index.named("serve.submit")
    lookups = index.named("serve.store_lookup")
    groups = index.named("serve.batch")
    served = defaultdict(int)
    for span in submits:
        served[span.get("served_from")] += 1

    # Engine runs: top-level study.run spans on the server's engine
    # thread (no parent there) and batch groups, keyed by request id.
    engine_start: Dict[object, float] = {}
    engine_spans = []
    for span in index.named("study.run") + groups:
        if span["parent"] is not None or span["rid"] is None:
            continue
        engine_spans.append(span)
        rids = span["rid"] if isinstance(span["rid"], list) else [span["rid"]]
        for rid in rids:
            engine_start.setdefault(rid, float(span["start"]))
    waits = [
        engine_start[s["rid"]] - float(s["start"])
        for s in submits
        if s.get("served_from") == "engine" and s["rid"] in engine_start
    ]

    return {
        "serve.store_lookup_us_p50": _p50([duration(s) for s in lookups], 1e6),
        "serve.store_put_ms_p50": _p50(
            [duration(s) for s in index.named("serve.store_put")], 1e3
        ),
        "serve.store_hit_ratio": _ratio(
            sum(1 for s in lookups if s.get("outcome") == "hit"), len(lookups)
        ),
        "serve.from_store_frac": _ratio(served["store"], len(submits)),
        "serve.from_inflight_frac": _ratio(served["inflight"], len(submits)),
        "serve.from_engine_frac": _ratio(served["engine"], len(submits)),
        "serve.batch_size_mean": (
            statistics.fmean(int(s["size"]) for s in groups) if groups else 0.0
        ),
        "serve.engine_wait_ms_p50": _p50(waits, 1e3),
        "serve.engine_ms_p50": _p50([duration(s) for s in engine_spans], 1e3),
        "serve.wire_ms_p50": _p50(_wire_times(submits, requests), 1e3),
    }


def _wire_times(
    submits: Sequence[Span], requests: Sequence[Dict[str, object]]
) -> List[float]:
    """Client latency minus the server-side submit span of the same
    request, paired by scenario hash and by time (a submit span lies
    inside its request's client interval; clocks are shared)."""
    pending: Dict[object, List[Span]] = defaultdict(list)
    for span in sorted(submits, key=lambda s: s["start"]):
        pending[span.get("hash")].append(span)
    wires = []
    for request in sorted(requests, key=lambda r: r["start"]):
        queue = pending.get(request["hash"])
        if not queue:
            continue
        for position, span in enumerate(queue):
            if span["start"] >= request["start"] and span["end"] <= request["end"]:
                del queue[position]
                latency = float(request["end"]) - float(request["start"])
                wires.append(latency - duration(span))
                break
    return wires
