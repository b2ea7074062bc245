"""Outside-in span tracing for the benchmark's traced runs.

No file of the program is touched.  :func:`install_layers` wraps each
layer's public functions at the module attribute its caller looks them
up through (``repro.study.engine.simulate_fleet``,
``repro.simulation.estimators.simulate_batch``, the
``ProcessPoolExecutor`` named in ``repro.fleet.runner`` and
``repro.optimize.runner``, ...), and :meth:`Tracer.uninstall` puts every
original back.

A span is ``{id, name, start, end, parent, rid, pid, ...attributes}``.
Spans stay in memory while the run goes and are written as JSONL when it
ends.  The current span lives in a :class:`contextvars.ContextVar`, so
spans nest correctly across asyncio tasks (each task runs in its own
context) and threads (an executor thread starts with no parent; serve
spans are tied to their request through the request id ``rid``).
Worker processes of a traced pool keep their own spans and write them to
a spool file when they exit; :meth:`Tracer.collect_workers` merges them.
Timestamps are :func:`time.perf_counter`, which on Linux reads
``CLOCK_MONOTONIC`` and is therefore comparable across processes.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import itertools
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: ``(span id, request id)`` of the innermost open span.
_CURRENT: contextvars.ContextVar[Optional[Tuple[int, object]]] = (
    contextvars.ContextVar("e2ebench_span", default=None)
)

#: The tracer whose wrappers are installed; a traced pool's worker
#: initializer finds it here after the fork.
ACTIVE: Optional["Tracer"] = None

Annotate = Callable[[tuple, dict, object], Dict[str, object]]

#: Marks an attribute that did not exist before it was patched.
_MISSING = object()


class Tracer:
    """An in-memory span recorder plus the patches it installed."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self.rids: Dict[int, object] = {}
        self._ids = itertools.count(1)
        self._rid_counter = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    @contextmanager
    def span(self, name: str, rid: object = None) -> Iterator[Dict[str, object]]:
        """Record one span around the ``with`` body; yields the record so
        the body can attach attributes."""
        parent = _CURRENT.get()
        if rid is None and parent is not None:
            rid = parent[1]
        record: Dict[str, object] = {
            "id": next(self._ids),
            "name": name,
            "parent": parent[0] if parent is not None else None,
            "rid": rid,
            "pid": os.getpid(),
        }
        token = _CURRENT.set((record["id"], rid))
        record["start"] = time.perf_counter()
        try:
            yield record
        except BaseException as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = time.perf_counter()
            _CURRENT.reset(token)
            self.spans.append(record)

    def new_rid(self) -> str:
        return f"{os.getpid()}-{next(self._rid_counter)}"

    # -- patching ----------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        annotate: Optional[Annotate] = None,
        rid_of: Optional[Callable[[tuple, dict], object]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        raw = vars(owner).get(attr, _MISSING)
        original = getattr(owner, attr)
        tracer = self

        if asyncio.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                rid = rid_of(args, kwargs) if rid_of else None
                with tracer.span(name, rid) as record:
                    result = await original(*args, **kwargs)
                    if annotate is not None:
                        record.update(annotate(args, kwargs, result))
                    return result

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                rid = rid_of(args, kwargs) if rid_of else None
                with tracer.span(name, rid) as record:
                    result = original(*args, **kwargs)
                    if annotate is not None:
                        record.update(annotate(args, kwargs, result))
                    return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, raw))

    def replace(self, owner: object, attr: str, value: object) -> None:
        """Replace ``owner.attr`` outright (restored by :meth:`uninstall`)."""
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        global ACTIVE
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        if ACTIVE is self:
            ACTIVE = None

    # -- persistence -------------------------------------------------------

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")

    def collect_workers(self, directory: Path) -> None:
        """Merge the spool files traced pool workers left in ``directory``."""
        for path in sorted(Path(directory).glob("worker-*.jsonl")):
            self.spans.extend(load(path))
            path.unlink()


def load(path: Path) -> List[Dict[str, object]]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


# ---------------------------------------------------------------------------
# Worker pools
# ---------------------------------------------------------------------------


def _worker_init(spool_dir: str) -> None:
    """Runs in each traced pool worker: keep only the worker's own spans
    and write them out when the worker exits."""
    from multiprocessing import util

    tracer = ACTIVE
    if tracer is None:
        # A spawned (not forked) worker starts without the wrappers.
        tracer = Tracer()
        install_layers(tracer)
    tracer.spans = []
    # The fork copied the parent's open span; keep its request id only.
    current = _CURRENT.get()
    _CURRENT.set((None, current[1] if current else None))
    spool = Path(spool_dir) / f"worker-{os.getpid()}.jsonl"
    util.Finalize(tracer, tracer.dump, args=(spool,), exitpriority=10)


def traced_pool_class(tracer: Tracer, spool_dir: Path) -> type:
    """A ``ProcessPoolExecutor`` that records one ``parallel.pool`` span
    from construction to shutdown and traces inside its workers."""

    class TracedProcessPoolExecutor(ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            kwargs.setdefault("initializer", _worker_init)
            kwargs.setdefault("initargs", (str(spool_dir),))
            self._e2e_span = tracer.span("parallel.pool")
            record = self._e2e_span.__enter__()
            record["workers"] = max_workers
            super().__init__(max_workers, *args, **kwargs)

        def shutdown(self, wait=True, *, cancel_futures=False):
            try:
                super().shutdown(wait=wait, cancel_futures=cancel_futures)
            finally:
                span, self._e2e_span = self._e2e_span, None
                if span is not None:
                    span.__exit__(None, None, None)

    return TracedProcessPoolExecutor


# ---------------------------------------------------------------------------
# The layer wrappers
# ---------------------------------------------------------------------------


def _arg(args: tuple, kwargs: dict, index: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def install_layers(tracer: Tracer, spool_dir: Optional[Path] = None) -> Tracer:
    """Wrap every layer the benchmark reports on; returns ``tracer``."""
    global ACTIVE
    import repro.fleet.runner as fleet_runner
    import repro.optimize.runner as optimize_runner
    import repro.serve.service as serve_service
    import repro.serve.batch as serve_batch
    import repro.simulation.estimators as estimators
    import repro.study as study
    import repro.study.engine as engine
    from repro.serve.store import ResultStore
    from repro.study.scenario import Scenario

    def scenario_rid(args, kwargs):
        scenario = _arg(args, kwargs, 0, "scenario")
        return tracer.rids.get(id(scenario))

    tracer.wrap(study, "run", "study.run", rid_of=scenario_rid)
    tracer.wrap(Scenario, "content_hash", "study.hash")

    def kernel(args, kwargs, result):
        return {
            "trials": int(_arg(args, kwargs, 1, "trials")),
            "biased": _arg(args, kwargs, 7, "bias") is not None,
        }

    tracer.wrap(estimators, "simulate_batch", "simulation.kernel", kernel)
    tracer.wrap(serve_batch, "simulate_batch", "simulation.kernel", kernel)

    def estimate(args, kwargs, result):
        return {
            "returned_trials": int(result.trials),
            "method": result.method,
            "escalated": kwargs.get("method") == "auto"
            and result.method != "standard",
        }

    tracer.wrap(engine, "run_mttdl", "simulation.estimate", estimate)
    tracer.wrap(engine, "run_loss_probability", "simulation.estimate", estimate)
    tracer.wrap(engine, "mirrored_mttdl_markov", "markov.solve")
    tracer.wrap(engine, "mirrored_mttdl", "core.closed_form")
    tracer.wrap(engine, "screen_mttdl_hours", "core.closed_form")

    def fleet(args, kwargs, result):
        return {
            "chunks": result.chunks,
            "cache_hits": result.cache_hits,
            "member_years": result.members * result.timeline.years,
        }

    tracer.wrap(engine, "simulate_fleet", "fleet.simulate", fleet)
    tracer.wrap(fleet_runner, "simulate_fleet_chunk", "fleet.chunk")

    def optimize(args, kwargs, result):
        return {
            "candidates": len(result.screened),
            "survivors": len(result.survivors),
            "cache_hits": result.cache_hits,
        }

    tracer.wrap(engine, "optimize", "optimize.run", optimize)
    tracer.wrap(optimize_runner, "screen_candidates", "optimize.screen")
    tracer.wrap(optimize_runner, "refine_evaluations", "optimize.refine")
    tracer.wrap(optimize_runner, "refine", "optimize.refine_one")

    if spool_dir is not None:
        pool = traced_pool_class(tracer, spool_dir)
        tracer.replace(fleet_runner, "ProcessPoolExecutor", pool)
        tracer.replace(optimize_runner, "ProcessPoolExecutor", pool)

    # -- serve -------------------------------------------------------------

    def submit_rid(args, kwargs):
        scenario = _arg(args, kwargs, 1, "scenario")
        rid = tracer.new_rid()
        tracer.rids[id(scenario)] = rid
        return rid

    def submitted(args, kwargs, answer):
        tracer.rids.pop(id(_arg(args, kwargs, 1, "scenario")), None)
        return {"served_from": answer.served_from, "hash": answer.scenario_hash}

    tracer.wrap(
        serve_service.StudyService,
        "submit",
        "serve.submit",
        submitted,
        rid_of=submit_rid,
    )
    tracer.wrap(
        ResultStore,
        "lookup",
        "serve.store_lookup",
        lambda args, kwargs, result: {"outcome": result[1]},
    )
    tracer.wrap(ResultStore, "put", "serve.store_put")

    def group_rids(args, kwargs):
        scenarios = _arg(args, kwargs, 0, "scenarios")
        return [tracer.rids.get(id(scenario)) for scenario in scenarios]

    tracer.wrap(
        serve_service,
        "run_group",
        "serve.batch",
        lambda args, kwargs, result: {"size": len(result)},
        rid_of=group_rids,
    )
    ACTIVE = tracer
    return tracer
