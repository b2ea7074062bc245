"""The repository's end-to-end benchmark: one workload, one seed, one run.

Run from the checkout root::

    python3 e2ebench/run.py --workload point|plan|serve --seed N \
        --seconds S --trace 0|1

The seed and ``--seconds`` fix the question list (see
:mod:`e2ebench.questions`); the list is the same amount of work however
fast the program runs.  Every answer is checked by
:mod:`e2ebench.oracle`.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` runs the first third of the same list untraced, traced and
untraced again (in fresh processes, wrappers installed from outside by
:mod:`e2ebench.tracer`) and prints the per-layer metrics.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a run record with
provenance (and, traced, the spans) is written under
``.e2ebench/runs/`` in the checkout.  End-to-end timings are normalised
to a nominal host speed by a probe interleaved with the answers
(:mod:`e2ebench.probe`); a ``raw metrics:`` line prints them as measured.

Workloads:

* ``point`` — one in-process closed-loop caller on ``study.run(jobs=1)``
  asking distinct Monte-Carlo questions; the simulation kernels do
  nearly all the work.
* ``plan`` — one closed-loop caller on ``study.run(jobs=<usable cores>,
  cache_dir=<fresh>)`` asking frontier and fleet questions, a fixed
  share repeated or grown; the only workload that forks worker pools and
  uses the on-disk caches.
* ``serve`` — ``python -m repro.cli serve`` in a subprocess, a primed
  store, and two closed-loop callers in this process over a real socket,
  all on one core;
  per-answer overhead and store traffic dominate.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent

WORKLOADS = ("point", "plan", "serve")

#: Fresh spawns of the answering process per run; ``setup_s`` is their
#: median.
SETUP_SPAWNS = 5

#: A traced run times the first third of the list three times —
#: untraced, traced, untraced — so it costs about as much as an
#: untraced run, and the tracing overhead is measured against untraced
#: passes on both sides of the traced one.
TRACED_SHARE = 1 / 3

#: Seconds any single child step may take before the run is abandoned.
STEP_TIMEOUT = 150.0

#: Answers between host-speed probes (:mod:`e2ebench.probe`): one probe
#: per balanced point group, per plan question, per 50 answers of the
#: busy serve caller.
PROBE_EVERY = {"point": 4, "plan": 1, "serve": 50}
#: name -> unit of every end-to-end metric.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "answers_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "trial_years_per_s": "1/s",
    "peak_rss_mb": "MB",
}

HOURS_PER_YEAR = 8760.0


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    return env


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def serve_core() -> Set[int]:
    """The one core the serve workload's server and callers share.

    A hot answer is two hand-offs between caller and server.  Across
    cores each one wakes an idle virtual CPU, and on a shared host that
    wake-up takes as long as the host lets it: with the server and the
    callers on separate cores, a run's hot p50 moved by a quarter from
    one minute to the next while the host-speed probe moved by 6%.  On
    one core the hand-offs are switches on one run queue, and the round
    trip is CPU work that the probe tracks (four runs: p50 within 3%).
    """
    return {max(os.sched_getaffinity(0))}


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def _git_sha() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_hash() -> str:
    """SHA-256 over the relative paths and bytes of every file in src/."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode("utf-8") + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _version(module: str) -> Optional[str]:
    try:
        imported = __import__(module)
    except ImportError:
        return None
    return getattr(imported, "__version__", None)


def provenance(workload: str, seed: int, seconds: int, trace: int) -> Dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": src_hash(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "numba": _version("numba"),
        "REPRO_DISABLE_NUMBA": os.environ.get("REPRO_DISABLE_NUMBA"),
        "usable_cores": usable_cores(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def _read_line(stream, timeout: float, what: str) -> str:
    ready, _, _ = select.select([stream], [], [], timeout)
    if not ready:
        raise BenchError(f"timed out waiting for {what}")
    line = stream.readline()
    if not line:
        raise BenchError(f"{what}: the process exited")
    return line.strip()


def _stop(proc: subprocess.Popen, sig: int = signal.SIGTERM) -> None:
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
    proc.wait()


def peak_rss_of(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("VmHWM not reported")


# ---------------------------------------------------------------------------
# point / plan: the loop process
# ---------------------------------------------------------------------------


def loop_pass(
    questions: List[Dict],
    workdir: Path,
    tag: str,
    jobs: int,
    cached: bool,
    trace: bool,
    spawns: int,
    probe_every: int,
) -> Dict:
    """Spawn the loop ``spawns`` times (timing each to ready), run the
    list on the last one, and return its payload plus the set-up times."""
    qfile = workdir / "questions.json"
    if not qfile.exists():
        qfile.write_text(json.dumps(questions), encoding="utf-8")
    out = workdir / f"{tag}-results.json"
    spans = workdir / f"{tag}-spans.jsonl"
    setups: List[float] = []
    for spawn in range(spawns):
        cmd = [
            sys.executable,
            str(BENCH / "loop.py"),
            "--questions", str(qfile),
            "--out", str(out),
            "--jobs", str(jobs),
            "--probe-every", str(probe_every),
        ]
        if cached:
            cache = workdir / f"{tag}-cache-{spawn}"
            cache.mkdir()
            cmd += ["--cache-dir", str(cache)]
        if trace:
            cmd += ["--trace", str(spans)]
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = _read_line(proc.stdout, STEP_TIMEOUT, "loop readiness")
            if line != "ready":
                raise BenchError(f"unexpected loop output {line!r}")
            setups.append(time.perf_counter() - start)
            if spawn < spawns - 1:
                proc.communicate("quit\n", timeout=STEP_TIMEOUT)
                continue
            stdout, _ = proc.communicate("go\n", timeout=STEP_TIMEOUT)
            if proc.returncode != 0 or "done" not in stdout.split():
                raise BenchError(f"loop failed with code {proc.returncode}")
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    payload = json.loads(out.read_text(encoding="utf-8"))
    payload["setups_s"] = setups
    if trace:
        from e2ebench import tracer

        payload["spans"] = tracer.load(spans)
    return payload


def _simulated_years(question: Dict, result: Optional[Dict]) -> float:
    """Simulated system-years behind one answer: trials x horizon for
    estimates, new fleet members x years, new frontier refinements x
    trials x mission."""
    if result is None:
        return 0.0
    scenario = question["scenario"]
    details = result.get("details") or {}
    kind = scenario["question"]
    if kind == "fleet_survival":
        summary = details["summary"]
        fresh = summary["new_chunks"] / max(summary["chunks"], 1)
        return fresh * summary["members"] * summary["years"]
    if kind == "frontier":
        return (
            details["summary"]["new_evaluations"]
            * scenario["policy"]["trials"]
            * scenario["mission_years"]
        )
    trials = result.get("trials") or 0
    if not trials:
        return 0.0
    if kind == "mttdl":
        return trials * scenario["max_time_hours"] / HOURS_PER_YEAR
    return trials * scenario["mission_years"]


def _percentile(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


#: Consecutive answers per block.  A run's throughput is the median of
#: its blocks' answer rates and its latency percentiles the median of
#: its blocks' percentiles, so a host hiccup that covers a minority of
#: blocks does not move them.  ``rate`` blocks hold a whole number of
#: the workload's balanced question groups and are also the span over
#: which the host's speed is taken; ``latency`` blocks are large enough
#: for ten answers beyond p95 (a single block when the list is shorter
#: than two).
BLOCKS = {
    "point": {"rate": 36, "latency": 2000},
    "plan": {"rate": 21, "latency": 2000},
    "serve": {"rate": 2000, "latency": 2000},
}


def _blocks(ordered: Sequence, size: int) -> List[Sequence]:
    count = max(1, len(ordered) // size)
    size = len(ordered) // count
    blocks = [ordered[i * size : (i + 1) * size] for i in range(count - 1)]
    blocks.append(ordered[(count - 1) * size :])
    return blocks


def end_to_end(
    workload: str,
    setups: Sequence[float],
    answers: Sequence[Tuple[float, float, bool]],
    probes: Sequence[Tuple[float, float]],
    years: float,
    rss: float,
    normalise: bool = True,
) -> Dict[str, float]:
    """End-to-end metrics from per-answer ``(issued, answered, correct)``
    times (see :data:`BLOCKS`).

    With ``normalise`` each rate block's times are divided by the host's
    slowness over that block: the probes taken after the previous block
    ended and before this one did (:mod:`e2ebench.probe`).  A block's
    wall time never includes the probes that ran inside it.  Set-up
    times are divided by the slowness over the whole run: a single
    spawn does not follow the probes next to it (correlation 0.3 over
    twenty spawns), but the host's drift between periods moves both
    (over three sets of ten runs half an hour apart, the ``setup_s``
    medians ranged over 8% normalised and 22% raw on point).
    """
    from e2ebench import probe

    ordered = sorted(answers, key=lambda answer: answer[1])
    rates = []
    latencies: List[float] = []
    previous_end = -math.inf
    for block in _blocks(ordered, BLOCKS[workload]["rate"]):
        first = min(a[0] for a in block)
        last = max(a[1] for a in block)
        slow = 1.0
        if normalise:
            slow = probe.slowness(probe.between(probes, previous_end, last))
        inside = sum(seconds for _, seconds in probe.between(probes, first, last))
        wall = (last - first - inside) / slow
        rates.append(sum(1 for a in block if a[2]) / wall)
        latencies += [(end - start) / slow for start, end, _ in block]
        previous_end = last
    p50s, p95s = [], []
    for block in _blocks(latencies, BLOCKS[workload]["latency"]):
        p50s.append(_percentile(block, 0.50) * 1e3)
        p95s.append(_percentile(block, 0.95) * 1e3)
    answers_per_s = statistics.median(rates)
    correct = sum(1 for a in ordered if a[2])
    metrics = {
        "setup_s": statistics.median(setups)
        / (probe.slowness(probes) if normalise else 1.0),
        "answers_per_s": answers_per_s,
        "latency_p50_ms": statistics.median(p50s),
        "latency_p95_ms": statistics.median(p95s),
        # Simulated work is spread unevenly over blocks: the run's work
        # per correct answer at the block-median answer rate.
        "trial_years_per_s": years / max(correct, 1) * answers_per_s,
        "peak_rss_mb": rss,
    }
    if workload == "serve":
        # Printed beside the contract metrics: only serve runs have
        # more than ten answers beyond p99.
        metrics["latency_p99_ms"] = _percentile(latencies, 0.99) * 1e3
    return metrics


def overhead(traced: float, before: float, after: float) -> float:
    """Traced wall time over the mean of the untraced passes around it."""
    return traced / ((before + after) / 2) - 1


def run_loop_workload(
    workload: str, questions: List[Dict], workdir: Path, trace: bool
) -> Dict:
    from e2ebench import layers, oracle, probe

    jobs = usable_cores() if workload == "plan" else 1
    cached = workload == "plan"
    every = PROBE_EVERY[workload]
    if not trace:
        payload = loop_pass(
            questions, workdir, "e2e", jobs, cached, False, SETUP_SPAWNS, every
        )
        passes = [payload]
    else:
        passes = [
            loop_pass(questions, workdir, tag, jobs, cached, traced, 1, every)
            for tag, traced in (("before", False), ("traced", True), ("after", False))
        ]
        before, payload, after = passes
    attempted = failed = 0
    reasons: List[str] = []
    for one in passes:
        verdicts = oracle.check_list(questions, one["results"])
        attempted += len(verdicts)
        bad = [v for v in verdicts if v is not None]
        failed += len(bad)
        reasons += bad
        one["answers"] = [
            (start, end, verdict is None)
            for (start, end), verdict in zip(one["times_s"], verdicts)
        ]
    record = {"attempted": attempted, "failed": failed, "reasons": reasons[:20]}
    if not trace:
        years = sum(
            _simulated_years(q, r) for q, r in zip(questions, payload["results"])
        )
        timed = (
            payload["setups_s"],
            payload["answers"],
            payload["probes"],
            years,
            payload["peak_rss_mb"],
        )
        record["metrics"] = end_to_end(workload, *timed)
        record["raw_metrics"] = end_to_end(workload, *timed, normalise=False)
        record["host_slowness"] = probe.slowness(payload["probes"])
        record["setups_s"] = payload["setups_s"]
        record["samples"] = len(payload["answers"])
    else:
        metrics = layers.layer_metrics(payload["spans"])
        metrics["obs.trace_overhead_frac"] = overhead(
            payload["wall_s"], before["wall_s"], after["wall_s"]
        )
        record["metrics"] = metrics
        record["spans"] = payload["spans"]
    return record


# ---------------------------------------------------------------------------
# serve: a server subprocess and two callers in this process
# ---------------------------------------------------------------------------


class Server:
    """One ``repro.cli serve`` subprocess with a fresh store."""

    READY = "serving on http://"

    def __init__(self, store: Path, spans: Optional[Path]) -> None:
        if spans is None:
            cmd = [sys.executable, "-m", "repro.cli"]
        else:
            cmd = [
                sys.executable,
                str(BENCH / "serve_launcher.py"),
                "--spans", str(spans),
                "--",
            ]
        cmd += ["serve", "--port", "0", "--cache-dir", str(store)]
        self.lines: List[str] = []
        self._ready = threading.Event()
        self._address: Optional[str] = None
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        # The callers run on the same core (serve_pass).
        os.sched_setaffinity(self.proc.pid, serve_core())
        self._drain = threading.Thread(target=self._read_stderr, daemon=True)
        self._drain.start()
        if not self._ready.wait(STEP_TIMEOUT) or self._address is None:
            self.stop()
            raise BenchError(f"server never became ready: {self.lines[-5:]}")
        self.setup_s = self._ready_at - start
        address = self._address.rsplit(":", 1)
        self.host, self.port = address[0], int(address[1])

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self.lines.append(line.rstrip())
            if not self._ready.is_set() and self.READY in line:
                self._ready_at = time.perf_counter()
                self._address = line.strip().split(self.READY, 1)[1]
                self._ready.set()
        self._ready.set()  # the server exited: stop waiting for it

    def stop(self) -> None:
        # SIGINT is the server's orderly shutdown (KeyboardInterrupt).
        _stop(self.proc, signal.SIGINT)
        self._drain.join(timeout=30)


def _caller(
    host: str,
    port: int,
    items: List[Dict],
    hot: List[Dict],
    barrier: threading.Barrier,
    log: List[Dict],
    probes: Optional[List[Tuple[float, float]]],
) -> None:
    """One closed-loop caller; with ``probes``, it also probes the host
    before every :data:`PROBE_EVERY` ``["serve"]``-th item."""
    from e2ebench import probe
    from repro.serve import ServeClient

    client = ServeClient(host, port, timeout=STEP_TIMEOUT)
    for index, item in enumerate(items):
        if probes is not None and index % PROBE_EVERY["serve"] == 0:
            probes.append(probe.probe())
        if item["kind"] in ("sync_same", "sync_batch"):
            barrier.wait(STEP_TIMEOUT)
        scenario = hot[item["hot"]]["scenario"] if "hot" in item else item["scenario"]
        start = time.perf_counter()
        try:
            envelope = client.query(scenario)
        except Exception as exc:  # counted as a failed answer
            envelope = {"error": repr(exc)}
        log.append({"start": start, "end": time.perf_counter(), "envelope": envelope})


def serve_pass(
    plan: Dict, workdir: Path, tag: str, trace: bool, spawns: int
) -> Dict:
    from repro.serve import ServeClient

    setups: List[float] = []
    spans = workdir / f"{tag}-spans.jsonl" if trace else None
    for spawn in range(spawns):
        server = Server(workdir / f"{tag}-store-{spawn}", spans)
        setups.append(server.setup_s)
        if spawn < spawns - 1:
            server.stop()
    try:
        primer = ServeClient(server.host, server.port, timeout=STEP_TIMEOUT)
        primed = [primer.query(q["scenario"]) for q in plan["hot"]]
        barrier = threading.Barrier(2)
        logs: List[List[Dict]] = [[], []]
        # Only the busy first caller probes; the second is then either
        # idle at its barrier or waiting on an answer.
        probes: List[Tuple[float, float]] = []
        threads = [
            threading.Thread(
                target=_caller,
                args=(
                    server.host,
                    server.port,
                    items,
                    plan["hot"],
                    barrier,
                    log,
                    probes if position == 0 else None,
                ),
            )
            for position, (items, log) in enumerate(zip(plan["callers"], logs))
        ]
        own_cores = os.sched_getaffinity(0)
        os.sched_setaffinity(0, serve_core())
        try:
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - start
        finally:
            os.sched_setaffinity(0, own_cores)
        rss = peak_rss_of(server.proc.pid)
    finally:
        server.stop()
    payload = {
        "setups_s": setups,
        "probes": probes,
        "primed": primed,
        "logs": logs,
        "wall_s": wall,
        "peak_rss_mb": rss,
    }
    if trace:
        from e2ebench import tracer

        payload["spans"] = tracer.load(spans)
    return payload


def _check_serve(plan: Dict, payload: Dict) -> Dict:
    """Oracle verdicts for one serve pass: primed answers against their
    anchors, hot answers against the primed ones, cold answers against
    their anchors."""
    from e2ebench import oracle

    primed = [envelope["result"] for envelope in payload["primed"]]
    verdicts = oracle.check_list(plan["hot"], primed)
    bad_primed = [v for v in verdicts if v is not None]
    reasons = list(bad_primed)
    attempted = failed = 0
    years = 0.0
    answers: List[Tuple[float, float, bool]] = []
    for items, log in zip(plan["callers"], payload["logs"]):
        for position, item in enumerate(items):
            attempted += 1
            if position >= len(log):
                # The caller stopped early (e.g. a broken barrier).
                failed += 1
                reasons.append("no answer")
                continue
            entry = log[position]
            envelope = entry["envelope"]
            result = envelope.get("result")
            if result is None:
                verdict = envelope.get("error", "no answer")
            elif "hot" in item:
                expected = primed[item["hot"]]
                verdict = None
                for key in ("value", "std_error", "trials", "method"):
                    if result.get(key) != expected.get(key):
                        verdict = f"hot answer {key} differs from the stored one"
                        break
            else:
                verdict = oracle.check(item, result)
                if verdict is None and envelope.get("served_from") == "engine":
                    years += _simulated_years(item, result)
            if verdict is not None:
                failed += 1
                reasons.append(verdict)
            answers.append((entry["start"], entry["end"], verdict is None))
    return {
        "attempted": attempted + len(primed),
        "failed": failed + len(bad_primed),
        "reasons": reasons[:20],
        "answers": answers,
        "years": years,
    }


def run_serve_workload(plan: Dict, workdir: Path, trace: bool) -> Dict:
    from e2ebench import layers, probe

    if not trace:
        payload = serve_pass(plan, workdir, "e2e", False, SETUP_SPAWNS)
        checked = _check_serve(plan, payload)
        answers = checked["answers"]
        record = {
            "attempted": checked["attempted"],
            "failed": checked["failed"],
            "reasons": checked["reasons"],
            "samples": len(answers),
        }
        timed = (
            payload["setups_s"],
            answers,
            payload["probes"],
            checked["years"],
            payload["peak_rss_mb"],
        )
        record["metrics"] = end_to_end("serve", *timed)
        record["latency_p99_ms"] = record["metrics"].pop("latency_p99_ms")
        record["raw_metrics"] = end_to_end("serve", *timed, normalise=False)
        record["host_slowness"] = probe.slowness(payload["probes"])
        record["setups_s"] = payload["setups_s"]
        return record
    before = serve_pass(plan, workdir, "before", False, 1)
    traced = serve_pass(plan, workdir, "traced", True, 1)
    after = serve_pass(plan, workdir, "after", False, 1)
    attempted = failed = 0
    reasons: List[str] = []
    for payload in (before, traced, after):
        checked = _check_serve(plan, payload)
        attempted += checked["attempted"]
        failed += checked["failed"]
        reasons += checked["reasons"]
    requests = [
        {
            "start": entry["start"],
            "end": entry["end"],
            "hash": entry["envelope"].get("scenario_hash"),
        }
        for log in traced["logs"]
        for entry in log
    ]
    metrics = layers.layer_metrics(traced["spans"], requests)
    metrics["obs.trace_overhead_frac"] = overhead(
        traced["wall_s"], before["wall_s"], after["wall_s"]
    )
    return {
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons[:20],
        "metrics": metrics,
        "spans": traced["spans"],
    }


# ---------------------------------------------------------------------------
# set-up import probe and the run itself
# ---------------------------------------------------------------------------

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro.study, repro.serve; "
    "print(time.perf_counter() - t)"
)


def import_seconds(spawns: int = SETUP_SPAWNS) -> float:
    """Median fresh-interpreter import time of the program's front doors."""
    samples = []
    for _ in range(spawns):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=STEP_TIMEOUT,
        )
        if out.returncode != 0:
            raise BenchError(f"import probe failed: {out.stderr.strip()}")
        samples.append(float(out.stdout.strip()))
    return statistics.median(samples)


def run(workload: str, seed: int, seconds: int, trace: bool) -> Dict:
    from e2ebench import layers, questions

    runs = ROOT / ".e2ebench" / "runs"
    workdir = runs / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    generated = questions.generate(workload, seed, seconds)
    if trace:
        generated = questions.prefix(generated, TRACED_SHARE)
    try:
        if workload == "serve":
            record = run_serve_workload(generated, workdir, trace)
        else:
            record = run_loop_workload(workload, generated, workdir, trace)
        if trace:
            record["metrics"]["setup.import_s"] = import_seconds()
            spans = record.pop("spans")
            with gzip.open(workdir / "spans.jsonl.gz", "wt", encoding="utf-8") as out:
                for span in spans:
                    out.write(json.dumps(span) + "\n")
            units = layers.PER_LAYER
        else:
            units = END_TO_END
    finally:
        for path in workdir.iterdir():
            if path.name not in ("spans.jsonl.gz",):
                if path.is_dir():
                    shutil.rmtree(path, ignore_errors=True)
                else:
                    path.unlink()
    record["units"] = units
    record["provenance"] = provenance(workload, seed, seconds, int(trace))
    (workdir / "record.json").write_text(
        json.dumps({k: v for k, v in record.items()}, indent=2), encoding="utf-8"
    )
    return record


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(SRC)]
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for reason in record["reasons"]:
        print(f"wrong: {reason}", file=sys.stderr)
    if "samples" in record:
        print(f"latency samples: {record['samples']}")
    if "latency_p99_ms" in record:
        print(f"latency_p99_ms: {record['latency_p99_ms']:.4f}")
    if "host_slowness" in record:
        print(f"host slowness: {record['host_slowness']:.4f}")
        raw = record["raw_metrics"]
        print(f"raw metrics: {json.dumps({k: round(v, 6) for k, v in raw.items()})}")
    print(f"provenance: {json.dumps(record['provenance'], sort_keys=True)}")
    units = record["units"]
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": record["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
