"""Running one workload: preparation, set-up, windows, checks, probes.

The service under test is the real program: a ``StudyService`` with the
``repro serve`` defaults behind ``make_server`` on a loopback port, fed
by closed-loop client threads calling ``submit_study`` (a client sends
its next submission only when the previous reply arrived, as ``repro
submit`` does).  Everything runs in this process except the process
backend's workers.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import tempfile
import threading
import time
from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.api.results import json_dumps_exact
from repro.api.scheduler import job_with_kernel
from repro.api.study import Study
from repro.errors import ReproError
from repro.experiments.config import ExecutionSettings
from repro.service.cache import CellCache
from repro.service.client import submit_study, wait_until_ready
from repro.service.server import (
    DEFAULT_FAIR_SHARE,
    DEFAULT_MAX_PENDING,
    DEFAULT_REQUEST_TIMEOUT,
    StudyService,
    make_server,
)
from repro.sim.fastpath import StaticCellJob
from repro.sim.parallel import BatchRunner

from svcbench import specs
from svcbench.metrics import layer_metrics, self_time_shares
from svcbench.stats import median, percentile, quarter_shares, samples_beyond
from svcbench.tracing import TracedCache, Tracer, instrument

#: Samples a window must hold so that ten lie beyond its p90.
MIN_SAMPLES = 100
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Foreign entries the warm store is seeded with, and the hit-probe sizes.
WARM_STORE_ENTRIES = 10_000
PROBE_SIZES = ((0, "0"), (10_000, "1e4"), (100_000, "1e5"))
#: Allowed gap between a window quarter's hit share and the whole window's.
SHARE_TOLERANCE = 0.05
#: Replies of a cold-process window recomputed serially and compared.
COLD_SAMPLE = 4
#: Lattice windows of an overlap-fast window recomputed serially.
OVERLAP_SAMPLE = 2
#: Studies the serial layer probes run.
PROBE_STUDIES = 2
#: Provenance that describes where and when a cell ran, not what it is.
VOLATILE_PROVENANCE = ("wall_seconds", "compute_seconds", "batch", "backend")


class Workload(NamedTuple):
    name: str
    clients: int
    settings: Optional[ExecutionSettings]
    hit_share: float  # of every window and each of its quarters


def workload(name: str) -> Workload:
    if name == "warm-store":
        return Workload(name, 2, None, 1.0)
    if name == "cold-process":
        return Workload(name, 1, ExecutionSettings(backend="process", workers=2), 0.0)
    if name == "overlap-fast":
        return Workload(name, 2, None, 0.5)
    raise ValueError(f"unknown workload {name!r}")


class Submission(NamedTuple):
    client: int
    spec: Dict[str, object]
    start: float
    end: float
    envelope: Optional[Dict[str, object]]
    error: Optional[str]


class Window(NamedTuple):
    submissions: List[Submission]
    seconds: float


# -- preparation -------------------------------------------------------


def foreign_identity(seed: int, index: int) -> str:
    return hashlib.sha256(f"svcbench/foreign/{seed}/{index}".encode()).hexdigest()


def fill_foreign(cache: CellCache, template: str, seed: int, start: int, stop: int) -> None:
    """Write entries ``[start, stop)`` of seed-derived foreign cells.

    Each is a byte copy of the real entry whose identity is
    ``template`` with only the identity changed; no submission of this
    benchmark ever asks for one, so they are pure store size.  Callers
    ``os.sync()`` afterwards, so writing the files back does not land
    in the timed part of the run.
    """
    with open(cache.path_for(template), "r", encoding="utf-8") as handle:
        text = handle.read()
    for index in range(start, stop):
        identity = foreign_identity(seed, index)
        path = cache.path_for(identity)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text.replace(template, identity))


def any_entry(directory: str) -> str:
    """The identity of one entry in a cell store."""
    for root, _, names in sorted(os.walk(directory)):
        for name in sorted(names):
            if name.endswith(".json"):
                return name[: -len(".json")]
    raise RuntimeError(f"no cell store entry under {directory}")


def prepare_warm_store(directory: str, seed: int) -> Dict[str, str]:
    """Compute the warm set and warm-up studies for real, then add foreign entries.

    Returns the exact JSON of each warm study's result, keyed by spec
    hash: every window reply must equal it byte for byte.
    """
    expected: Dict[str, str] = {}
    with StudyService(cache_dir=directory) as service:
        for spec in specs.warm_set(seed) + specs.warmup_specs("warm-store", seed):
            envelope = service.submit(spec)
            expected[envelope["spec_hash"]] = json_dumps_exact(envelope["result"])
        fill_foreign(service.cache, any_entry(directory), seed, 0, WARM_STORE_ENTRIES)
    os.sync()
    return expected


# -- the running service -----------------------------------------------


class RunningService:
    """A set-up service: constructed, serving, ready and warmed up."""

    def __init__(self, wl: Workload, seed: int, cache: CellCache) -> None:
        started = time.perf_counter()
        self.service = StudyService(
            wl.settings,
            cache=cache,
            max_pending=DEFAULT_MAX_PENDING,
            fair_share=DEFAULT_FAIR_SHARE,
        )
        self.server = make_server(
            self.service, "http://127.0.0.1:0",
            request_timeout=DEFAULT_REQUEST_TIMEOUT,
        )
        self._thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.05},  # prompt shutdown between set-ups
            name="svcbench-server",
            daemon=True,
        )
        self._thread.start()
        host, port = self.server.server_address[:2]
        self.url = f"http://{host}:{port}"
        try:
            wait_until_ready(self.url)
            for spec in specs.warmup_specs(wl.name, seed):
                submit_study(self.url, spec, retries=0)
        except BaseException:
            self.close()
            raise
        self.setup_seconds = time.perf_counter() - started

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self._thread.join(timeout=30)
        self.service.close()


def store_for(workdir: str, prepared: Optional[str]) -> str:
    """The store a set-up starts from: the prepared one, or a fresh empty one."""
    if prepared is not None:
        return prepared
    return tempfile.mkdtemp(prefix="store-", dir=workdir)


# -- windows -----------------------------------------------------------


def run_window(
    url: str,
    stream: specs.SpecStream,
    clients: int,
    seconds: float,
    min_samples: int = 0,
) -> Window:
    """Closed-loop clients for ``seconds``.

    The window stretches past ``seconds`` only until ``min_samples``
    replies are in, and never past twice ``seconds``.
    """
    submissions: List[Submission] = []
    lock = threading.Lock()
    begin = time.perf_counter()
    cap = begin + 2 * seconds

    def client(index: int) -> None:
        while True:
            now = time.perf_counter()
            with lock:
                count = len(submissions)
            if now >= cap or (now - begin >= seconds and count >= min_samples):
                return
            spec = stream.next_spec(index)
            started = time.perf_counter()
            envelope = error = None
            try:
                envelope = submit_study(url, spec, retries=0, timeout=60.0)
            except ReproError as exc:
                error = f"{type(exc).__name__}: {exc}"
            ended = time.perf_counter()
            with lock:
                submissions.append(
                    Submission(index, spec, started, ended, envelope, error)
                )

    threads = [
        threading.Thread(target=client, args=(index,), name=f"svcbench-client-{index}")
        for index in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    submissions.sort(key=lambda item: item.end)
    end = submissions[-1].end if submissions else time.perf_counter()
    return Window(submissions, end - begin)


def cells_resolved(window: Window) -> int:
    return sum(
        item.envelope["cells"] for item in window.submissions if item.envelope
    )


def end_to_end(window: Window) -> Dict[str, float]:
    latencies = [(item.end - item.start) * 1e3 for item in window.submissions]
    return {
        "submit_p50_ms": percentile(latencies, 50),
        "submit_p90_ms": percentile(latencies, 90),
        "cells_per_s": cells_resolved(window) / window.seconds,
    }


# -- reply checks ------------------------------------------------------


def stable_records(result: Dict[str, object], *, drop=()) -> str:
    """A result's records as exact JSON, minus run-specific provenance."""
    records = []
    for record in result["records"]:
        provenance = {
            key: value
            for key, value in record["provenance"].items()
            if key not in VOLATILE_PROVENANCE and key not in drop
        }
        records.append({**record, "provenance": provenance})
    return json_dumps_exact(records)


def serial_result(spec: Dict[str, object]) -> Dict[str, object]:
    return Study(spec).run().to_dict()


class CheckReport(NamedTuple):
    failed: int
    problems: List[str]


def check_window(
    wl: Workload,
    subs: Sequence[Submission],
    rng: random.Random,
    expected: Optional[Dict[str, str]],
    *,
    percentiles: bool = True,
) -> CheckReport:
    """Check every reply, the window's shape, and a recomputed sample."""
    bad = set()
    problems: List[str] = []

    def fail(position: int, why: str) -> None:
        if position not in bad and len(problems) < 20:
            problems.append(f"submission {position}: {why}")
        bad.add(position)

    for position, item in enumerate(subs):
        env = item.envelope
        if env is None:
            fail(position, item.error or "no reply")
            continue
        if env["cells"] != 8 or len(env["result"]["records"]) != 8:
            fail(position, f"{env['cells']} cells, expected 8")
        elif env["computed"] + env["cached"] != env["cells"]:
            fail(position, "computed + cached != cells")
        elif wl.name == "warm-store":
            if env["computed"] != 0:
                fail(position, f"{env['computed']} cells computed on a warm store")
            elif json_dumps_exact(env["result"]) != expected.get(env["spec_hash"]):
                fail(position, "reply differs from its preparation-time result")
        elif wl.name == "cold-process" and env["cached"] != 0:
            fail(position, f"{env['cached']} cached cells on fresh seeds")

    good = [position for position in range(len(subs)) if position not in bad]
    if wl.name == "cold-process":
        for position in sorted(rng.sample(good, min(COLD_SAMPLE, len(good)))):
            item = subs[position]
            if stable_records(item.envelope["result"]) != stable_records(
                serial_result(item.spec)
            ):
                fail(position, "reply differs from a serial Study.run")
    if wl.name == "overlap-fast":
        _check_overlap(subs, good, rng, fail, problems)

    rows = [
        (item.envelope["cached"], item.envelope["cells"])
        for item in subs if item.envelope
    ]
    if len(rows) < 4:
        problems.append(f"only {len(rows)} replies in the window")
    else:
        whole = sum(hit for hit, _ in rows) / sum(cells for _, cells in rows)
        if abs(whole - wl.hit_share) > SHARE_TOLERANCE:
            problems.append(f"window hit share {whole:.3f}, expected {wl.hit_share}")
        for quarter, share in enumerate(quarter_shares(rows)):
            if abs(share - whole) > SHARE_TOLERANCE:
                problems.append(
                    f"quarter {quarter} hit share {share:.3f} vs window {whole:.3f}"
                )
    if percentiles and samples_beyond(len(subs), 90) < 10:
        problems.append(f"{len(subs)} samples leave fewer than 10 beyond p90")
    return CheckReport(len(bad), problems)


def _check_overlap(subs, good, rng, fail, problems) -> None:
    """Each lattice cell computed once; shared cells equal in every window."""
    seen: Dict[str, str] = {}
    for position in good:
        for record in subs[position].envelope["result"]["records"]:
            text = stable_records(
                {"records": [record]}, drop=("spec_hash",)
            )
            first = seen.setdefault(record["key"], text)
            if first != text:
                fail(position, f"cell {record['key']} differs between windows")
    computed = sum(subs[position].envelope["computed"] for position in good)
    if computed != len(seen):
        problems.append(
            f"{computed} cells computed for {len(seen)} unique lattice cells"
        )
    for position in sorted(rng.sample(good, min(OVERLAP_SAMPLE, len(good)))):
        item = subs[position]
        if stable_records(item.envelope["result"]) != stable_records(
            serial_result(item.spec)
        ):
            fail(position, "reply differs from a serial Study.run")


# -- probes ------------------------------------------------------------


def _timed(function, repeats: int = 3) -> float:
    """Median wall seconds of ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        function()
        times.append(time.perf_counter() - started)
    return median(times)


def layer_probes(service: StudyService, probe_specs: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """Serial per-rep cost of each compute layer on the workload's own cells."""
    block = service.session.block_size
    plans = [plan for spec in probe_specs for plan in Study(spec).cells()]
    kernel = "fast" if probe_specs[0].get("kernel") == "fast" else "exact"
    workload_jobs = [job_with_kernel(plan.job, kernel) for plan in plans]
    static_jobs = [
        plan.job
        for spec in probe_specs
        for plan in Study({**spec, "fast_static": True, "kernel": "exact"}).cells()
        if isinstance(plan.job, StaticCellJob)
    ]
    out: Dict[str, float] = {}
    with BatchRunner.serial(chunk_size=block) as runner:
        for layer, jobs in (
            ("sim.executor", [job_with_kernel(plan.job, "exact") for plan in plans]),
            ("sim.kernel", [job_with_kernel(plan.job, "fast") for plan in plans]),
            ("sim.fastpath", static_jobs),
        ):
            reps = sum(job.reps for job in jobs)
            seconds = _timed(lambda: runner.run_cells(jobs))
            out[f"{layer}.us_per_rep"] = seconds / reps * 1e6
            out[f"{layer}.reps"] = float(reps)
        serial = _timed(lambda: runner.run_cells(workload_jobs))
    served = _timed(lambda: service.session.run_cells(workload_jobs))
    out["sim.parallel.speedup_vs_serial"] = serial / served
    return out


def hit_probe(workdir: str, seed: int) -> Dict[str, float]:
    """Per-hit µs of one all-hit study as the store grows to 10⁵ entries."""
    directory = tempfile.mkdtemp(prefix="probe-", dir=workdir)
    spec = specs.exact_spec(specs.study_seed(seed, specs.WARMUP_BASE + 100))
    out: Dict[str, float] = {}
    try:
        with StudyService(cache_dir=directory) as service:
            service.submit(spec)
            template = any_entry(directory)
            filled = 0
            for size, label in PROBE_SIZES:
                fill_foreign(service.cache, template, seed, filled, size)
                filled = max(filled, size)
                os.sync()
                repeats = 15 if size == 0 else 3
                seconds = _timed(lambda: service.submit(spec), repeats)
                out[f"service.cache.hit_us_store_{label}"] = seconds / 8 * 1e6
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return out


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its live child processes (``/proc``)."""
    me = os.getpid()
    pids = [me]
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r") as handle:
                stat = handle.read()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", "r") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


# -- one run -----------------------------------------------------------


class Result(NamedTuple):
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    problems: List[str]
    notes: Dict[str, object]


def run(name: str, seed: int, seconds: float, trace: bool, workdir: str) -> Result:
    wl = workload(name)
    rng = random.Random(seed)
    prepared = expected = None
    if wl.name == "warm-store":
        prepared = os.path.join(workdir, "warm-store")
        expected = prepare_warm_store(prepared, seed)

    tracer = Tracer()

    def cache_for(directory: str) -> CellCache:
        return TracedCache(directory, tracer) if trace else CellCache(directory)

    setups: List[float] = []
    repeats = 1 if trace else SETUP_REPEATS
    for attempt in range(repeats):
        running = RunningService(wl, seed, cache_for(store_for(workdir, prepared)))
        setups.append(running.setup_seconds)
        if attempt < repeats - 1:
            running.close()

    stream = specs.SpecStream(wl.name, seed, wl.clients)
    notes: Dict[str, object] = {}
    try:
        if trace:
            metrics, windows = traced_run(running, wl, stream, tracer, seconds, rng, notes)
        else:
            window = run_window(running.url, stream, wl.clients, seconds, MIN_SAMPLES)
            windows = [window]
            metrics = end_to_end(window)
            metrics["setup_s"] = median(setups)
            metrics["peak_rss_mb"] = peak_rss_mb()
            notes["samples"] = len(window.submissions)
            notes["window_s"] = window.seconds
    finally:
        running.close()
    if trace:
        metrics.update(hit_probe(workdir, seed))

    submissions = [item for window in windows for item in window.submissions]
    report = check_window(
        wl, submissions, rng, expected, percentiles=not trace
    )
    return Result(
        correct=report.failed == 0 and not report.problems,
        attempted=len(submissions),
        failed=report.failed,
        metrics=metrics,
        problems=report.problems,
        notes=notes,
    )


def traced_run(running, wl, stream, tracer, seconds, rng, notes):
    """An untraced then a traced half-window, then the serial probes.

    The untraced half only gives the base for ``trace.overhead_pct``;
    the layer figures come from the traced half.
    """
    service = running.service
    half = seconds / 2
    plain = run_window(running.url, stream, wl.clients, half)
    hits_before = service.scheduler.hits
    rejects_before = service.rejected
    with instrument(service, tracer):
        traced = run_window(running.url, stream, wl.clients, half)
    good = [item for item in traced.submissions if item.envelope]
    round_trip = sum(item.end - item.start for item in good) / max(len(good), 1)
    metrics = layer_metrics(
        tracer.spans,
        submissions=max(len(good), 1),
        round_trip_ms=round_trip * 1e3,
        scheduler_hits=service.scheduler.hits - hits_before,
        admission_rejects=service.rejected - rejects_before,
    )
    plain_rate = cells_resolved(plain) / plain.seconds
    traced_rate = cells_resolved(traced) / traced.seconds
    metrics["trace.overhead_pct"] = (plain_rate - traced_rate) / plain_rate * 100.0
    notes["samples"] = [len(plain.submissions), len(traced.submissions)]
    notes["self_time_share"] = {
        name: round(share, 4)
        for name, share in sorted(
            self_time_shares(tracer.spans).items(), key=lambda item: -item[1]
        )
    }
    probe = (
        specs.warm_set(stream.workload_seed)[:PROBE_STUDIES]
        if wl.name == "warm-store"
        else [item.spec for item in rng.sample(good, PROBE_STUDIES)]
    )
    metrics.update(layer_probes(service, probe))
    return metrics, [plain, traced]

