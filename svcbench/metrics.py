"""Every metric the benchmark reports, and the per-layer arithmetic.

:data:`END_TO_END` and :data:`PER_LAYER` are the single source of the
names, units and directions in ``BENCHMARK.json`` (a unit test keeps the
two equal).  Each per-layer metric also records which end-to-end metric
it is expected to move, and on which workload — the predictions a
change to that layer is judged against.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, NamedTuple, Sequence

from svcbench.stats import self_time
from svcbench.tracing import Span


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float = 0.0  # end-to-end only
    moves: str = ""  # per-layer only: end-to-end metric and workload


END_TO_END = (
    Metric("submit_p50_ms", "ms", "lower", 0.25),
    Metric("submit_p90_ms", "ms", "lower", 0.25),
    Metric("cells_per_s", "cells/s", "higher", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)

_HIT_PATH = "warm-store submit_p50_ms and cells_per_s"
_COMPUTE = "cold-process cells_per_s and submit_p50_ms"

PER_LAYER = (
    Metric("service.cache.len_calls", "count/sub", "lower", moves=_HIT_PATH),
    Metric("service.cache.len_ms", "ms/sub", "lower", moves=_HIT_PATH),
    Metric("service.cache.get_calls", "count/sub", "lower", moves=_HIT_PATH),
    Metric("service.cache.get_us", "us/sub", "lower", moves=_HIT_PATH),
    Metric("service.cache.put_calls", "count/sub", "lower",
           moves="cold-process and overlap-fast cells_per_s (small)"),
    Metric("service.cache.put_ms", "ms/sub", "lower",
           moves="cold-process and overlap-fast cells_per_s (small)"),
    Metric("service.cache.hit_ratio", "ratio", "higher", moves=_HIT_PATH),
    Metric("service.cache.hit_us_store_0", "us/hit", "lower", moves=_HIT_PATH),
    Metric("service.cache.hit_us_store_1e4", "us/hit", "lower", moves=_HIT_PATH),
    Metric("service.cache.hit_us_store_1e5", "us/hit", "lower", moves=_HIT_PATH),
    Metric("api.study.expand_ms", "ms/sub", "lower",
           moves="warm-store submit_p50_ms once the cache length walk is gone"),
    Metric("api.plans.identity_calls", "count/sub", "lower",
           moves="warm-store submit_p50_ms once the cache length walk is gone"),
    Metric("api.plans.identity_us", "us/sub", "lower",
           moves="warm-store submit_p50_ms once the cache length walk is gone"),
    Metric("api.scheduler.self_ms", "ms/sub", "lower",
           moves="overlap-fast submit_p90_ms"),
    Metric("api.scheduler.lock_wait_ms", "ms/sub", "lower",
           moves="warm-store submit_p50_ms (the other client's cache walk)"),
    Metric("api.scheduler.dedup_waits", "count/sub", "lower",
           moves="overlap-fast submit_p90_ms"),
    Metric("api.results.to_dict_ms", "ms/sub", "lower", moves="warm-store submit_p50_ms"),
    Metric("api.results.dumps_ms", "ms/sub", "lower", moves="warm-store submit_p50_ms"),
    Metric("service.submit_ms", "ms/sub", "lower", moves="every workload submit_p50_ms"),
    Metric("service.http_ms", "ms/sub", "lower", moves="warm-store submit_p50_ms"),
    Metric("service.envelope_kb", "KiB/sub", "lower", moves="warm-store submit_p50_ms"),
    Metric("service.admission_rejects", "count", "lower",
           moves="every workload submit_p90_ms"),
    Metric("api.session.run_cells_ms_per_cell", "ms/cell", "lower", moves=_COMPUTE),
    Metric("api.session.cells_per_batch", "cells/batch", "higher", moves=_COMPUTE),
    Metric("sim.parallel.speedup_vs_serial", "x", "higher", moves=_COMPUTE),
    Metric("sim.executor.us_per_rep", "us/rep", "lower", moves="cold-process cells_per_s"),
    Metric("sim.executor.reps", "reps", "higher", moves="none (probe size)"),
    Metric("sim.kernel.us_per_rep", "us/rep", "lower", moves="overlap-fast cells_per_s"),
    Metric("sim.kernel.reps", "reps", "higher", moves="none (probe size)"),
    Metric("sim.fastpath.us_per_rep", "us/rep", "lower", moves="overlap-fast cells_per_s"),
    Metric("sim.fastpath.reps", "reps", "higher", moves="none (probe size)"),
    Metric("trace.overhead_pct", "%", "lower", moves="none (tracing cost)"),
)

#: The spans whose time counts as a child of ``run_plans``: the cache,
#: plan (identity) and backend calls, and waits for the claim lock.
#: What is left is the scheduler's own time, dedup waits and turnstile
#: waits included.
SCHEDULER_CHILDREN = (
    "api.scheduler.lock_wait",
    "service.cache.len",
    "service.cache.get",
    "service.cache.put",
    "api.plans.identity",
    "api.session.run_cells",
)


def layer_metrics(
    spans: Sequence[Span],
    *,
    submissions: int,
    round_trip_ms: float,
    scheduler_hits: int,
    admission_rejects: int,
) -> Dict[str, float]:
    """Per-submission layer figures of one traced window.

    ``round_trip_ms`` is the clients' mean submission latency;
    ``scheduler_hits`` the growth of ``CellScheduler.hits`` over the
    window, which counts cache hits *and* waits on cells another
    submission was computing — the waits are what is left after the
    cache's own hits are taken away.
    """
    if submissions < 1:
        raise ValueError("a traced window needs at least one submission")
    total: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        total[span.name] += span.end - span.start
        calls[span.name] += 1
        if span.parent is not None:
            children[span.parent].append(span)

    scheduler_self = sum(
        self_time(
            span.start,
            span.end,
            [
                (child.start, child.end)
                for child in children[span.id]
                if child.name in SCHEDULER_CHILDREN
            ],
        )
        for span in spans
        if span.name == "api.scheduler.run_plans"
    )
    gets = [span for span in spans if span.name == "service.cache.get"]
    get_hits = sum(1 for span in gets if span.attrs.get("hit"))
    batches = [span for span in spans if span.name == "api.session.run_cells"]
    batch_cells = sum(span.attrs["cells"] for span in batches)
    envelope_bytes = sum(
        span.attrs["bytes"] for span in spans if span.name == "api.results.dumps"
    )

    def per_sub(value: float) -> float:
        return value / submissions

    submit_ms = per_sub(total["service.submit"]) * 1e3
    return {
        "service.cache.len_calls": per_sub(calls["service.cache.len"]),
        "service.cache.len_ms": per_sub(total["service.cache.len"]) * 1e3,
        "service.cache.get_calls": per_sub(len(gets)),
        "service.cache.get_us": per_sub(total["service.cache.get"]) * 1e6,
        "service.cache.put_calls": per_sub(calls["service.cache.put"]),
        "service.cache.put_ms": per_sub(total["service.cache.put"]) * 1e3,
        "service.cache.hit_ratio": get_hits / len(gets) if gets else 0.0,
        "api.study.expand_ms": per_sub(total["api.study.expand"]) * 1e3,
        "api.plans.identity_calls": per_sub(calls["api.plans.identity"]),
        "api.plans.identity_us": per_sub(total["api.plans.identity"]) * 1e6,
        "api.scheduler.self_ms": per_sub(scheduler_self) * 1e3,
        "api.scheduler.lock_wait_ms": per_sub(total["api.scheduler.lock_wait"]) * 1e3,
        "api.scheduler.dedup_waits": per_sub(scheduler_hits - get_hits),
        "api.results.to_dict_ms": per_sub(total["api.results.to_dict"]) * 1e3,
        "api.results.dumps_ms": per_sub(total["api.results.dumps"]) * 1e3,
        "service.submit_ms": submit_ms,
        "service.http_ms": round_trip_ms - submit_ms,
        "service.envelope_kb": per_sub(envelope_bytes) / 1024.0,
        "service.admission_rejects": float(admission_rejects),
        "api.session.run_cells_ms_per_cell": (
            total["api.session.run_cells"] / batch_cells * 1e3 if batch_cells else 0.0
        ),
        "api.session.cells_per_batch": (
            batch_cells / len(batches) if batches else 0.0
        ),
    }


def self_time_shares(spans: Sequence[Span]) -> Dict[str, float]:
    """Each span name's self time as a share of all ``service.submit`` time.

    The diagnostic behind "which layer does a submission pay for":
    spans outside any submission (the server's JSON dump) are left out.
    """
    by_id = {span.id: span for span in spans}
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    own: Dict[str, float] = defaultdict(float)
    submit_total = 0.0
    for span in spans:
        root = by_id.get(span.root)
        if root is None or root.name != "service.submit":
            continue
        if span.name == "service.submit":
            submit_total += span.end - span.start
        own[span.name] += self_time(
            span.start, span.end,
            [(child.start, child.end) for child in children[span.id]],
        )
    if submit_total <= 0:
        return {}
    return {name: value / submit_total for name, value in own.items()}
