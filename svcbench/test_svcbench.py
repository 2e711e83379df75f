"""Unit tests for the benchmark's arithmetic and inputs."""

from __future__ import annotations

import json
import os

import pytest

from repro.api.plans import cell_identity
from repro.api.scheduler import job_with_kernel
from repro.api.study import Study

from svcbench import specs
from svcbench.metrics import END_TO_END, PER_LAYER, layer_metrics
from svcbench.stats import (
    covered,
    percentile,
    quarter_shares,
    samples_beyond,
    self_time,
)
from svcbench.tracing import Span

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(__file__)), "BENCHMARK.json")


def identities(spec):
    kernel = spec.get("kernel", "exact")
    return {
        cell_identity(job_with_kernel(plan.job, kernel), block_size=256)
        for plan in Study(spec).cells()
    }


def stream_specs(workload, seed, count=12):
    stream = specs.SpecStream(workload, seed, clients=2)
    return [stream.next_spec(position % 2) for position in range(count)]


class TestPercentile:
    def test_nearest_rank(self):
        values = [float(v) for v in range(10, 0, -1)]
        assert percentile(values, 50) == 5.0
        assert percentile(values, 90) == 9.0
        assert percentile(values, 91) == 10.0
        assert percentile(values, 100) == 10.0
        assert percentile([7.0], 1) == 7.0

    def test_returns_a_sample(self):
        values = [0.5, 3.25, 1.0, 8.0]
        assert percentile(values, 50) == 1.0
        assert percentile(values, 75) == 3.25

    def test_samples_beyond(self):
        assert samples_beyond(100, 90) == 10
        assert samples_beyond(99, 90) == 9
        assert samples_beyond(1, 90) == 0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 0)


class TestSelfTime:
    def test_overlapping_children_count_once(self):
        children = [(1.0, 4.0), (3.0, 6.0), (2.0, 5.0)]
        assert covered(0.0, 10.0, children) == 5.0
        assert self_time(0.0, 10.0, children) == 5.0

    def test_children_are_clipped_to_the_parent(self):
        assert self_time(0.0, 10.0, [(-2.0, 1.0), (8.0, 12.0)]) == 7.0
        assert self_time(0.0, 10.0, [(11.0, 12.0)]) == 10.0

    def test_disjoint_and_nested(self):
        assert self_time(0.0, 10.0, [(1.0, 2.0), (4.0, 6.0), (4.5, 5.0)]) == 7.0
        assert self_time(0.0, 1.0, []) == 1.0

    def test_scheduler_self_excludes_its_children(self):
        def span(span_id, parent, name, start, end):
            made = Span(span_id, None, name)
            made.parent, made.start, made.end = parent, start, end
            return made

        spans = [
            span(1, None, "service.submit", 0.0, 1.0),
            span(2, 1, "api.scheduler.run_plans", 0.1, 0.9),
            span(3, 2, "api.scheduler.lock_wait", 0.1, 0.3),
            span(4, 2, "service.cache.len", 0.3, 0.6),
            span(5, 2, "service.cache.len", 0.5, 0.7),
        ]
        figures = layer_metrics(
            spans, submissions=1, round_trip_ms=1500.0,
            scheduler_hits=0, admission_rejects=0,
        )
        assert figures["api.scheduler.self_ms"] == pytest.approx(200.0)
        assert figures["api.scheduler.lock_wait_ms"] == pytest.approx(200.0)
        assert figures["service.cache.len_ms"] == pytest.approx(500.0)
        assert figures["service.cache.len_calls"] == 2
        assert figures["service.http_ms"] == pytest.approx(500.0)


class TestQuarterShares:
    def test_equal_quarters(self):
        rows = [(8, 8)] * 4 + [(0, 8)] * 4
        assert quarter_shares(rows) == [1.0, 1.0, 0.0, 0.0]

    def test_remainder_goes_to_the_first_quarters(self):
        rows = [(4, 8)] * 5
        assert quarter_shares(rows) == [0.5] * 4

    def test_needs_four_rows(self):
        with pytest.raises(ValueError):
            quarter_shares([(1, 1)] * 3)


class TestInputs:
    @pytest.mark.parametrize("workload", specs.WORKLOADS)
    def test_same_seed_same_sequence(self, workload):
        assert stream_specs(workload, 3) == stream_specs(workload, 3)
        assert stream_specs(workload, 3) != stream_specs(workload, 4)
        assert specs.warmup_specs(workload, 3) == specs.warmup_specs(workload, 3)

    @pytest.mark.parametrize("workload", specs.WORKLOADS)
    def test_two_seeds_share_no_cell_identity(self, workload):
        def cells(seed):
            found = set()
            for spec in stream_specs(workload, seed) + specs.warmup_specs(workload, seed):
                found |= identities(spec)
            return found

        first, second = cells(1), cells(2)
        assert first and second
        assert not first & second

    @pytest.mark.parametrize("workload", specs.WORKLOADS)
    def test_one_shape(self, workload):
        for spec in stream_specs(workload, 5) + specs.warmup_specs(workload, 5):
            assert len(Study(spec).cells()) == 8

    def test_warmups_never_meet_the_window(self):
        for workload in specs.WORKLOADS:
            window = set()
            for spec in stream_specs(workload, 6):
                window |= identities(spec)
            for spec in specs.warmup_specs(workload, 6):
                assert not identities(spec) & window

    def test_lattice_windows_share_half_their_cells(self):
        windows = [identities(spec) for spec in stream_specs("overlap-fast", 7, 6)]
        for previous, current in zip(windows, windows[1:]):
            assert len(previous & current) == 4
        assert len(set().union(*windows)) == 4 * (len(windows) + 1)

    def test_cold_stream_is_all_fresh(self):
        windows = [identities(spec) for spec in stream_specs("cold-process", 8)]
        assert len(set().union(*windows)) == 8 * len(windows)


def test_benchmark_json_matches_the_metric_table():
    with open(BENCHMARK, "r", encoding="utf-8") as handle:
        declared = json.load(handle)
    assert [w["name"] for w in declared["workloads"]] == list(specs.WORKLOADS)
    assert declared["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert declared["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
