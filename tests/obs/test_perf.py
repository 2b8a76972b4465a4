"""The timing plane: the bucket ladder, per-path span aggregates, and the
zero-cost-off path."""

from __future__ import annotations

import json
import tracemalloc

import pytest

from repro.core.runner import run
from repro.core.runspec import RunSpec
from repro.obs.metrics import BUCKET_BOUNDS, Histogram
from repro.obs.tracer import (
    NULL_TRACER,
    PERF_SCHEMA,
    NullTracer,
    Tracer,
    get_tracer,
    rollup_phases,
    set_tracer,
    trace_span,
    use_tracer,
)


class TestFixedBucketHistogram:
    def test_bounds_are_a_geometric_ladder(self):
        assert BUCKET_BOUNDS[0] == pytest.approx(1e-6)
        for lo, hi in zip(BUCKET_BOUNDS, BUCKET_BOUNDS[1:]):
            assert hi == pytest.approx(2.0 * lo)

    def test_observe_tracks_exact_extrema_and_total(self):
        h = Histogram()
        for v in (0.001, 0.004, 0.1):
            h.observe(v)
        assert h.count == 3
        assert h.total == pytest.approx(0.105)
        assert h.min == pytest.approx(0.001)
        assert h.max == pytest.approx(0.1)
        assert h.mean == pytest.approx(0.035)

    def test_bucket_assignment_first_bound_geq_value(self):
        h = Histogram()
        h.observe(3e-6)  # between 2µs and 4µs -> bucket bound 4µs
        (bound, count), = h.bucket_pairs()
        assert bound == pytest.approx(4e-6)
        assert count == 1
        h2 = Histogram()
        h2.observe(BUCKET_BOUNDS[3])  # exactly on a bound: that bucket
        assert h2.bucket_pairs() == [(BUCKET_BOUNDS[3], 1)]

    def test_overflow_bucket_reports_inf_bound(self):
        h = Histogram()
        h.observe(1e9)
        (bound, count), = h.bucket_pairs()
        assert bound == float("inf")
        assert count == 1

    def test_quantiles_are_bucket_resolution_clamped_to_max(self):
        h = Histogram()
        for _ in range(99):
            h.observe(1e-5)
        h.observe(0.5)
        assert h.quantile(0.5) <= 1.6e-5
        assert h.quantile(1.0) == pytest.approx(0.5)
        # overflow samples never report an infinite latency
        h2 = Histogram()
        h2.observe(1e9)
        assert h2.quantile(0.99) == pytest.approx(1e9)

    def test_quantile_validates_inputs(self):
        h = Histogram()
        with pytest.raises(ValueError):
            h.quantile(0.5)  # empty
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_as_dict_is_json_serialisable(self):
        h = Histogram()
        h.observe(1e-5)
        h.observe(1e9)  # overflow -> "inf" string bound
        doc = json.loads(json.dumps(h.as_dict()))
        assert doc["count"] == 2
        assert ["inf", 1] in doc["buckets"]
        assert json.loads(json.dumps(Histogram().as_dict())) == {"count": 0}


class TestPhaseHierarchy:
    def test_paths_join_the_open_stack(self):
        t = Tracer()
        with t.span("core.run"):
            with t.span("sched.sync.round"):
                with t.span("geometry.delta_star"):
                    pass
            with t.span("sched.sync.round"):
                pass
        snap = t.snapshot()
        assert set(snap["phases"]) == {
            "core.run",
            "core.run/sched.sync.round",
            "core.run/sched.sync.round/geometry.delta_star",
        }
        round_path = "core.run/sched.sync.round"
        assert snap["phases"][round_path]["count"] == 2
        assert snap["phases"][round_path]["parent"] == "core.run"
        assert snap["phases"]["core.run"]["parent"] is None

    def test_same_name_under_different_parents_is_two_nodes(self):
        t = Tracer()
        with t.span("a.x"):
            with t.span("geometry.tverberg"):
                pass
        with t.span("b.y"):
            with t.span("geometry.tverberg"):
                pass
        assert "a.x/geometry.tverberg" in t.snapshot()["phases"]
        assert "b.y/geometry.tverberg" in t.snapshot()["phases"]

    def test_wall_and_cpu_recorded_per_phase(self):
        t = Tracer()
        with t.span("core.run"):
            x = 0
            for i in range(20_000):
                x += i * i
        entry = t.snapshot()["phases"]["core.run"]
        assert entry["wall_seconds"] > 0
        assert entry["cpu_seconds"] > 0
        assert entry["count"] == 1
        # the span record and the aggregate time the same interval
        (record,) = t.spans
        assert record.duration == entry["wall_seconds"]

    def test_exceptions_still_close_the_phase(self):
        t = Tracer()
        with pytest.raises(RuntimeError):
            with t.span("core.run"):
                raise RuntimeError("boom")
        assert t.snapshot()["phases"]["core.run"]["count"] == 1
        # the stack unwound: the next span is a root again
        with t.span("sched.sync.round"):
            pass
        assert "sched.sync.round" in t.snapshot()["phases"]

    def test_clear_resets_aggregates(self):
        t = Tracer()
        with t.span("core.run"):
            pass
        t.clear()
        assert t.snapshot()["phases"] == {}
        assert t.spans == []

    def test_snapshot_schema_and_json_round_trip(self):
        t = Tracer()
        with t.span("core.run"):
            pass
        doc = json.loads(json.dumps(t.snapshot()))
        assert doc["schema"] == PERF_SCHEMA
        assert doc["phases"]["core.run"]["name"] == "core.run"


class TestRecordsFlag:
    def test_record_free_tracer_keeps_only_aggregates(self):
        t = Tracer(records=False)
        with use_tracer(t):
            with t.span("core.run") as span:
                span.tag(result=1)
                for _ in range(100):
                    with t.span("sched.async.step", step=1):
                        pass
            t.event("run.done")
        assert t.spans == [] and t.events == []
        phases = t.snapshot()["phases"]
        assert phases["core.run/sched.async.step"]["count"] == 100

    def test_recording_tracer_parents_records_and_aggregates(self):
        t = Tracer()
        with t.span("core.run"):
            with t.span("geometry.delta_star", n=4):
                pass
        outer, inner = t.spans
        assert inner.parent_id == outer.span_id
        assert inner.tags == {"n": 4}
        assert set(t.snapshot()["phases"]) == {
            "core.run", "core.run/geometry.delta_star",
        }


class TestRollup:
    def test_rollup_folds_paths_per_name_with_self_time(self):
        t = Tracer()
        with t.span("core.run"):
            with t.span("geometry.delta_star"):
                pass
        with t.span("sched.async.step"):
            with t.span("geometry.delta_star"):
                pass
        rollup = rollup_phases(t.snapshot())
        assert rollup["geometry.delta_star"]["paths"] == 2
        assert rollup["geometry.delta_star"]["count"] == 2
        for row in rollup.values():
            assert 0.0 <= row["self_seconds"] <= row["wall_seconds"] + 1e-12

    def test_rollup_of_empty_snapshot(self):
        assert rollup_phases(NULL_TRACER.snapshot()) == {}


class TestInstallation:
    def test_default_profiler_is_null(self):
        assert get_tracer() is NULL_TRACER
        assert not NULL_TRACER.enabled
        assert NULL_TRACER.snapshot() == {"schema": PERF_SCHEMA, "phases": {}}

    def test_use_profiler_installs_and_restores(self):
        # the profiler is the tracer: use_tracer installs a record-free one
        p = Tracer(records=False)
        with use_tracer(p) as installed:
            assert installed is p
            assert get_tracer() is p
            with trace_span("core.run"):
                pass
        assert get_tracer() is NULL_TRACER
        assert p.snapshot()["phases"]["core.run"]["count"] == 1

    def test_set_profiler_none_restores_null(self):
        prev = set_tracer(Tracer(records=False))
        try:
            assert get_tracer().enabled
            set_tracer(None)
            assert get_tracer() is NULL_TRACER
        finally:
            set_tracer(prev)

    def test_perf_phase_returns_shared_noop_when_off(self):
        a = trace_span("core.run")
        b = trace_span("sched.sync.round")
        assert a is b  # one preallocated null phase, no per-call objects
        assert NULL_TRACER.snapshot()["phases"] == {}

    def test_instrumented_sites_never_call_null_methods(self):
        # mirror of the causal-collector contract: call sites must branch
        # on `.enabled` (or go through trace_span) before any method call
        class Exploding(NullTracer):
            def span(self, name, **tags):
                raise AssertionError("hot loop called a disabled tracer")

            def event(self, name, level="info", **fields):
                raise AssertionError("hot loop called a disabled tracer")

        prev = set_tracer(Exploding())
        try:
            for algorithm in ("algo", "averaging"):
                outcome = run(
                    RunSpec(algorithm=algorithm, n=6, d=2, f=1, seed=11)
                )
                assert outcome.ok
        finally:
            set_tracer(prev)


class TestZeroCostOff:
    def test_null_path_allocates_nothing_in_perf_module(self):
        # with the null tracer installed, the tracer module performs zero
        # allocations during a full sync (algo) and async (averaging) run
        import repro.obs.tracer as tracer_mod

        specs = [RunSpec(algorithm=algorithm, n=6, d=2, f=1, seed=11)
                 for algorithm in ("algo", "averaging")]
        for spec in specs:
            run(spec)  # warm caches outside the measured window
        tracemalloc.start()
        try:
            for spec in specs:
                run(spec)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        allocs = snapshot.filter_traces([
            tracemalloc.Filter(True, tracer_mod.__file__),
        ])
        assert sum(s.size for s in allocs.statistics("filename")) == 0

    def test_enabled_profiler_sees_a_full_run(self):
        t = Tracer(records=False)
        with use_tracer(t):
            outcome = run(RunSpec(algorithm="algo", n=6, d=2, f=1, seed=11))
        assert outcome.ok
        phases = t.snapshot()["phases"]
        assert "core.run" in phases
        assert any("sched.sync.round" in path for path in phases)
        assert any("geometry." in path for path in phases)
