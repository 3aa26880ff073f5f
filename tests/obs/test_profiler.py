"""Tests for the sampling profiler and its output formats."""

import sys
import time

import pytest

from repro.obs.profiler import (
    DEFAULT_HZ,
    NO_SPAN,
    ProfileSpec,
    SamplingProfiler,
    collapse_samples,
    collapsed_text,
    merge_profiles,
    speedscope_document,
    stage_of,
)
from repro.obs.spans import Trace


def _busy(seconds):
    """Spin the CPU (holding the GIL between bytecodes) for ``seconds``."""
    deadline = time.perf_counter() + seconds
    total = 0
    while time.perf_counter() < deadline:
        total += sum(range(50))
    return total


class TestProfileSpec:
    def test_coerce_none_and_false(self):
        assert ProfileSpec.coerce(None) is None
        assert ProfileSpec.coerce(False) is None

    def test_coerce_true_uses_default_rate(self):
        spec = ProfileSpec.coerce(True)
        assert spec.hz == DEFAULT_HZ

    def test_coerce_number_is_a_rate(self):
        assert ProfileSpec.coerce(250).hz == 250

    def test_coerce_spec_passthrough(self):
        spec = ProfileSpec(hz=123)
        assert ProfileSpec.coerce(spec) is spec

    def test_coerce_rejects_garbage(self):
        with pytest.raises(TypeError):
            ProfileSpec.coerce("fast")

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            ProfileSpec(hz=0)


class TestSamplingLifecycle:
    def test_collects_samples_from_busy_loop(self):
        profiler = SamplingProfiler(hz=500)
        with profiler:
            _busy(0.15)
        assert not profiler.running
        assert len(profiler.samples) >= 5
        # Our own busy loop must appear in the sampled frames.
        functions = {
            function
            for _, frames in profiler.samples
            for _, function, _ in frames
        }
        assert "_busy" in functions

    def test_stop_is_idempotent(self):
        profiler = SamplingProfiler(hz=200)
        profiler.start()
        _busy(0.02)
        profiler.stop()
        count = len(profiler.samples)
        profiler.stop()
        assert len(profiler.samples) == count
        assert not profiler.running

    def test_double_start_raises(self):
        profiler = SamplingProfiler(hz=200)
        with profiler:
            with pytest.raises(RuntimeError):
                profiler.start()

    def test_stops_on_exception_path(self):
        profiler = SamplingProfiler(hz=200)
        before = sys.getswitchinterval()
        with pytest.raises(RuntimeError):
            with profiler:
                _busy(0.01)
                raise RuntimeError("boom")
        assert not profiler.running
        assert sys.getswitchinterval() == before

    def test_switch_interval_lowered_while_running_and_restored(self):
        before = sys.getswitchinterval()
        profiler = SamplingProfiler(hz=500)
        with profiler:
            assert sys.getswitchinterval() <= 1.0 / 500
        assert sys.getswitchinterval() == before

    def test_max_samples_drops_instead_of_growing(self):
        profiler = SamplingProfiler(hz=500, max_samples=3)
        with profiler:
            _busy(0.1)
        assert len(profiler.samples) <= 3
        assert profiler.dropped > 0

    def test_overhead_is_bounded(self):
        # The sampler must not grossly slow the profiled thread.  The
        # bound is deliberately loose (CI machines are noisy); it exists
        # to catch pathological regressions like sampling without the
        # wait() sleep.
        start = time.perf_counter()
        _busy(0.1)
        bare = time.perf_counter() - start
        profiler = SamplingProfiler(hz=500)
        start = time.perf_counter()
        with profiler:
            _busy(0.1)
        profiled = time.perf_counter() - start
        assert profiled < bare * 5 + 0.5


class TestSpanAttribution:
    def test_samples_attribute_to_open_stage_span(self):
        trace = Trace()
        profiler = SamplingProfiler(hz=500, trace=trace)
        with profiler:
            with trace.span("ask"):
                with trace.span("evaluate"):
                    _busy(0.12)
        counts = profiler.span_sample_counts()
        assert counts, "no samples collected"
        assert max(counts, key=counts.get) == "evaluate"
        assert sum(counts.values()) == len(profiler.samples)

    def test_stage_is_span_under_root_not_innermost(self):
        trace = Trace()
        profiler = SamplingProfiler(hz=500, trace=trace)
        with profiler:
            with trace.span("ask"), trace.span("evaluate"), \
                    trace.span("evaluator.run"):
                _busy(0.12)
        counts = profiler.span_sample_counts()
        assert counts.get("evaluate", 0) > 0
        assert "evaluator.run" not in counts

    def test_unattributed_samples_fall_to_no_span(self):
        trace = Trace()
        profiler = SamplingProfiler(hz=500, trace=trace)
        with profiler:
            _busy(0.1)  # no span open at all
        counts = profiler.span_sample_counts()
        assert set(counts) == {NO_SPAN}

    def test_stage_of(self):
        assert stage_of(()) == NO_SPAN
        assert stage_of(("ask",)) == "ask"
        assert stage_of(("ask", "parse")) == "parse"
        assert stage_of(("ask", "evaluate", "evaluator.run")) == "evaluate"


SYNTHETIC_SAMPLES = [
    (("ask", "evaluate"), (("/x/a.py", "f", 1), ("/x/b.py", "g", 2))),
    (("ask", "evaluate"), (("/x/a.py", "f", 1), ("/x/b.py", "g", 9))),
    (("ask", "parse"), (("/x/a.py", "f", 1),)),
    ((), (("/x/c.py", "h", 3),)),
]


class TestCollapsedOutput:
    def test_collapse_merges_identical_stacks(self):
        counts = collapse_samples(SYNTHETIC_SAMPLES)
        # The two evaluate samples differ only by line number, which the
        # collapsed format ignores — they merge into one stack.
        assert counts["span:ask;span:evaluate;a.py:f;b.py:g"] == 2
        assert counts["span:ask;span:parse;a.py:f"] == 1
        assert counts[f"span:{NO_SPAN};c.py:h"] == 1

    def test_collapsed_text_format(self):
        text = collapsed_text(SYNTHETIC_SAMPLES)
        lines = text.strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            stack, _, count = line.rpartition(" ")
            assert stack
            assert count.isdigit()
            assert line.startswith("span:")

    def test_merge_profiles_skips_none(self):
        profiler = SamplingProfiler(hz=100)
        profiler.samples.extend(SYNTHETIC_SAMPLES)
        merged = merge_profiles([None, profiler, None])
        assert merged == SYNTHETIC_SAMPLES


class TestSpeedscope:
    def test_document_shape(self):
        document = speedscope_document(
            SYNTHETIC_SAMPLES, 0.002, name="test-profile"
        )
        assert document["$schema"].startswith("https://www.speedscope.app")
        (profile,) = document["profiles"]
        assert profile["type"] == "sampled"
        assert profile["name"] == "test-profile"
        assert len(profile["samples"]) == len(SYNTHETIC_SAMPLES)
        assert profile["weights"] == [0.002] * len(SYNTHETIC_SAMPLES)
        frames = document["shared"]["frames"]
        # Frames are interned: every index in every sample is in range.
        for sample in profile["samples"]:
            for index in sample:
                assert 0 <= index < len(frames)
        names = {frame["name"] for frame in frames}
        assert "span:evaluate" in names

    def test_empty_samples(self):
        document = speedscope_document([], 0.001)
        (profile,) = document["profiles"]
        assert profile["samples"] == []
        assert profile["weights"] == []


class TestActivation:
    def test_ask_without_activation_has_no_profile(self, movie_nalix):
        result = movie_nalix.ask("Return the title of every movie.")
        assert result.profile is None


class TestAskIntegration:
    def test_explicit_rate_reaches_a_stopped_profiler(self, movie_nalix):
        result = movie_nalix.ask(
            "Return the title of every movie.", profile=500
        )
        assert result.profile is not None
        assert not result.profile.running
        assert result.profile.hz == 500

    def test_explicit_profile_collects_and_stops(self, movie_nalix):
        result = movie_nalix.ask(
            "Return every director, where the number of movies directed "
            "by the director is the same as the number of movies directed "
            "by Ron Howard.",
            profile=True,
        )
        assert result.ok
        profiler = result.profile
        assert profiler is not None
        assert not profiler.running
        counts = profiler.span_sample_counts()
        # Every attributed stage must be a real pipeline stage (or the
        # root/no-span buckets for ticks outside the stage spans).
        allowed = {
            "parse", "classify", "validate", "translate", "xquery-parse",
            "evaluate", "evaluate-naive", "evaluate-keyword", "ask", NO_SPAN,
        }
        assert set(counts) <= allowed

    def test_profile_summary_in_to_dict(self, movie_nalix):
        result = movie_nalix.ask(
            "Return the title of every movie.", profile=True
        )
        summary = result.profile.to_dict()
        assert summary["hz"] == DEFAULT_HZ
        assert summary["samples"] == len(result.profile.samples)
        assert "span_samples" in summary
