"""ContextVar hygiene: no ask() path may leak ambient context.

Every activation in the stack (trace, budget meter, memory spec,
fault tenant) sets a ContextVar on entry
and must reset it on *every* exit path — including queries that fail
inside the pipeline and exceptions that escape ``ask()`` entirely.  A
leaked ContextVar silently attaches one request's trace or budget to
the next request on the same thread.
"""

import pytest

from repro.obs.memory import activate_memory_tracking, current_memory_spec
from repro.obs.spans import current_trace
from repro.resilience.budget import active_meter
from repro.resilience.faults import current_fault_tenant, fault_scope

GETTERS = {
    "trace": current_trace,
    "memory_spec": current_memory_spec,
    "meter": active_meter,
    "fault_tenant": current_fault_tenant,
}


def ambient_context():
    return {name: getter() for name, getter in GETTERS.items()}


def assert_defaults():
    leaked = {k: v for k, v in ambient_context().items() if v is not None}
    assert not leaked, f"leaked ContextVars: {leaked}"


class TestAskResetsContext:
    def test_successful_ask(self, movie_nalix):
        assert_defaults()
        result = movie_nalix.ask("Return the title of every movie.")
        assert result.ok
        assert_defaults()

    def test_rejected_ask(self, movie_nalix):
        result = movie_nalix.ask("Return the isbn of every movie.")
        assert not result.ok
        assert_defaults()

    def test_pipeline_exception_is_contained_and_clean(
        self, movie_nalix, monkeypatch
    ):
        def boom(sentence):
            raise RuntimeError("seeded pipeline failure")

        monkeypatch.setattr(movie_nalix, "parse", boom)
        result = movie_nalix.ask("Return the title of every movie.")
        assert not result.ok
        assert_defaults()

    def test_exception_escaping_ask(self, movie_nalix, monkeypatch):
        """Even an exception that escapes ask() must not leak context."""

        def boom(result):
            raise RuntimeError("seeded audit failure")

        monkeypatch.setattr(movie_nalix, "_record", boom)
        with pytest.raises(RuntimeError, match="seeded audit failure"):
            movie_nalix.ask("Return the title of every movie.")
        assert_defaults()

    def test_failed_ask_with_all_activations(self, movie_nalix, monkeypatch):
        def boom(sentence):
            raise RuntimeError("seeded pipeline failure")

        monkeypatch.setattr(movie_nalix, "parse", boom)
        with activate_memory_tracking(), fault_scope("tenant-a"):
            result = movie_nalix.ask(
                "Return the title of every movie.", memory=True, timeout=5.0
            )
            assert not result.ok
            assert current_memory_spec() is not None
            assert current_fault_tenant() == "tenant-a"
        assert_defaults()


class TestActivationObjects:
    def test_exception_inside_block_still_resets(self):
        with pytest.raises(RuntimeError, match="inner"):
            with activate_memory_tracking():
                assert current_memory_spec() is not None
                raise RuntimeError("inner")
        assert current_memory_spec() is None

    def test_reentrant_activation_object(self):
        """Token stacks make the same activation object nestable."""
        activation = activate_memory_tracking()
        with activation:
            spec = current_memory_spec()
            with activation:
                assert current_memory_spec() is spec
            assert current_memory_spec() is spec
        assert current_memory_spec() is None

    def test_nested_fault_scopes(self):
        with fault_scope("outer"):
            with fault_scope("inner"):
                assert current_fault_tenant() == "inner"
            assert current_fault_tenant() == "outer"
        assert current_fault_tenant() is None
