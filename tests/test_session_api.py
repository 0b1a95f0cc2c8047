"""Tests for the session API: ExtractionConfig, the engine registry and
Extractor — plus the back-compat contract of the legacy shims.

Covers the redesign's acceptance criteria:

* shim vs Extractor bit-identity across every engine x schedule cell
  (deterministic cells exact, nondeterministic async cells
  ``verify_extraction``-valid);
* registry capability rejection messages (unknown engine, unsupported
  schedule, collect_trace without the supports_trace capability);
* ``stream()`` laziness — the first result is yielded before the input
  iterator is exhausted;
* options an entry point cannot honour (the retired ``num_workers``,
  tracing on an engine without traces) rejected, never silently ignored.
"""

import inspect

import numpy as np
import pytest

from repro.chordality.verify import verify_extraction
from repro.core.config import DEFAULT_NUM_THREADS, ExtractionConfig
from repro.core.engines import (
    EngineSpec,
    engine_names,
    get_engine,
    register_engine,
    schedule_names,
    unregister_engine,
)
from repro.core.extract import extract_many, extract_maximal_chordal_subgraph
from repro.core.session import Extractor
from repro.errors import ConfigError, ReproError, SessionClosedError
from repro.graph.generators.classic import cycle_graph, path_graph
from repro.graph.generators.rmat import rmat_b, rmat_er
from tests.conftest import live_engine


class TestExtractionConfig:
    def test_defaults_validate(self):
        cfg = ExtractionConfig()
        assert cfg.engine == "superstep"
        assert cfg.schedule is None
        assert cfg.num_threads == DEFAULT_NUM_THREADS == 1

    def test_one_call_api_shares_the_default_thread_count(self):
        """The keyword entry points take their num_threads default from
        the config, not from a copy of it."""
        for fn in (extract_maximal_chordal_subgraph, extract_many):
            default = inspect.signature(fn).parameters["num_threads"].default
            assert default == ExtractionConfig().num_threads, fn.__name__

    def test_resolved_fills_engine_default_schedule(self):
        assert ExtractionConfig().resolved().schedule == "asynchronous"
        assert (
            ExtractionConfig(engine="weighted").resolved().schedule == "synchronous"
        )
        assert (
            ExtractionConfig(engine="reference").resolved().schedule == "asynchronous"
        )

    def test_resolved_keeps_explicit_schedule(self):
        cfg = ExtractionConfig(engine="superstep", schedule="synchronous")
        assert cfg.resolved().schedule == "synchronous"

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ExtractionConfig().engine = "reference"

    def test_replace_revalidates(self):
        cfg = ExtractionConfig()
        assert cfg.replace(engine="reference").engine == "reference"
        with pytest.raises(ConfigError):
            cfg.replace(engine="gpu")

    def test_deterministic_property(self):
        assert ExtractionConfig(engine="superstep").deterministic
        assert ExtractionConfig(engine="reference").deterministic
        assert ExtractionConfig(engine="weighted").deterministic  # sync default
        assert ExtractionConfig(schedule="synchronous").deterministic
        assert ExtractionConfig(schedule="asynchronous").deterministic


class TestConfigErrors:
    """Every bad argument raises ConfigError — one catchable base class
    (ReproError) without breaking ValueError-era callers."""

    def test_configerror_is_reproerror_and_valueerror(self):
        assert issubclass(ConfigError, ReproError)
        assert issubclass(ConfigError, ValueError)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"engine": "gpu"},
            {"variant": "turbo"},
            {"schedule": "warp"},
            {"renumber": "dfs"},
            {"num_threads": 0},
            {"num_threads": 2.5},
            {"max_iterations": 0},
            {"engine": "reference", "collect_trace": True},
            {"num_threads": True},
            {"num_threads": "4"},
            {"max_iterations": 3.0},
            {"max_iterations": False},
        ],
    )
    def test_bad_field_raises_configerror(self, kwargs):
        with pytest.raises(ConfigError):
            ExtractionConfig(**kwargs)

    def test_unknown_engine_message_lists_registry(self):
        with pytest.raises(ConfigError, match="superstep.*reference.*weighted"):
            ExtractionConfig(engine="gpu")

    def test_collect_trace_message_names_capable_engines(self):
        with pytest.raises(ConfigError, match="supports_trace.*superstep"):
            ExtractionConfig(engine="reference", collect_trace=True)

    def test_shims_raise_configerror(self):
        g = cycle_graph(4)
        with pytest.raises(ConfigError):
            extract_maximal_chordal_subgraph(g, engine="gpu")
        with pytest.raises(ConfigError):
            extract_many([g], schedule="warp")

    def test_shims_keep_valueerror_compat(self):
        with pytest.raises(ValueError, match="engine"):
            extract_maximal_chordal_subgraph(cycle_graph(4), engine="gpu")

    def test_shim_schedule_none_resolves_to_engine_default(self):
        """schedule=None through the single-call shim means "the engine's
        registered default" (previously it raised) — same rule as
        extract_many and ExtractionConfig."""
        g = cycle_graph(6)
        r = extract_maximal_chordal_subgraph(g, schedule=None)
        assert r.schedule == "asynchronous"
        r = extract_maximal_chordal_subgraph(g, engine="weighted", schedule=None)
        assert r.schedule == "synchronous"


class TestRegistry:
    def test_builtin_names_and_views(self):
        assert engine_names() == ("superstep", "reference", "weighted")
        assert schedule_names() == ("asynchronous", "synchronous")

    def test_capability_flags(self):
        assert get_engine("superstep").supports_trace
        assert not get_engine("reference").supports_trace
        assert get_engine("superstep").is_deterministic("synchronous")
        assert get_engine("superstep").is_deterministic("asynchronous")
        assert get_engine("reference").is_deterministic("asynchronous")

    def test_weighted_engine_capabilities(self):
        """The quality engine: weight-aware, synchronous-only, a different
        algorithm tag (excluded from Algorithm-1 bit-identity sweeps)."""
        spec = get_engine("weighted")
        assert spec.supports_weights
        assert spec.algorithm == "maxchord"
        assert spec.schedules == ("synchronous",)
        assert spec.is_deterministic("synchronous")
        assert not spec.supports_trace
        # Algorithm-1 engines carry the default tag and no weight support.
        for name in ("superstep", "reference"):
            other = get_engine(name)
            assert other.algorithm == "algorithm1"
            assert not other.supports_weights

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigError, match="already registered"):
            register_engine(get_engine("superstep"))

    def test_get_unknown_engine_message(self):
        with pytest.raises(ConfigError, match="unknown engine 'gpu'"):
            get_engine("gpu")

    def test_third_party_engine_registers_and_runs(self):
        """A registered engine shows up in the registry names, drives the
        session, and its capability limits produce data-driven errors."""

        def run_fixed(graph, config):
            return np.empty((0, 2), dtype=np.int64), [], None

        spec = EngineSpec(
            name="nulleng",
            run_fn=run_fixed,
            description="returns the empty edge set",
            schedules=("synchronous",),
            default_schedule="synchronous",
            deterministic_schedules=("synchronous",),
        )
        register_engine(spec)
        try:
            assert "nulleng" in engine_names()
            # schedule=None resolves to the engine's declared default
            cfg = ExtractionConfig(engine="nulleng").resolved()
            assert cfg.schedule == "synchronous"
            with Extractor(cfg) as ex:
                r = ex.extract(cycle_graph(4))
            assert r.num_chordal_edges == 0
            assert r.engine == "nulleng"
            # capability rejection: the unsupported schedule is named
            # along with the supported set
            with pytest.raises(
                ConfigError,
                match="'nulleng' does not support schedule 'asynchronous'",
            ):
                ExtractionConfig(engine="nulleng", schedule="asynchronous")
            # the one-call function accepts it too (registry-driven dispatch)
            r2 = extract_maximal_chordal_subgraph(
                cycle_graph(4), engine="nulleng", schedule="synchronous"
            )
            assert r2.num_chordal_edges == 0
        finally:
            unregister_engine("nulleng")
        assert "nulleng" not in engine_names()
        with pytest.raises(ConfigError):
            ExtractionConfig(engine="nulleng")

    def test_bad_spec_rejected(self):
        with pytest.raises(ConfigError, match="default_schedule"):
            EngineSpec(name="x", run_fn=lambda *a: None, schedules=("synchronous",))
        with pytest.raises(ConfigError, match="deterministic_schedules"):
            EngineSpec(
                name="x",
                run_fn=lambda *a: None,
                schedules=("synchronous",),
                default_schedule="synchronous",
                deterministic_schedules=("warp",),
            )

    def test_plain_protocol_object_checked_at_registration(self):
        """A non-EngineSpec object conforming to the Engine protocol is
        held to the same capability invariants when registered, so the
        error surfaces at registration, not at extract-time resolution."""

        class Bogus:
            name = "bogus"
            description = ""
            schedules = ("synchronous",)
            default_schedule = "asynchronous"  # not in schedules
            deterministic_schedules = ()
            supports_trace = False

            def run(self, graph, config):
                return np.empty((0, 2), dtype=np.int64), [], None

        with pytest.raises(ConfigError, match="default_schedule"):
            register_engine(Bogus())
        assert "bogus" not in engine_names()

    def test_missing_protocol_attributes_rejected_at_registration(self):
        class Incomplete:
            name = "incomplete"
            schedules = ("synchronous",)
            default_schedule = "synchronous"
            deterministic_schedules = ()
            # no description / supports_trace / run

        with pytest.raises(ConfigError, match="missing required"):
            register_engine(Incomplete())

        class NoRun:
            name = "norun"
            description = ""
            schedules = ("synchronous",)
            default_schedule = "synchronous"
            deterministic_schedules = ()
            supports_trace = False

        with pytest.raises(ConfigError, match="callable run"):
            register_engine(NoRun())
        assert "incomplete" not in engine_names()
        assert "norun" not in engine_names()


class TestShimExtractorIdentity:
    """Acceptance: Extractor(config).extract(g) is bit-identical to the
    legacy function for every engine x schedule x variant cell —
    deterministic cells exact, nondeterministic ones verify-valid."""

    @pytest.fixture(scope="class")
    def graphs(self):
        return [rmat_b(6, seed=3), rmat_er(6, seed=7), cycle_graph(9)]

    @pytest.mark.parametrize("label", ["superstep", "threaded", "process", "reference"])
    @pytest.mark.parametrize("schedule", ["asynchronous", "synchronous"])
    @pytest.mark.parametrize("variant", ["optimized", "unoptimized"])
    def test_cell(self, graphs, label, schedule, variant):
        engine = live_engine(label)
        config = ExtractionConfig(
            engine=engine,
            schedule=schedule,
            variant=variant,
            num_threads=2,
        )
        spec = config.engine_spec
        with Extractor(config) as ex:
            for g in graphs:
                session = ex.extract(g)
                legacy = extract_maximal_chordal_subgraph(
                    g,
                    engine=engine,
                    schedule=schedule,
                    variant=variant,
                    num_threads=2,
                )
                assert session.engine == legacy.engine == engine
                assert session.schedule == legacy.schedule == schedule
                if spec.is_deterministic(schedule):
                    assert np.array_equal(session.edges, legacy.edges), (
                        engine,
                        schedule,
                        variant,
                    )
                else:
                    for r in (session, legacy):
                        report = verify_extraction(g, r, check_maximal=False)
                        assert report.ok, (engine, schedule, variant, report)

    def test_extract_many_matches_session(self, graphs):
        legacy = extract_many(graphs, schedule="synchronous", num_threads=2)
        with Extractor(
            ExtractionConfig(schedule="synchronous", num_threads=2)
        ) as ex:
            session = ex.extract_many(graphs)
        for a, b in zip(legacy, session):
            assert a.schedule == b.schedule == "synchronous"
            assert np.array_equal(a.edges, b.edges)

    def test_pipeline_knobs_through_session(self):
        g = rmat_b(6, seed=4)
        cfg = ExtractionConfig(renumber="bfs", maximalize=True, stitch=True)
        with Extractor(cfg) as ex:
            session = ex.extract(g)
        legacy = extract_maximal_chordal_subgraph(
            g, renumber="bfs", maximalize=True, stitch=True
        )
        assert np.array_equal(session.edges, legacy.edges)
        assert session.renumbered and legacy.renumbered
        assert session.maximality_gap == legacy.maximality_gap
        assert session.stitched_bridges == legacy.stitched_bridges

    def test_collect_trace_through_session(self):
        g = cycle_graph(6)
        with Extractor(ExtractionConfig(collect_trace=True)) as ex:
            r = ex.extract(g)
        assert r.trace is not None


class TestExtractorLifecycle:
    def test_context_manager_closes(self):
        ex = Extractor(ExtractionConfig())
        with ex:
            ex.extract(cycle_graph(4))
        with pytest.raises(RuntimeError, match="closed"):
            ex.extract(cycle_graph(4))

    def test_close_idempotent(self):
        ex = Extractor(ExtractionConfig())
        ex.close()
        ex.close()

    def test_kwargs_shorthand(self):
        with Extractor(engine="reference") as ex:
            assert ex.config.engine == "reference"
            assert ex.config.schedule == "asynchronous"  # resolved

    def test_kwargs_override_config(self):
        base = ExtractionConfig(engine="superstep")
        with Extractor(base, engine="reference") as ex:
            assert ex.config.engine == "reference"

    def test_stream_is_lazy(self):
        """The first result arrives before the input iterator advances
        past the first graph — million-graph inputs never materialise."""
        consumed = []

        def generate():
            for i in range(100):
                consumed.append(i)
                yield cycle_graph(5)

        with Extractor(ExtractionConfig()) as ex:
            stream = ex.stream(generate())
            assert consumed == []  # generator: nothing pulled yet
            first = next(stream)
            assert first.num_chordal_edges == 4
            assert consumed == [0]
            next(stream)
            assert consumed == [0, 1]

    def test_stream_matches_extract_many(self):
        graphs = [cycle_graph(5), path_graph(6), rmat_b(5, seed=1)]
        with Extractor(ExtractionConfig()) as ex:
            streamed = list(ex.stream(graphs))
            listed = ex.extract_many(graphs)
        for a, b in zip(streamed, listed):
            assert np.array_equal(a.edges, b.edges)

    def test_close_mid_stream_raises_clean_repro_error(self):
        """Regression: closing the session while a stream() generator is
        mid-iteration must surface as SessionClosedError (a ReproError)
        on the next next(), never a half-torn-down AttributeError from
        inside the thread team."""
        ex = Extractor(ExtractionConfig(schedule="synchronous", num_threads=2))
        stream = ex.stream(rmat_b(5, seed=s) for s in range(10))
        first = next(stream)
        assert first.num_chordal_edges > 0
        ex.close()
        with pytest.raises(SessionClosedError, match="mid-iteration"):
            next(stream)
        # the session error is both a ReproError (library base class) and
        # a RuntimeError (what these paths historically raised)
        assert issubclass(SessionClosedError, ReproError)
        assert issubclass(SessionClosedError, RuntimeError)

    def test_external_pool_closed_mid_stream_raises_clean_repro_error(self):
        """Same teardown gap via the context manager: a stream that
        outlives its ``with`` block is a SessionClosedError, not an
        AttributeError."""
        with Extractor(ExtractionConfig(schedule="synchronous", num_threads=2)) as ex:
            stream = ex.stream(rmat_b(5, seed=s) for s in range(10))
            next(stream)
        with pytest.raises(SessionClosedError, match="closed"):
            next(stream)

    def test_non_pool_engine_never_spawns(self):
        """The serial engine runs in the calling thread: no thread and no
        process outlives (or is started by) an extraction."""
        import multiprocessing
        import threading

        before = set(threading.enumerate())
        with Extractor(ExtractionConfig(engine="superstep", num_threads=4)) as ex:
            ex.extract(rmat_b(6, seed=1))
            assert not set(threading.enumerate()) - before
        assert multiprocessing.active_children() == []

    def test_external_pool_left_open(self):
        """Closing one session leaves another session open."""
        g = rmat_er(5, seed=1)
        with Extractor(ExtractionConfig(schedule="synchronous", num_threads=2)) as keep:
            with Extractor(ExtractionConfig(schedule="synchronous", num_threads=2)) as ex:
                first = ex.extract(g)
            again = keep.extract(g)
            assert again.edges.shape[1] == 2
            assert again.num_chordal_edges == first.num_chordal_edges > 0


class TestPoolConflicts:
    """Options that an entry point cannot honour are rejected, never
    silently ignored."""

    def test_conflicting_num_workers_rejected(self):
        """``num_workers`` was retired for ``num_threads``; every entry
        point rejects it as an unknown option."""
        g = rmat_er(5, seed=1)
        with pytest.raises(TypeError, match="num_workers"):
            ExtractionConfig(num_workers=4)
        with pytest.raises(TypeError, match="num_workers"):
            extract_maximal_chordal_subgraph(g, num_workers=4)
        with pytest.raises(TypeError, match="num_workers"):
            Extractor(num_workers=3)
        with pytest.raises(TypeError, match="num_workers"):
            extract_many([g], num_workers=1)

    def test_pool_with_incapable_engine_rejected(self):
        """A capability the engine lacks (tracing, on the reference engine)
        is rejected when the session is configured, by every entry point."""
        g = rmat_er(5, seed=1)
        with pytest.raises(ConfigError, match="supports_trace"):
            Extractor(ExtractionConfig(engine="reference"), collect_trace=True)
        with pytest.raises(ConfigError, match="supports_trace"):
            extract_maximal_chordal_subgraph(g, engine="reference", collect_trace=True)
