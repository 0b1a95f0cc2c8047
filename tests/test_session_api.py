"""Tests for the session API: ExtractionConfig, the engine registry and
Extractor — plus the back-compat contract of the legacy shims.

Covers the redesign's acceptance criteria:

* shim vs Extractor bit-identity across every engine x schedule cell
  (deterministic cells exact, nondeterministic async cells
  ``verify_extraction``-valid);
* registry capability rejection messages (unknown engine, unsupported
  schedule, collect_trace without the supports_trace capability, pool
  with a pool-incapable engine);
* ``stream()`` laziness — the first result is yielded before the input
  iterator is exhausted;
* the deprecated pool handle and the pool/num_workers conflict check
  (previously silently ignored).
"""

import numpy as np
import pytest

from repro.chordality.verify import verify_extraction
from repro.core.config import ExtractionConfig
from repro.core.engines import (
    EngineSpec,
    engine_names,
    get_engine,
    register_engine,
    schedule_names,
    unregister_engine,
)
from repro.core.extract import (
    ENGINES,
    SCHEDULES,
    extract_many,
    extract_maximal_chordal_subgraph,
)
from repro.core.procpool import ProcessPool
from repro.core.session import Extractor
from repro.errors import ConfigError, ReproError, SessionClosedError
from repro.graph.generators.classic import cycle_graph, path_graph
from repro.graph.generators.rmat import rmat_b, rmat_er


class TestExtractionConfig:
    def test_defaults_validate(self):
        cfg = ExtractionConfig()
        assert cfg.engine == "superstep"
        assert cfg.schedule is None
        assert cfg.num_workers is None

    def test_resolved_fills_engine_default_schedule(self):
        assert ExtractionConfig().resolved().schedule == "asynchronous"
        assert (
            ExtractionConfig(engine="process").resolved().schedule == "synchronous"
        )
        assert (
            ExtractionConfig(engine="threaded").resolved().schedule == "asynchronous"
        )

    def test_resolved_keeps_explicit_schedule(self):
        cfg = ExtractionConfig(engine="process", schedule="asynchronous")
        assert cfg.resolved().schedule == "asynchronous"

    def test_resolved_fills_num_workers(self):
        assert ExtractionConfig().resolved().num_workers == 4
        assert ExtractionConfig(num_workers=2).resolved().num_workers == 2

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ExtractionConfig().engine = "threaded"

    def test_replace_revalidates(self):
        cfg = ExtractionConfig()
        assert cfg.replace(engine="process").engine == "process"
        with pytest.raises(ConfigError):
            cfg.replace(engine="gpu")

    def test_deterministic_property(self):
        assert ExtractionConfig(engine="superstep").deterministic
        assert ExtractionConfig(engine="reference").deterministic
        assert ExtractionConfig(engine="process").deterministic  # sync default
        assert not ExtractionConfig(
            engine="process", schedule="asynchronous"
        ).deterministic
        # threaded is an alias of the serial engine: deterministic too
        assert ExtractionConfig(engine="threaded").deterministic
        assert not ExtractionConfig(engine="native").deterministic


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
            {"num_workers": 0},
            {"max_iterations": 0},
            {"engine": "process", "collect_trace": True},
        ],
    )
    def test_bad_field_raises_configerror(self, kwargs):
        with pytest.raises(ConfigError):
            ExtractionConfig(**kwargs)

    def test_unknown_engine_message_lists_registry(self):
        with pytest.raises(ConfigError, match="superstep.*threaded.*process"):
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
        r = extract_maximal_chordal_subgraph(g, engine="process", schedule=None)
        assert r.schedule == "synchronous"


class TestRegistry:
    def test_builtin_names_and_views(self):
        assert engine_names() == (
            "superstep",
            "threaded",
            "native",
            "process",
            "reference",
            "weighted",
        )
        assert tuple(ENGINES) == engine_names()
        assert tuple(SCHEDULES) == schedule_names() == (
            "asynchronous",
            "synchronous",
        )

    def test_capability_flags(self):
        assert get_engine("superstep").supports_trace
        assert get_engine("threaded").supports_trace
        assert get_engine("process").supports_pool
        assert not get_engine("process").supports_trace
        assert not get_engine("reference").supports_trace
        assert get_engine("process").is_deterministic("synchronous")
        assert not get_engine("process").is_deterministic("asynchronous")
        assert get_engine("reference").is_deterministic("asynchronous")

    def test_weighted_engine_capabilities(self):
        """The quality engine: weight-aware, synchronous-only, a different
        algorithm tag (excluded from Algorithm-1 bit-identity sweeps)."""
        spec = get_engine("weighted")
        assert spec.supports_weights
        assert spec.algorithm == "maxchord"
        assert spec.schedules == ("synchronous",)
        assert spec.is_deterministic("synchronous")
        assert not spec.supports_pool and not spec.supports_trace
        # Algorithm-1 engines carry the default tag and no weight support.
        for name in ("superstep", "threaded", "process", "reference"):
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
        """A registered engine shows up in the derived views, drives the
        session, and its capability limits produce data-driven errors."""

        def run_fixed(graph, config, pool):
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
            assert "nulleng" in ENGINES
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
            # the legacy shim accepts it too (registry-driven dispatch)
            r2 = extract_maximal_chordal_subgraph(
                cycle_graph(4), engine="nulleng", schedule="synchronous"
            )
            assert r2.num_chordal_edges == 0
        finally:
            unregister_engine("nulleng")
        assert "nulleng" not in ENGINES
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
            supports_pool = False

            def run(self, graph, config, pool=None):
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
            # no description / supports_trace / supports_pool / run

        with pytest.raises(ConfigError, match="missing required"):
            register_engine(Incomplete())

        class NoRun:
            name = "norun"
            description = ""
            schedules = ("synchronous",)
            default_schedule = "synchronous"
            deterministic_schedules = ()
            supports_trace = False
            supports_pool = False

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

    @pytest.mark.parametrize("engine", ["superstep", "threaded", "process", "reference"])
    @pytest.mark.parametrize("schedule", ["asynchronous", "synchronous"])
    @pytest.mark.parametrize("variant", ["optimized", "unoptimized"])
    def test_cell(self, graphs, engine, schedule, variant):
        config = ExtractionConfig(
            engine=engine,
            schedule=schedule,
            variant=variant,
            num_threads=2,
            num_workers=2,
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
                    num_workers=2,
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
        legacy = extract_many(graphs, engine="process", num_workers=2)
        with Extractor(
            ExtractionConfig(engine="process", num_workers=2)
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
        inside the pool machinery."""
        ex = Extractor(ExtractionConfig(engine="process", num_workers=2))
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
        """Same teardown gap via the caller-owned pool: the pool dying
        under a streaming session is a SessionClosedError, not an
        AttributeError."""
        pool = ProcessPool(num_workers=2)
        ex = Extractor(ExtractionConfig(engine="process"), pool=pool)
        stream = ex.stream(rmat_b(5, seed=s) for s in range(10))
        next(stream)
        pool.close()
        with pytest.raises(SessionClosedError, match="closed"):
            next(stream)
        ex.close()

    def test_non_pool_engine_never_spawns(self):
        with Extractor(ExtractionConfig(engine="superstep")) as ex:
            ex.extract(cycle_graph(5))
            assert ex.pool is None

    def test_external_pool_left_open(self):
        g = rmat_er(5, seed=1)
        with ProcessPool(num_workers=2) as pool:
            with Extractor(ExtractionConfig(engine="process"), pool=pool) as ex:
                ex.extract(g)
                assert ex.pool is pool
            # session close must not close the caller's pool
            edges, _ = pool.extract(g)
            assert edges.shape[1] == 2


class TestPoolConflicts:
    """The pool= / num_workers mismatch used to be silently ignored."""

    def test_conflicting_num_workers_rejected(self):
        with ProcessPool(num_workers=2) as pool:
            with pytest.raises(ConfigError, match="num_workers=4 conflicts"):
                extract_maximal_chordal_subgraph(
                    rmat_er(5, seed=1), engine="process", num_workers=4, pool=pool
                )
            with pytest.raises(ConfigError, match="conflicts"):
                Extractor(
                    ExtractionConfig(engine="process", num_workers=3), pool=pool
                )
            with pytest.raises(ConfigError, match="conflicts"):
                extract_many(
                    [rmat_er(5, seed=1)], engine="process", num_workers=1, pool=pool
                )

    def test_matching_num_workers_accepted(self):
        g = rmat_er(5, seed=1)
        with ProcessPool(num_workers=2) as pool:
            r = extract_maximal_chordal_subgraph(
                g, engine="process", num_workers=2, pool=pool
            )
            assert r.num_chordal_edges > 0

    def test_unspecified_num_workers_adopts_pool_size(self):
        with ProcessPool(num_workers=2) as pool:
            ex = Extractor(ExtractionConfig(engine="process"), pool=pool)
            assert ex.config.num_workers == 2
            ex.close()

    def test_pool_with_incapable_engine_rejected(self):
        with ProcessPool(num_workers=1) as pool:
            with pytest.raises(ConfigError, match="pool.*process"):
                Extractor(ExtractionConfig(engine="superstep"), pool=pool)
