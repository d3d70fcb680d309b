"""Tests for the engine registry."""

import inspect

import pytest

from repro.core.ascetic import AsceticEngine
from repro.core.manager import RegionEngine
from repro.engines import registry
from repro.engines.base import Engine
from repro.engines.hybrid import HybridEngine
from repro.gpusim.device import GPUSpec


class _FakeEngine:
    """Minimal engine-shaped object for registration tests."""

    name = "Fake"

    def __init__(self, spec=None, data_scale=1.0, **kwargs):
        self.spec = spec
        self.kwargs = kwargs

    def run(self, graph, program, resume_from=None):  # pragma: no cover
        raise NotImplementedError


@pytest.fixture
def fake_engine():
    registry.register("Fake", _FakeEngine)
    yield _FakeEngine
    registry.unregister("Fake")


class TestRegistry:
    def test_builtins_present_in_paper_order(self):
        names = registry.available()
        assert names[:4] == ("PT", "UVM", "Subway", "Ascetic")

    def test_get_and_create(self):
        assert registry.get("Ascetic") is AsceticEngine
        engine = registry.create("Subway", spec=GPUSpec(memory_bytes=1 << 20))
        assert isinstance(engine, Engine)
        assert engine.name == "Subway"

    def test_unknown_engine_raises_with_candidates(self):
        with pytest.raises(KeyError, match="Ascetic"):
            registry.get("CUDA")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            registry.register("Ascetic", AsceticEngine)

    def test_register_validates(self):
        with pytest.raises(ValueError):
            registry.register("", _FakeEngine)
        with pytest.raises(TypeError):
            registry.register("NotCallable", 42)

    def test_unregister(self):
        registry.register("Temp", _FakeEngine)
        registry.unregister("Temp")
        assert "Temp" not in registry.available()
        with pytest.raises(KeyError):
            registry.unregister("Temp")


class TestEngineInfo:
    """What an engine accepts and can do is read from its class."""

    def test_every_builtin_has_metadata(self):
        for name in registry.available():
            cls = registry.get(name)
            assert issubclass(cls, Engine) and cls.name == name
            assert cls.__doc__.strip().splitlines()[0]  # `repro engines` summary
            assert registry.options(name) is not None

    def test_warm_start_capability_flags(self):
        warm = {name for name in registry.available()
                if issubclass(registry.get(name), RegionEngine)}
        assert warm == {"Ascetic", "Hybrid"}

    def test_all_opts_extends_the_common_set(self):
        accepted = set(inspect.signature(HybridEngine).parameters)
        assert set(inspect.signature(Engine).parameters) <= accepted
        assert registry.options("Hybrid") == ("chunk_bytes", "cache_fraction",
                                              "reuse_horizon")

    def test_ascetic_switches_are_keywords(self):
        assert registry.options("Ascetic") == (
            "k", "fill", "overlap", "replacement", "adaptive", "forced_ratio")

    def test_create_rejects_unknown_option(self):
        with pytest.raises(TypeError, match=r"'Ascetic'.*'bogus'"):
            registry.create("Ascetic", bogus=1)

    def test_create_error_lists_accepted_options(self):
        # A typo'd option fails fast and tells you what would have worked.
        with pytest.raises(TypeError, match="cache_fraction"):
            registry.create("Hybrid", cache_fractoin=0.5)

    def test_create_accepts_declared_options(self):
        eng = registry.create("Hybrid", spec=GPUSpec(memory_bytes=1 << 20),
                              cache_fraction=0.5)
        assert eng.cache_fraction == 0.5

    @pytest.mark.parametrize("name", registry.available())
    def test_create_accepts_exactly_the_constructor_keywords(self, name):
        cls = registry.get(name)
        params = inspect.signature(cls).parameters
        registry.create(name, **{k: p.default for k, p in params.items()})
        with pytest.raises(TypeError, match=f"{name!r}.*'not_an_option'"):
            registry.create(name, not_an_option=None)

    def test_options_unknown_matches_get(self):
        with pytest.raises(KeyError, match="registered engines"):
            registry.options("CUDA")

    def test_unregister_unknown_matches_get_style(self):
        with pytest.raises(KeyError, match="registered engines"):
            registry.unregister("CUDA")

    def test_kwargs_constructor_is_unvalidated(self, fake_engine):
        # A constructor taking **kwargs accepts anything (the grid tests'
        # fakes rely on it).
        assert registry.options("Fake") is None
        eng = registry.create("Fake", anything_goes=1)
        assert eng.kwargs == {"anything_goes": 1}

    def test_register_validates_against_the_constructor(self):
        class Knobbed(Engine):
            def __init__(self, spec=None, knob=0):
                super().__init__(spec)
                self.knob = knob

            _prepare = _iteration = None

        registry.register("Temp", Knobbed)
        try:
            assert registry.options("Temp") == ("knob",)
            assert registry.create("Temp", knob=2).knob == 2
            with pytest.raises(TypeError, match="knob"):
                registry.create("Temp", dial=3)
        finally:
            registry.unregister("Temp")


class TestEnginesView:
    """``available()`` / ``get()`` are live — what every name list (the
    harness, ``--engine`` choices, the grid's default engines) reads."""

    def test_view_tracks_registry(self, fake_engine):
        assert "Fake" in registry.available()
        assert registry.get("Fake") is fake_engine

    def test_view_after_unregister(self):
        assert "Fake" not in registry.available()
        with pytest.raises(KeyError):
            registry.get("Fake")

    def test_cli_choices_follow_registry(self, fake_engine):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "--dataset", "FK", "--algo", "BFS", "--engine", "Fake"]
        )
        assert args.engine == "Fake"
