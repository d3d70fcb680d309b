"""Tests for the engine registry."""

import pytest

from repro.core.ascetic import AsceticEngine
from repro.engines import registry
from repro.engines.base import Engine
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

    def test_replace_allows_override(self, fake_engine):
        registry.register("Fake", fake_engine, replace=True)
        assert registry.get("Fake") is fake_engine

    def test_register_validates(self):
        with pytest.raises(ValueError):
            registry.register("", _FakeEngine)
        with pytest.raises(TypeError):
            registry.register("NotCallable", 42)

    def test_unregister(self):
        registry.register("Temp", _FakeEngine)
        registry.unregister("Temp")
        assert not registry.is_registered("Temp")
        with pytest.raises(KeyError):
            registry.unregister("Temp")


class TestEngineInfo:
    def test_every_builtin_has_metadata(self):
        for name in registry.available():
            info = registry.describe(name)
            assert info.description
            assert info.transfer_policy
            assert info.supported_engine_opts is not None

    def test_warm_start_capability_flags(self):
        assert registry.describe("Ascetic").supports_warm_start
        assert registry.describe("Hybrid").supports_warm_start
        for name in ("PT", "UVM", "Subway"):
            assert not registry.describe(name).supports_warm_start

    def test_describe_unknown_matches_get(self):
        with pytest.raises(KeyError, match="registered engines"):
            registry.describe("CUDA")

    def test_all_opts_extends_the_common_set(self):
        info = registry.describe("Hybrid")
        assert set(registry.COMMON_ENGINE_OPTS) <= set(info.all_opts)
        assert "cache_fraction" in info.all_opts

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

    def test_unregister_unknown_matches_get_style(self):
        with pytest.raises(KeyError, match="registered engines"):
            registry.unregister("CUDA")

    def test_infoless_registration_is_unvalidated(self, fake_engine):
        # Back-compat: third-party engines registered without EngineInfo
        # keep working — default metadata, no option validation.
        info = registry.describe("Fake")
        assert not info.supports_warm_start
        assert info.supported_engine_opts is None
        assert info.all_opts is None
        eng = registry.create("Fake", anything_goes=1)
        assert eng.kwargs == {"anything_goes": 1}

    def test_register_with_info_validates(self):
        info = registry.EngineInfo(description="test engine",
                                   supported_engine_opts=("knob",))
        registry.register("Temp", _FakeEngine, info=info)
        try:
            assert registry.describe("Temp") == info
            assert registry.create("Temp", knob=2).kwargs == {"knob": 2}
            with pytest.raises(TypeError, match="knob"):
                registry.create("Temp", dial=3)
        finally:
            registry.unregister("Temp")

    def test_replace_without_info_clears_metadata(self):
        info = registry.EngineInfo(supported_engine_opts=("knob",))
        registry.register("Temp", _FakeEngine, info=info)
        try:
            registry.register("Temp", _FakeEngine, replace=True)
            assert registry.describe("Temp").all_opts is None
        finally:
            registry.unregister("Temp")


class TestEnginesView:
    """``available()`` / ``get()`` are live — what every name list (the
    harness, ``--engine`` choices, the grid's default engines) reads."""

    def test_view_tracks_registry(self, fake_engine):
        assert "Fake" in registry.available()
        assert registry.get("Fake") is fake_engine
        assert registry.is_registered("Fake")

    def test_view_after_unregister(self):
        assert "Fake" not in registry.available()
        assert not registry.is_registered("Fake")

    def test_cli_choices_follow_registry(self, fake_engine):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "--dataset", "FK", "--algo", "BFS", "--engine", "Fake"]
        )
        assert args.engine == "Fake"
