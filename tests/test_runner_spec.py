"""Tests for RunSpec: normalization, serialization, cache keys."""

import pytest

from repro.gpusim.faults import FaultPlan
from repro.harness.experiments import BENCH_SCALE
from repro.runner import RunSpec


class TestNormalization:
    def test_algorithm_uppercased(self):
        assert RunSpec("FK", "bfs", "Ascetic").algorithm == "BFS"

    def test_default_scale_is_bench_scale(self):
        assert RunSpec("FK", "BFS", "Ascetic").scale == BENCH_SCALE

    def test_explicit_scale_matches_default(self):
        # None and the explicit benchmark value must hash identically.
        a = RunSpec("FK", "BFS", "Ascetic")
        b = RunSpec("FK", "BFS", "Ascetic", scale=BENCH_SCALE)
        assert a == b
        assert a.cache_key() == b.cache_key()

    def test_engine_opts_accepts_mapping(self):
        s = RunSpec("FK", "BFS", "Ascetic", engine_opts={"b": 1, "a": 2})
        assert s.engine_opts == (("a", 2), ("b", 1))
        assert s.engine_kwargs() == {"a": 2, "b": 1}
        assert s.engine_kwargs() == {"a": 2, "b": 1}

    def test_hashable(self):
        s = RunSpec("FK", "BFS", "Ascetic", engine_opts={"overlap": False})
        assert len({s, RunSpec("FK", "BFS", "Ascetic",
                               engine_opts={"overlap": False})}) == 1

    def test_unserializable_opt_rejected(self):
        with pytest.raises(TypeError):
            RunSpec("FK", "BFS", "Ascetic", engine_opts={"cb": lambda: None})

    def test_label(self):
        assert RunSpec("FK", "bfs", "Subway").label() == "FK/BFS/Subway"


class TestSerialization:
    def test_round_trip_plain(self):
        s = RunSpec("GS", "PR", "UVM", scale=1e-4, memory_bytes=1 << 20)
        assert RunSpec.from_dict(s.to_dict()) == s

    def test_round_trip_with_config(self):
        opts = {"fill": "lazy", "forced_ratio": 0.5, "adaptive": False}
        s = RunSpec("FK", "CC", "Ascetic", engine_opts=opts)
        back = RunSpec.from_dict(s.to_dict())
        assert back == s
        assert back.engine_kwargs() == opts

    def test_unknown_tagged_opt_rejected(self):
        # Engine options are JSON scalars; a fault plan has its own field.
        d = RunSpec("FK", "BFS", "Ascetic").to_dict()
        for value in ({"__kind__": "Mystery"},
                      {"__kind__": "FaultPlan", "fields": {}}, [1, 2]):
            d["engine_opts"] = {"config": value}
            with pytest.raises(ValueError, match="config"):
                RunSpec.from_dict(d)


GOOD = RunSpec("FK", "BFS", "Ascetic").to_dict()


class TestMalformedInput:
    """A bad cache file or CLI JSON raises ``ValueError`` naming the key —
    never a ``KeyError`` / ``AttributeError``, never a silent drop."""

    @pytest.mark.parametrize("data,key", [
        ({}, "dataset"),
        ({k: v for k, v in GOOD.items() if k != "engine"}, "engine"),
        ({**GOOD, "algorithm": 3}, "algorithm"),
        ({**GOOD, "dataset": None}, "dataset"),
        ({**GOOD, "colour": "blue"}, "colour"),
        ({**GOOD, "seed": True}, "seed"),
        ({**GOOD, "seed": 1.5}, "seed"),
        ({**GOOD, "scale": -1}, "scale"),
        ({**GOOD, "scale": 0}, "scale"),
        ({**GOOD, "scale": 1.5}, "scale"),
        ({**GOOD, "scale": True}, "scale"),
        ({**GOOD, "memory_bytes": -5}, "memory_bytes"),
        ({**GOOD, "memory_bytes": 0}, "memory_bytes"),
        ({**GOOD, "memory_bytes": 2.5}, "memory_bytes"),
        ({**GOOD, "fault_plan": {"alloc_failures": "abc"}}, "alloc_failures"),
        ({**GOOD, "fault_plan": {"max_retries": 1.5}}, "max_retries"),
        ({**GOOD, "fault_plan": {"max_retries": True}}, "max_retries"),
    ])
    def test_rejected_naming_the_key(self, data, key):
        with pytest.raises(ValueError, match=key):
            RunSpec.from_dict(data)

    def test_constructors_are_checked_too(self):
        with pytest.raises(ValueError, match="scale"):
            RunSpec("FK", "BFS", "Ascetic", scale=-1)
        with pytest.raises(ValueError, match="alloc_failures"):
            FaultPlan(alloc_failures="abc")


class TestCacheKey:
    def test_stable(self):
        s = RunSpec("FK", "BFS", "Ascetic")
        assert s.cache_key() == RunSpec("FK", "BFS", "Ascetic").cache_key()

    @pytest.mark.parametrize(
        "other",
        [
            RunSpec("GS", "BFS", "Ascetic"),
            RunSpec("FK", "CC", "Ascetic"),
            RunSpec("FK", "BFS", "Subway"),
            RunSpec("FK", "BFS", "Ascetic", scale=1e-4),
            RunSpec("FK", "BFS", "Ascetic", memory_bytes=1 << 20),
            RunSpec("FK", "BFS", "Ascetic", engine_opts={"k": 0.2}),
        ],
    )
    def test_differs_when_any_field_differs(self, other):
        assert RunSpec("FK", "BFS", "Ascetic").cache_key() != other.cache_key()
