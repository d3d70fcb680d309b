"""Tests for the Static Region chunk table."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.static_region import StaticRegion
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_graph


@pytest.fixture()
def graph():
    return rmat_graph(8, 2000, seed=21, directed=True)


def brute_vertex_bitmap(region):
    """Oracle: vertex static iff every byte of its edge range is resident."""
    g = region.graph
    bpe = g.bytes_per_edge
    out = np.zeros(g.n_vertices, dtype=bool)
    for v in range(g.n_vertices):
        lo, hi = g.indptr[v] * bpe, g.indptr[v + 1] * bpe
        if hi == lo:
            out[v] = True
            continue
        chunks = range(lo // region.chunk_bytes, (hi - 1) // region.chunk_bytes + 1)
        out[v] = all(region.resident[c] for c in chunks)
    return out


class TestFills:
    def test_front_fill(self, graph):
        r = StaticRegion(graph, 1000, chunk_bytes=16, fill="front")
        assert r.resident[: r.capacity_chunks].all()
        assert not r.resident[r.capacity_chunks :].any()

    def test_rear_fill(self, graph):
        r = StaticRegion(graph, 1000, chunk_bytes=16, fill="rear")
        assert r.resident[-r.capacity_chunks :].all()

    def test_random_fill_capacity(self, graph):
        r = StaticRegion(graph, 1000, chunk_bytes=16, fill="random", seed=3)
        assert r.resident_chunks <= r.capacity_chunks

    def test_random_fill_deterministic(self, graph):
        a = StaticRegion(graph, 1000, chunk_bytes=16, fill="random", seed=3)
        b = StaticRegion(graph, 1000, chunk_bytes=16, fill="random", seed=3)
        assert np.array_equal(a.resident, b.resident)

    def test_random_fill_is_fragmented(self, graph):
        r = StaticRegion(graph, 2000, chunk_bytes=8, fill="random", seed=4,
                         fragment_chunks=16)
        runs = np.diff(np.nonzero(np.diff(r.resident.astype(int)))[0])
        # Contiguous runs, not single scattered chunks.
        assert r.resident_chunks > 0

    def test_lazy_fill_starts_empty(self, graph):
        r = StaticRegion(graph, 1000, chunk_bytes=16, fill="lazy")
        assert r.resident_chunks == 0
        assert r.free_chunks == r.capacity_chunks

    def test_unknown_fill(self, graph):
        with pytest.raises(ValueError):
            StaticRegion(graph, 1000, fill="magic")

    def test_capacity_capped_at_dataset(self, graph):
        r = StaticRegion(graph, 10**9, chunk_bytes=16, fill="front")
        assert r.capacity_chunks == r.n_chunks
        assert r.vertex_static_bitmap().all()

    def test_zero_capacity(self, graph):
        r = StaticRegion(graph, 0, chunk_bytes=16, fill="front")
        assert r.resident_chunks == 0
        # Only degree-0 vertices are "static".
        vb = r.vertex_static_bitmap()
        assert np.array_equal(vb, graph.out_degree() == 0)

    def test_invalid_geometry(self, graph):
        with pytest.raises(ValueError):
            StaticRegion(graph, -1)
        with pytest.raises(ValueError):
            StaticRegion(graph, 10, chunk_bytes=0)


class TestVertexBitmap:
    @pytest.mark.parametrize("fill", ["front", "rear", "random"])
    def test_matches_bruteforce(self, graph, fill):
        r = StaticRegion(graph, 1500, chunk_bytes=8, fill=fill, seed=9)
        assert np.array_equal(r.vertex_static_bitmap(), brute_vertex_bitmap(r))

    def test_cache_invalidated_by_swap(self, graph):
        r = StaticRegion(graph, 800, chunk_bytes=8, fill="front")
        before = r.vertex_static_bitmap().copy()
        resident = np.nonzero(r.resident)[0]
        missing = np.nonzero(~r.resident)[0]
        r.swap(resident[:4], missing[:4])
        after = r.vertex_static_bitmap()
        assert np.array_equal(after, brute_vertex_bitmap(r))
        assert not np.array_equal(before, after)

    def test_empty_graph(self):
        g = CSRGraph.from_edges([], [], 5)
        r = StaticRegion(g, 100, chunk_bytes=8)
        assert r.vertex_static_bitmap().all()


class TestChunkTouchCounts:
    def test_counts_match_bruteforce(self, graph):
        r = StaticRegion(graph, 1000, chunk_bytes=8)
        rng = np.random.default_rng(2)
        active = rng.random(graph.n_vertices) < 0.3
        counts = r.chunk_touch_counts(active)
        brute = np.zeros(r.n_chunks, dtype=np.int64)
        bpe = graph.bytes_per_edge
        for v in np.nonzero(active)[0]:
            lo, hi = graph.indptr[v] * bpe, graph.indptr[v + 1] * bpe
            if hi > lo:
                brute[lo // 8 : (hi - 1) // 8 + 1] += 1
        assert np.array_equal(counts, brute)

    def test_empty_active(self, graph):
        r = StaticRegion(graph, 1000, chunk_bytes=8)
        assert r.chunk_touch_counts(np.zeros(graph.n_vertices, bool)).sum() == 0


class TestSwap:
    def test_swap_moves_residency(self, graph):
        r = StaticRegion(graph, 800, chunk_bytes=8, fill="front")
        evict = np.nonzero(r.resident)[0][:3]
        load = np.nonzero(~r.resident)[0][:3]
        moved = r.swap(evict, load)
        assert moved == 3 * 8
        assert not r.resident[evict].any()
        assert r.resident[load].all()

    def test_swap_nonresident_eviction_rejected(self, graph):
        r = StaticRegion(graph, 800, chunk_bytes=8, fill="front")
        missing = np.nonzero(~r.resident)[0]
        with pytest.raises(ValueError):
            r.swap(missing[:1], missing[1:2])

    def test_swap_resident_load_rejected(self, graph):
        r = StaticRegion(graph, 800, chunk_bytes=8, fill="front")
        resident = np.nonzero(r.resident)[0]
        with pytest.raises(ValueError):
            r.swap(resident[:1], resident[1:2])

    def test_swap_overflow_rejected(self, graph):
        r = StaticRegion(graph, 800, chunk_bytes=8, fill="front")
        missing = np.nonzero(~r.resident)[0]
        with pytest.raises(ValueError):
            r.swap(np.empty(0, dtype=np.int64), missing[:1])


    @pytest.mark.parametrize("name, evict, load", [
        ("evict", [0, 0], []),
        ("evict", [0, 5, 0], [-1, -2, -3]),
        ("load", [0], [-1, -1]),
        ("load", [0, 1], [-1, -1]),
        ("load", [], [-2, -1, -2]),
    ], ids=["evict-twice", "evict-apart", "load-twice-overflows",
            "load-twice-fits", "load-apart"])
    def test_swap_repeated_ids_rejected(self, graph, name, evict, load):
        """A repeated id would pass the capacity check wrongly (or fail it),
        be charged twice, and skew the cached per-fragment counts."""
        r = StaticRegion(graph, graph.edge_array_bytes // 2, chunk_bytes=8,
                         fill="front")
        r.fragment_resident_counts(4)
        before = r.resident.copy()
        with pytest.raises(ValueError, match=f"{name} names a chunk twice"):
            r.swap(np.array(evict, dtype=np.int64) % r.n_chunks,
                   np.array(load, dtype=np.int64) % r.n_chunks)
        assert np.array_equal(r.resident, before)
        bounds = np.arange(0, r.n_chunks, 4, dtype=np.int64)
        assert np.array_equal(
            r.fragment_resident_counts(4),
            np.add.reduceat(r.resident, bounds, dtype=np.int64))


class TestShrink:
    def test_shrink_releases_chunks(self, graph):
        r = StaticRegion(graph, 800, chunk_bytes=8, fill="front")
        released = r.shrink_to(400)
        assert released == r.resident_chunks  # halved: 50 released of 100
        assert r.capacity_chunks == 50
        assert r.resident_chunks == 50

    def test_shrink_to_zero(self, graph):
        r = StaticRegion(graph, 800, chunk_bytes=8, fill="front")
        r.shrink_to(0)
        assert r.resident_chunks == 0
        vb = r.vertex_static_bitmap()
        assert np.array_equal(vb, graph.out_degree() == 0)

    def test_grow_is_noop_for_residency(self, graph):
        r = StaticRegion(graph, 400, chunk_bytes=8, fill="front")
        before = r.resident.copy()
        assert r.shrink_to(800) == 0
        assert np.array_equal(r.resident, before)
        assert r.capacity_chunks == 100


class TestPromote:
    def test_promote_marks_vertex_spans(self, graph):
        r = StaticRegion(graph, 800, chunk_bytes=8, fill="lazy")
        mask = np.zeros(graph.n_vertices, dtype=bool)
        mask[:20] = True
        promoted = r.promote_vertices(mask)
        assert promoted > 0
        assert r.resident_chunks == promoted
        # Promoted vertices with edges should now be static.
        vb = r.vertex_static_bitmap()
        deg = graph.out_degree()
        covered = vb[:20] | (deg[:20] == 0)
        assert covered.any()

    def test_promote_respects_capacity(self, graph):
        r = StaticRegion(graph, 160, chunk_bytes=8, fill="lazy")  # 20 chunks
        mask = np.ones(graph.n_vertices, dtype=bool)
        r.promote_vertices(mask)
        assert r.resident_chunks <= r.capacity_chunks

    def test_promote_budget_parameter(self, graph):
        r = StaticRegion(graph, 8000, chunk_bytes=8, fill="lazy")
        mask = np.ones(graph.n_vertices, dtype=bool)
        r.promote_vertices(mask, max_new_chunks=5)
        assert r.resident_chunks <= 5

    def test_promote_empty_mask(self, graph):
        r = StaticRegion(graph, 800, chunk_bytes=8, fill="lazy")
        assert r.promote_vertices(np.zeros(graph.n_vertices, bool)) == 0

    def test_promote_full_region_noop(self, graph):
        r = StaticRegion(graph, 800, chunk_bytes=8, fill="front")
        assert r.free_chunks == 0
        assert r.promote_vertices(np.ones(graph.n_vertices, bool)) == 0

    @given(st.integers(0, 2**20 - 1), st.integers(1, 40))
    def test_property_promotion_bounded(self, bits, budget):
        g = rmat_graph(6, 400, seed=31, directed=True)
        r = StaticRegion(g, 64 * 8, chunk_bytes=8, fill="lazy")
        mask = np.array([(bits >> (i % 20)) & 1 for i in range(g.n_vertices)], dtype=bool)
        promoted = r.promote_vertices(mask, max_new_chunks=budget)
        assert promoted <= min(budget, r.capacity_chunks)
        assert r.resident_chunks <= r.capacity_chunks
        assert np.array_equal(r.vertex_static_bitmap(), brute_vertex_bitmap(r))


def brute_touch_counts(region, active):
    """Oracle: the pre-bincount ``np.add.at`` range-mark implementation."""
    counts = np.zeros(region.n_chunks, dtype=np.int64)
    vs = np.nonzero(active & region._has_edges)[0]
    if vs.size == 0 or region.n_chunks == 0:
        return counts
    diff = np.zeros(region.n_chunks + 1, dtype=np.int64)
    np.add.at(diff, region._c_lo[vs], 1)
    np.add.at(diff, region._c_hi[vs] + 1, -1)
    return np.cumsum(diff[:-1])


class TestBincountRangeMark:
    """The bincount-based touch counting must agree with the old
    ``np.add.at`` scatter on every mask — same math, faster scatter."""

    @given(st.integers(0, 2**32 - 1))
    def test_property_matches_add_at(self, bits):
        g = rmat_graph(6, 600, seed=23, directed=True)
        r = StaticRegion(g, g.edge_array_bytes // 2, chunk_bytes=16)
        mask = np.array(
            [(bits >> (i % 32)) & 1 for i in range(g.n_vertices)], dtype=bool
        )
        got = r.chunk_touch_counts(mask)
        assert got.dtype == np.int64
        assert np.array_equal(got, brute_touch_counts(r, mask))

    def test_full_mask(self, graph):
        r = StaticRegion(graph, graph.edge_array_bytes, chunk_bytes=32)
        mask = np.ones(graph.n_vertices, dtype=bool)
        assert np.array_equal(r.chunk_touch_counts(mask),
                              brute_touch_counts(r, mask))

    def test_empty_mask(self, graph):
        r = StaticRegion(graph, graph.edge_array_bytes, chunk_bytes=32)
        mask = np.zeros(graph.n_vertices, dtype=bool)
        assert r.chunk_touch_counts(mask).sum() == 0


class TestFillPolicyParity:
    """All prefilling policies must charge the same number of chunks —
    ``random`` used to floor to whole fragments and come up short."""

    @pytest.mark.parametrize("capacity_frac", [0.1, 0.33, 0.5, 0.77, 1.0])
    def test_same_resident_chunks(self, graph, capacity_frac):
        cap = int(graph.edge_array_bytes * capacity_frac)
        resident = {
            fill: StaticRegion(graph, cap, chunk_bytes=8, fill=fill,
                               fragment_chunks=7).resident_chunks
            for fill in ("front", "rear", "random")
        }
        assert resident["front"] == resident["rear"] == resident["random"]

    @given(st.integers(1, 2**14), st.integers(1, 16))
    def test_property_random_fill_exact(self, cap, frag):
        g = rmat_graph(6, 400, seed=31, directed=True)
        r = StaticRegion(g, cap, chunk_bytes=8, fill="random", seed=3,
                         fragment_chunks=frag)
        assert r.resident_chunks == r.capacity_chunks


class TestTouchedChunkRuns:
    """The merged-interval touch representation must agree chunk-for-chunk
    with the dense counts: a chunk is inside some run iff its count > 0."""

    @staticmethod
    def _dense_cover(region, run_s, run_e):
        cover = np.zeros(region.n_chunks, dtype=bool)
        for s, e in zip(run_s.tolist(), run_e.tolist()):
            cover[s:e] = True
        return cover

    @given(st.integers(0, 2**32 - 1))
    def test_property_runs_cover_nonzero_counts(self, bits):
        g = rmat_graph(6, 600, seed=23, directed=True)
        r = StaticRegion(g, g.edge_array_bytes // 2, chunk_bytes=16)
        mask = np.array(
            [(bits >> (i % 32)) & 1 for i in range(g.n_vertices)], dtype=bool
        )
        run_s, run_e = r.touched_chunk_runs(mask)
        assert np.array_equal(self._dense_cover(r, run_s, run_e),
                              r.chunk_touch_counts(mask) > 0)

    @given(st.integers(0, 2**32 - 1))
    def test_property_runs_disjoint_increasing(self, bits):
        g = rmat_graph(6, 600, seed=23, directed=True)
        r = StaticRegion(g, g.edge_array_bytes // 2, chunk_bytes=16)
        mask = np.array(
            [(bits >> (i % 32)) & 1 for i in range(g.n_vertices)], dtype=bool
        )
        run_s, run_e = r.touched_chunk_runs(mask)
        assert run_s.shape == run_e.shape
        assert np.all(run_e > run_s)
        # Strictly separated: adjacent or overlapping spans were merged.
        assert np.all(run_s[1:] > run_e[:-1])

    def test_empty_mask(self, graph):
        r = StaticRegion(graph, 1000, chunk_bytes=8)
        run_s, run_e = r.touched_chunk_runs(
            np.zeros(graph.n_vertices, dtype=bool))
        assert run_s.size == 0 and run_e.size == 0

    def test_full_mask_single_run(self, graph):
        r = StaticRegion(graph, 1000, chunk_bytes=8)
        run_s, run_e = r.touched_chunk_runs(
            np.ones(graph.n_vertices, dtype=bool))
        assert run_s.size == 1
        assert run_s[0] == 0 and run_e[0] == r.n_chunks


class TestResidentRuns:
    """Run-length residency view: reconstructs the dense mask exactly and
    is re-derived after every mutator."""

    def _reconstruct(self, region):
        starts, ends, prefix = region.resident_runs()
        mask = np.zeros(region.n_chunks, dtype=bool)
        for s, e in zip(starts.tolist(), ends.tolist()):
            mask[s:e] = True
        assert prefix.size == starts.size + 1
        assert np.array_equal(np.diff(prefix), ends - starts)
        return mask

    @pytest.mark.parametrize("fill", ["front", "rear", "random", "lazy"])
    def test_matches_dense_mask(self, graph, fill):
        r = StaticRegion(graph, 1200, chunk_bytes=8, fill=fill, seed=5)
        assert np.array_equal(self._reconstruct(r), r.resident)

    def test_invalidated_by_every_mutator(self, graph):
        r = StaticRegion(graph, 800, chunk_bytes=8, fill="front")
        assert np.array_equal(self._reconstruct(r), r.resident)
        evict = np.nonzero(r.resident)[0][:3]
        load = np.nonzero(~r.resident)[0][:3]
        r.swap(evict, load)
        assert np.array_equal(self._reconstruct(r), r.resident)
        r.shrink_to(400)
        assert np.array_equal(self._reconstruct(r), r.resident)
        lazy = StaticRegion(graph, 800, chunk_bytes=8, fill="lazy")
        assert self._reconstruct(lazy).sum() == 0
        lazy.promote_vertices(np.ones(graph.n_vertices, dtype=bool),
                              max_new_chunks=7)
        assert np.array_equal(self._reconstruct(lazy), lazy.resident)
        lazy.top_up(max_new_chunks=9)
        assert np.array_equal(self._reconstruct(lazy), lazy.resident)

    def test_fragment_counts_invalidated_by_swap(self, graph):
        r = StaticRegion(graph, 800, chunk_bytes=8, fill="front")
        before = r.fragment_resident_counts(4).copy()
        evict = np.nonzero(r.resident)[0][:4]
        load = np.nonzero(~r.resident)[0][:4]
        r.swap(evict, load)
        after = r.fragment_resident_counts(4)
        bounds = np.arange(0, r.n_chunks, 4, dtype=np.int64)
        assert np.array_equal(
            after, np.add.reduceat(r.resident, bounds, dtype=np.int64))
        assert not np.array_equal(before, after)

    def test_fragment_counts_recomputed_on_new_size(self, graph):
        r = StaticRegion(graph, 800, chunk_bytes=8, fill="front")
        for f in (4, 16, 4):
            bounds = np.arange(0, r.n_chunks, f, dtype=np.int64)
            assert np.array_equal(
                r.fragment_resident_counts(f),
                np.add.reduceat(r.resident, bounds, dtype=np.int64))


class TestResidentCountInRuns:
    """Interval intersection count ≡ dense mask count over the same runs."""

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**16 - 1))
    def test_property_matches_dense_count(self, touch_bits, res_bits):
        g = rmat_graph(6, 600, seed=29, directed=True)
        r = StaticRegion(g, g.edge_array_bytes // 2, chunk_bytes=16)
        # Scramble residency into an arbitrary pattern via the raw mask —
        # the count method must work for any residency layout.
        pat = np.array([(res_bits >> (i % 16)) & 1 for i in range(r.n_chunks)],
                       dtype=bool)
        r.resident[:] = pat
        r._invalidate()
        mask = np.array(
            [(touch_bits >> (i % 32)) & 1 for i in range(g.n_vertices)],
            dtype=bool)
        run_s, run_e = r.touched_chunk_runs(mask)
        dense = sum(int(r.resident[s:e].sum())
                    for s, e in zip(run_s.tolist(), run_e.tolist()))
        assert r.resident_count_in_runs(run_s, run_e) == dense

    def test_empty_runs(self, graph):
        r = StaticRegion(graph, 800, chunk_bytes=8, fill="front")
        empty = np.empty(0, dtype=np.int64)
        assert r.resident_count_in_runs(empty, empty) == 0

    def test_no_residency(self, graph):
        r = StaticRegion(graph, 800, chunk_bytes=8, fill="lazy")
        run_s, run_e = r.touched_chunk_runs(
            np.ones(graph.n_vertices, dtype=bool))
        assert r.resident_count_in_runs(run_s, run_e) == 0
