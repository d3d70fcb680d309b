"""Tests for the Manager's per-iteration schedule (§3.2 overlap semantics)."""

import numpy as np
import pytest

from repro.algorithms import make_program
from repro.core.ascetic import AsceticEngine
from repro.graph.generators import social_graph
from repro.graph.properties import best_source
from repro.gpusim.rounds import ROUND_LOOP_LIMIT, stream_rounds

from conftest import TEST_SCALE, make_spec_for
from event_log_oracles import rows
from round_oracles import round_chain_loop
from test_timeline import lane_overlap


@pytest.fixture(scope="module")
def graph():
    return social_graph(800, 12000, seed=77)


def run(graph, cfg, edge_fraction=0.4, algo="CC", record_events=False):
    spec = make_spec_for(graph, edge_fraction=edge_fraction)
    eng = AsceticEngine(spec=spec, data_scale=TEST_SCALE, **cfg,
                        record_events=record_events)
    kwargs = {"source": best_source(graph)} if algo in ("BFS", "SSSP") else {}
    res = eng.run(graph, make_program(algo, **kwargs))
    return eng, res


class TestOverlap:
    def test_overlapped_not_slower(self, graph):
        _, seq = run(graph, dict(overlap=False))
        _, ovl = run(graph, dict(overlap=True))
        assert ovl.elapsed_seconds <= seq.elapsed_seconds

    def test_same_bytes_either_way(self, graph):
        """Overlap changes *when*, never *what* moves."""
        _, seq = run(graph, dict(overlap=False, replacement=False))
        _, ovl = run(graph, dict(overlap=True, replacement=False))
        assert seq.metrics.bytes_h2d == ovl.metrics.bytes_h2d

    def test_overlap_hides_gather_behind_static_compute(self, graph):
        """With overlap, elapsed < sum of all phase components."""
        _, ovl = run(graph, dict(overlap=True, replacement=False))
        ph = ovl.metrics.phase_seconds
        component_sum = sum(
            ph.get(k, 0.0) for k in ("Tsr", "Tfilling", "Ttransfer", "Tondemand")
        )
        assert ovl.elapsed_seconds < component_sum

    def test_concurrent_lanes_in_timeline(self, graph):
        """Somewhere, a gpu span and a cpu span overlap in time."""
        _, res = run(graph, dict(overlap=True), record_events=True)
        assert lane_overlap(res, "gpu", "cpu") > 0


class TestAdaptiveRepartition:
    def test_triggers_on_overflowing_cold_static(self):
        """A rear-filled static region is cold for an id-local BFS wave
        starting at low ids; a tiny on-demand region overflows — Eq. 3
        must fire."""
        from repro.graph.generators import web_graph

        wg = web_graph(2000, 24000, seed=5)
        spec = make_spec_for(wg, edge_fraction=0.5)
        cfg = dict(fill="rear", forced_ratio=0.98, adaptive=True)
        eng = AsceticEngine(spec=spec, data_scale=TEST_SCALE, **cfg)
        res = eng.run(wg, make_program("BFS", source=0))
        assert res.extra["repartitions"] >= 1

    def test_disabled_never_repartitions(self, graph):
        spec = make_spec_for(graph, edge_fraction=0.5)
        cfg = dict(fill="rear", forced_ratio=0.98, adaptive=False)
        eng = AsceticEngine(spec=spec, data_scale=TEST_SCALE, **cfg)
        res = eng.run(graph, make_program("CC"))
        assert res.extra["repartitions"] == 0

    def test_repartition_returns_memory_to_ondemand(self, graph):
        spec = make_spec_for(graph, edge_fraction=0.5)
        cfg = dict(fill="rear", forced_ratio=0.98, adaptive=True)
        eng = AsceticEngine(spec=spec, data_scale=TEST_SCALE, **cfg)
        eng.run(graph, make_program("CC"))
        if any(o.repartitioned for o in eng._outcomes):
            avail = spec.memory_bytes - graph.vertex_state_bytes
            assert eng._static_alloc.nbytes + eng._ondemand_alloc.nbytes == avail

    def test_lazy_warmup_protected(self, graph):
        """Adaptive check must not shrink an (empty) lazily-filled region."""
        spec = make_spec_for(graph, edge_fraction=0.5)
        cfg = dict(fill="lazy", adaptive=True)
        eng = AsceticEngine(spec=spec, data_scale=TEST_SCALE, **cfg)
        res = eng.run(graph, make_program("CC"))
        assert eng._region.capacity_chunks > 0
        assert sum(o.promoted_chunks for o in eng._outcomes) > 0


class TestStreamingAggregate:
    def test_many_rounds_charged_in_aggregate(self, graph):
        """A degenerate on-demand region produces thousands of rounds; the
        aggregate path must charge them without looping and remain worse
        than a healthy configuration (the Fig. 10 right-edge collapse)."""
        spec = make_spec_for(graph, edge_fraction=0.5)
        collapse = dict(forced_ratio=1.0, adaptive=False, replacement=False)
        healthy = dict(forced_ratio=0.9, adaptive=False, replacement=False)
        _, bad = run(graph, collapse, edge_fraction=0.5)
        _, good = run(graph, healthy, edge_fraction=0.5)
        assert bad.elapsed_seconds > good.elapsed_seconds
        # The collapse comes from per-round fixed costs: many transfers.
        assert bad.metrics.h2d_transfers > ROUND_LOOP_LIMIT

    def test_aggregate_matches_loop_totals(self, graph):
        """Bytes and edges charged by the aggregate path equal the looped
        path's for the same plan volumes (phases may differ in timing)."""
        spec = make_spec_for(graph, edge_fraction=0.5)
        cfg = dict(forced_ratio=1.0, adaptive=False, replacement=False)
        eng = AsceticEngine(spec=spec, data_scale=TEST_SCALE, **cfg)
        res = eng.run(graph, make_program("BFS", source=best_source(graph)))
        m = res.metrics
        assert m.edges_processed > 0
        assert m.bytes_h2d > 0


class TestSwapCausality:
    """§3.4 replacement must respect causality: the H2D swap copy cannot
    start before the CPU finishes staging the incoming chunks.  Without the
    gate, the copy lane (idle during the on-demand compute window) starts
    the swap mid-gather, understating Tswap."""

    @staticmethod
    def _forced_swap_iteration():
        """Drive one iteration that is guaranteed to plan a swap.

        Front-filled region on an id-local web graph, active mask over the
        rear ids only: the touch counts mark every resident (front) chunk
        stale and the absent (rear) chunks hot, and the long on-demand
        compute leaves the copy lane a wide §3.4 window.
        """
        from repro.core.manager import run_iteration
        from repro.core.replacement import HotnessTable
        from repro.core.static_region import StaticRegion
        from repro.graph.generators import web_graph
        from repro.gpusim.device import GPUSpec, SimulatedGPU

        wg = web_graph(3000, 36000, seed=9)
        region = StaticRegion(wg, capacity_bytes=wg.edge_array_bytes // 2,
                              chunk_bytes=1024, fill="front",
                              fragment_chunks=4)
        spec = GPUSpec(memory_bytes=wg.dataset_bytes * 2)
        gpu = SimulatedGPU(spec, record_events=True,
                           charge_scale=1.0 / TEST_SCALE)
        static_alloc = gpu.memory.alloc(
            "static_region", region.capacity_chunks * region.chunk_bytes)
        ondemand_alloc = gpu.memory.alloc(
            "ondemand", max(wg.edge_array_bytes // 4, region.chunk_bytes))
        program = make_program("CC")
        state = program.init_state(wg)
        active = np.zeros(wg.n_vertices, dtype=bool)
        active[2 * wg.n_vertices // 3:] = True
        state.active = active
        hotness = HotnessTable(region.n_chunks, policy="last",
                               chunk_map=region.chunk_map)
        with gpu.iteration(0):  # stamp events as engines do
            out = run_iteration(gpu, wg, program, state, region, hotness,
                                static_alloc, ondemand_alloc, adaptive=False,
                                fragment_chunks=4)
        return gpu, out

    def test_scenario_actually_swaps(self):
        _, out = self._forced_swap_iteration()
        assert out.swap_bytes > 0

    def test_swap_transfer_waits_for_gather(self):
        """Regression: pre-fix the H2D swap ignored the gather's completion
        (no ``after=`` gate) and started as soon as the copy lane was free,
        i.e. *before* its data existed."""
        gpu, out = self._forced_swap_iteration()
        assert out.swap_bytes > 0, "scenario failed to trigger a swap"
        events = rows(gpu.events.events)
        gathers = [e for e in events if e.label == "swap-gather"]
        swaps = [e for e in events if e.label == "static-swap"]
        assert len(gathers) == 1 and len(swaps) == 1
        assert swaps[0].start >= gathers[0].end - 1e-12, (
            f"static-swap started at {swaps[0].start} while its gather "
            f"ran until {gathers[0].end}"
        )

    def test_engine_swap_events_ordered(self, graph):
        """Every swap pair in a full engine run obeys the same ordering."""
        spec = make_spec_for(graph, edge_fraction=0.4)
        eng = AsceticEngine(spec=spec, data_scale=TEST_SCALE,
                            record_events=True, fill="front",
                            replacement=True)
        res = eng.run(graph, make_program("PR", tol=1e-2))
        last_gather_end = None
        for e in rows(res.event_log.events):
            if e.label == "swap-gather":
                last_gather_end = e.end
            elif e.label == "static-swap":
                assert last_gather_end is not None
                assert e.start >= last_gather_end - 1e-12

    def test_swap_scheduling_never_changes_values(self, graph):
        """The fixed swap path is pure scheduling: results stay
        bit-identical with replacement on or off."""
        _, with_swaps = run(graph, dict(fill="front", replacement=True))
        _, without = run(graph, dict(fill="front", replacement=False))
        assert np.array_equal(with_swaps.values, without.values)


class TestReplacementScheduling:
    def test_swaps_happen_for_pr_front_fill(self, graph):
        spec = make_spec_for(graph, edge_fraction=0.4)
        cfg = dict(fill="front", replacement=True)
        eng = AsceticEngine(spec=spec, data_scale=TEST_SCALE, **cfg)
        res = eng.run(graph, make_program("PR", tol=1e-2))
        # Replacement is allowed but bounded by the on-demand window.
        assert res.extra["swap_bytes"] >= 0

    def test_disabled_replacement_moves_nothing(self, graph):
        spec = make_spec_for(graph, edge_fraction=0.4)
        cfg = dict(fill="front", replacement=False)
        eng = AsceticEngine(spec=spec, data_scale=TEST_SCALE, **cfg)
        res = eng.run(graph, make_program("PR", tol=1e-2))
        assert res.extra["swap_bytes"] == 0


class TestPhaseAttribution:
    """Regression: every second a lane spends inside an engine iteration
    must be attributed to some Fig. 8 phase.  Pre-fix, the replacement
    server's CPU staging (``swap-gather``) was submitted outside any
    ``gpu.phase(...)`` context, so its time silently vanished from the
    phase breakdown (the Fig. 8 bars under-counted ``Tswap``)."""

    @staticmethod
    def _orphans(events):
        """Nonzero-duration lane ops inside an iteration with no phase.

        Run-level setup/teardown (vertex-state upload, result download)
        happens outside the iteration loop and outside Fig. 8's scope; the
        iteration context stamp distinguishes the two.
        """
        return [e for e in events
                if e.lane and e.end > e.start
                and e.iteration is not None and e.phase is None]

    def test_forced_swap_iteration_has_no_unattributed_time(self):
        gpu, out = TestSwapCausality._forced_swap_iteration()
        assert out.swap_bytes > 0
        orphans = self._orphans(rows(gpu.events.events))
        assert orphans == [], (
            f"{len(orphans)} nonzero-duration events carry no phase: "
            f"{[(e.lane, e.label) for e in orphans[:5]]}"
        )

    def test_swap_gather_charged_to_tswap(self):
        gpu, out = TestSwapCausality._forced_swap_iteration()
        assert out.swap_bytes > 0
        gathers = [e for e in rows(gpu.events.events) if e.label == "swap-gather"]
        assert gathers and all(e.phase == "Tswap" for e in gathers)
        # Both halves of the swap land in the same bucket.
        swap_dur = sum(e.end - e.start for e in rows(gpu.events.events)
                       if e.label in ("swap-gather", "static-swap"))
        assert gpu.metrics.phase_seconds["Tswap"] == pytest.approx(swap_dur)

    def test_full_engine_run_has_no_unattributed_time(self, graph):
        """The same invariant over a whole swap-active engine run."""
        spec = make_spec_for(graph, edge_fraction=0.4)
        eng = AsceticEngine(spec=spec, data_scale=TEST_SCALE,
                            record_events=True, fill="front",
                            replacement=True)
        res = eng.run(graph, make_program("PR", tol=1e-2))
        assert self._orphans(rows(res.event_log.events)) == []


SUBWAY_CHAIN = dict(labels=("gather", "subgraph", "compute"),
                    compute_phase="Tcompute")


class TestRoundBoundaryParity:
    """Regression: crossing ROUND_LOOP_LIMIT (the per-round loop → aggregate
    charging switch) must not move any counter.  Pre-fix the aggregate path
    charged the PCIe payload as ``payload_bytes(ceil(total/n)) * n`` while
    the loop path burst-rounded each round's exact share, so a 64→65 round
    crossing produced a spurious bytes/duration discontinuity whenever the
    share split straddled a burst boundary."""

    @staticmethod
    def _volumes(n_rounds, extra_bytes, n_edges=123_457):
        """``(total_bytes, n_edges, n_rounds)``: hi rounds land one burst
        above lo rounds — the exact case the old per-round-average formula
        over-charged."""
        from repro.gpusim.device import GPUSpec
        burst = GPUSpec(memory_bytes=1 << 20).pcie.burst
        return n_rounds * burst + extra_bytes, n_edges, n_rounds

    @staticmethod
    def _pair(volumes, **chain):
        """The same chain through the naive loop and through stream_rounds."""
        from repro.gpusim.device import GPUSpec, SimulatedGPU

        atomics = make_program("CC").atomics
        looped = SimulatedGPU(GPUSpec(memory_bytes=1 << 30))
        round_chain_loop(looped, *volumes, atomics=atomics, **chain)
        streamed = SimulatedGPU(GPUSpec(memory_bytes=1 << 30))
        stream_rounds(streamed, *volumes, atomics=atomics, **chain)
        return looped, streamed

    @staticmethod
    def _assert_same_charges(looped, streamed):
        ml, ms = looped.metrics, streamed.metrics
        assert ms.bytes_h2d == ml.bytes_h2d
        assert ms.h2d_transfers == ml.h2d_transfers
        assert ms.kernel_launches == ml.kernel_launches
        assert ms.edges_processed == ml.edges_processed
        assert set(ms.phase_seconds) == set(ml.phase_seconds)
        for phase, dur in ml.phase_seconds.items():
            assert ms.phase_seconds[phase] == pytest.approx(dur, rel=1e-12)

    @pytest.mark.parametrize("n_rounds", [ROUND_LOOP_LIMIT,
                                          ROUND_LOOP_LIMIT + 1, 101])
    @pytest.mark.parametrize("extra_bytes", [0, 35, 63])
    def test_aggregate_charges_equal_loop_charges(self, n_rounds, extra_bytes):
        self._assert_same_charges(
            *self._pair(self._volumes(n_rounds, extra_bytes)))

    @pytest.mark.parametrize("n_rounds", [ROUND_LOOP_LIMIT,
                                          ROUND_LOOP_LIMIT + 1])
    @pytest.mark.parametrize("chain", [{}, SUBWAY_CHAIN],
                             ids=["ascetic", "subway"])
    @pytest.mark.parametrize("sequential", [False, True],
                             ids=["pipelined", "sequential"])
    def test_crossing_holds_in_every_mode(self, sequential, chain, n_rounds):
        """Both dependency rules and both label/phase sets: same counters
        and phase seconds either side of the limit, and a makespan that
        differs from the loop's by less than one round's worth."""
        looped, streamed = self._pair(self._volumes(n_rounds, 35),
                                      sequential=sequential, **chain)
        self._assert_same_charges(looped, streamed)
        looped.sync()
        streamed.sync()
        if n_rounds <= ROUND_LOOP_LIMIT:
            assert streamed.elapsed == looped.elapsed
        elif sequential:
            assert streamed.elapsed == pytest.approx(looped.elapsed, rel=1e-12)
        else:
            assert streamed.elapsed == pytest.approx(looped.elapsed,
                                                     rel=1.0 / n_rounds)

    def test_limit_crossing_is_continuous(self):
        """Total charged bytes grow smoothly across the 64→65 boundary."""
        from repro.gpusim.device import GPUSpec, SimulatedGPU

        import math

        atomics = make_program("CC").atomics
        per_round = []
        burst = GPUSpec(memory_bytes=1 << 30).pcie.burst
        for n_rounds in (ROUND_LOOP_LIMIT, ROUND_LOOP_LIMIT + 1):
            total_bytes, n_edges, _ = self._volumes(n_rounds, extra_bytes=35)
            gpu = SimulatedGPU(GPUSpec(memory_bytes=1 << 30))
            stream_rounds(gpu, total_bytes, n_edges, n_rounds, atomics=atomics)
            if n_rounds > ROUND_LOOP_LIMIT:
                # The old aggregate charged every round as if it carried the
                # *average* share, burst-rounded once and multiplied out —
                # collapsing the hi/lo round split the loop preserves.
                pcie = gpu.spec.pcie
                uniform = pcie.payload_bytes(
                    math.ceil(total_bytes / n_rounds)) * n_rounds
                assert gpu.metrics.bytes_h2d != uniform
            per_round.append(gpu.metrics.bytes_h2d / n_rounds)
        # Per-round charged payload stays flat across the boundary.  The hi/lo
        # round mix shifts slightly with n (extra bytes spread over one more
        # round), so allow ~1 % drift — the uniform-rounding bug this pins
        # against produced a full-burst (≈50 %) step here.
        assert per_round[1] == pytest.approx(per_round[0], rel=2e-2)
        assert abs(per_round[1] - per_round[0]) < burst // 16


class TestSwapBudgetWindow:
    """Regression: the §3.4 replacement budget must be derived from what a
    swap H2D is actually *charged* (per-transfer latency + burst-rounded
    payload), not raw link bandwidth — otherwise the planned swap overruns
    the idle window it was supposed to hide inside."""

    @staticmethod
    def _gpu_and_region(chunk_bytes=1024, charge_scale=100.0):
        from repro.core.static_region import StaticRegion
        from repro.graph.generators import web_graph
        from repro.gpusim.device import GPUSpec, SimulatedGPU

        wg = web_graph(500, 6000, seed=11)
        region = StaticRegion(wg, capacity_bytes=wg.edge_array_bytes // 2,
                              chunk_bytes=chunk_bytes, fill="front")
        gpu = SimulatedGPU(GPUSpec(memory_bytes=wg.dataset_bytes * 2),
                           charge_scale=charge_scale)
        return gpu, region

    @pytest.mark.parametrize("window", [0.0, 1e-6, 1e-5, 3.7e-5, 1e-4,
                                        8.1e-4, 1e-2])
    @pytest.mark.parametrize("chunk_bytes", [256, 1024, 16 * 1024])
    def test_budgeted_swap_fits_window(self, window, chunk_bytes):
        from repro.core.manager import _swap_budget_chunks

        gpu, region = self._gpu_and_region(chunk_bytes=chunk_bytes)
        gpu.gpu.busy_until = window  # copy lane idle → window wide open
        budget = _swap_budget_chunks(gpu, region)
        assert budget >= 0
        if budget == 0:
            return
        # The manager transfers the whole swap as one H2D; its charged
        # duration must fit the window that justified the budget.
        moved = budget * region.chunk_bytes
        pcie = gpu.spec.pcie
        dur = sum(pcie.copy_cost(pcie.payload_bytes(gpu._scale(moved))))
        assert dur <= window * (1 + 1e-12), (
            f"budget {budget} chunks → H2D {dur:.3e}s overruns "
            f"window {window:.3e}s"
        )

    def test_engine_swap_h2d_completes_within_budget_window(self):
        """End to end: the forced-swap iteration's static-swap transfer
        occupies the copy lane for no longer than the idle window the
        budget was cut from (gather-gated start aside)."""
        gpu, out = TestSwapCausality._forced_swap_iteration()
        assert out.swap_bytes > 0
        swaps = [e for e in rows(gpu.events.events) if e.label == "static-swap"]
        assert len(swaps) == 1
        # The budget window was [copy.busy_until, gpu.busy_until] at plan
        # time; the transfer's *duration* is what the budget bounds.
        kernels = [e for e in rows(gpu.events.events) if e.label == "od-compute"]
        window_end = max(e.end for e in kernels) if kernels else swaps[0].end
        dur = swaps[0].end - swaps[0].start
        assert dur <= (window_end - swaps[0].start) * (1 + 1e-12) or \
            dur <= window_end * (1 + 1e-12)


class TestSuperstepFloor:
    """A superstep that moves nothing pays for nothing that did not change:
    on a warm quick load test, a swap is never followed by a fragment
    recount of its region, and each chunk map's fragment geometry is built
    at most once, however many regions and hotness tables use it."""

    def test_no_recount_after_swap_and_one_geometry_per_map(self,
                                                             monkeypatch):
        from repro.core import static_region
        from repro.graph import csr
        from repro.serve.simulator import quick_config, run_load_test

        config = quick_config(0)
        run_load_test(config)  # warm: graphs, chunk maps, traces
        reduceats, events = [0], []

        class Add:
            """``np.add`` whose ``reduceat`` counts its calls."""

            def __getattr__(self, name):
                return getattr(np.add, name)

            def reduceat(self, *args, **kwargs):
                reduceats[0] += 1
                return np.add.reduceat(*args, **kwargs)

        class Numpy:
            add = Add()

            def __getattr__(self, name):
                return getattr(np, name)

        count = static_region.StaticRegion.fragment_resident_counts
        swap = static_region.StaticRegion.swap

        def counting(self, f):
            before = reduceats[0]
            out = count(self, f)
            if reduceats[0] > before:
                events.append(("recount", id(self)))
            return out

        def swapping(self, evict, load):
            events.append(("swap", id(self)))
            return swap(self, evict, load)

        built, keep, lookups = {}, [], [0]
        geometry = csr.fragment_geometry
        lookup = csr.ChunkMap.fragment_geometry

        def building(seg_bounds, f):
            keep.append(seg_bounds)  # no id reuse while the test runs
            key = (id(seg_bounds), f)
            built[key] = built.get(key, 0) + 1
            return geometry(seg_bounds, f)

        def looking_up(self, f):
            lookups[0] += 1
            return lookup(self, f)

        monkeypatch.setattr(static_region, "np", Numpy())
        monkeypatch.setattr(static_region.StaticRegion,
                            "fragment_resident_counts", counting)
        monkeypatch.setattr(static_region.StaticRegion, "swap", swapping)
        monkeypatch.setattr(csr, "fragment_geometry", building)
        monkeypatch.setattr(csr.ChunkMap, "fragment_geometry", looking_up)
        run_load_test(config)

        swapped = set()
        for kind, region in events:
            if kind == "swap":
                swapped.add(region)
            else:
                assert region not in swapped, "fragment recount after a swap"
        assert swapped, "the load test must swap for this test to bite"
        assert lookups[0] > 0
        assert max(built.values(), default=1) == 1
