"""Tests for the Chrome/Perfetto trace exporter and the `repro trace` CLI."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.traces import (
    LANE_TIDS,
    MARKER_TID,
    chrome_trace_events,
    save_chrome_trace,
    to_chrome_trace,
)
from repro.cli import main
from repro.engines import registry
from repro.gpusim.events import (COUNTER_FIELDS, DEVICE_FAULT_KINDS,
                                 FAULT_KINDS, EventColumns, EventLog)
from repro.harness.experiments import make_workload, run_workload

from event_log_oracles import SimEvent, check_chrome_trace, columns, rows

#: The benchmark's scale: FK/BFS records 12.9 K rows on Ascetic with every
#: row kind present.  (``conftest.TEST_SCALE`` = 1e-2 records 687 K and made
#: this module 218 s of tier-1's 223 s.)
RECORDED_SCALE = 2e-4


def recorded_log():
    log = EventLog(record=True)
    log.emit_row({"lane": "copy", "kind": "h2d", "label": "part0",
                  "start": 0.0, "end": 0.002, "phase": "Ttransfer",
                  "iteration": 1, "bytes_h2d": 4096, "h2d_transfers": 1})
    log.emit_row({"lane": "gpu", "kind": "kernel", "label": "relax",
                  "start": 0.002, "end": 0.005, "phase": "Tcompute",
                  "kernel_launches": 1, "edges_processed": 500})
    log.marker("uvm-fault", "touch", 0.004,
               counters={"page_faults": 2, "pages_migrated": 2})
    return log


class TestChromeTraceEvents:
    def test_slices_have_required_fields(self):
        slices = [r for r in chrome_trace_events(recorded_log())
                  if r["ph"] == "X"]
        assert len(slices) == 2
        for r in slices:
            assert set(r) >= {"name", "ph", "ts", "dur", "pid", "tid"}
        h2d, kernel = slices
        assert h2d["name"] == "part0"
        assert h2d["tid"] == LANE_TIDS["copy"]
        assert h2d["ts"] == pytest.approx(0.0)
        assert h2d["dur"] == pytest.approx(2000.0)  # 0.002 s in µs
        assert h2d["args"]["bytes_h2d"] == 4096
        assert h2d["args"]["phase"] == "Ttransfer"
        assert h2d["args"]["iteration"] == 1
        assert kernel["cat"] == "Tcompute"

    def test_instants_on_marker_row(self):
        instants = [r for r in chrome_trace_events(recorded_log())
                    if r["ph"] == "i"]
        assert len(instants) == 1
        (m,) = instants
        assert m["tid"] == MARKER_TID
        assert m["s"] == "t"
        assert "dur" not in m
        assert m["args"]["page_faults"] == 2

    def test_metadata_names_every_lane(self):
        meta = [r for r in chrome_trace_events(recorded_log())
                if r["ph"] == "M"]
        thread_names = {r["tid"]: r["args"]["name"] for r in meta
                        if r["name"] == "thread_name"}
        assert thread_names == {0: "gpu", 1: "copy", 2: "cpu", 3: "markers"}

    def test_unknown_lane_gets_its_own_row(self):
        events = columns([SimEvent(lane="dma2", kind="op", label="x",
                                   start=0.0, end=1.0)])
        records = chrome_trace_events(events)
        (slice_,) = [r for r in records if r["ph"] == "X"]
        assert slice_["tid"] > MARKER_TID
        names = {r["args"]["name"] for r in records
                 if r["ph"] == "M" and r["name"] == "thread_name"}
        assert "dma2" in names

    def test_rejects_lean_log(self):
        with pytest.raises(ValueError, match="lean"):
            chrome_trace_events(EventLog(record=False))


class TestToChromeTrace:
    def test_document_shape(self):
        doc = to_chrome_trace(recorded_log())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert doc["displayTimeUnit"] == "ms"
        json.dumps(doc)  # must be JSON-able as-is

    def test_save_round_trips(self, tmp_path):
        out = tmp_path / "sub" / "run.trace.json"
        save_chrome_trace(out, recorded_log())
        doc = json.loads(out.read_text())
        assert doc["traceEvents"] == chrome_trace_events(recorded_log())


@pytest.mark.parametrize("engine_name", registry.available())
class TestEveryEngineExports:
    def test_valid_chrome_trace(self, engine_name, tmp_path):
        w = make_workload("FK", "BFS", scale=RECORDED_SCALE)
        res = run_workload(w, engine_name, record_events=True)
        out = save_chrome_trace(tmp_path / f"{engine_name}.json", res)
        doc = json.loads(out.read_text())
        slices = [r for r in doc["traceEvents"] if r["ph"] == "X"]
        assert slices, f"{engine_name} produced no timeline slices"
        # Single-device engines export one pid-0 process; the fabric
        # engine gets one process per device (pid = device id).
        n_pids = int(res.extra.get("n_devices", 1))
        for r in slices:
            assert r["ts"] >= 0 and r["dur"] >= 0
            assert 0 <= r["pid"] < n_pids and isinstance(r["tid"], int)
        assert doc["otherData"]["engine"] == res.engine
        assert doc["otherData"]["algorithm"] == "BFS"

    def test_lean_run_refuses_export(self, engine_name):
        w = make_workload("FK", "BFS", scale=RECORDED_SCALE)
        res = run_workload(w, engine_name)
        with pytest.raises(ValueError, match="record_events"):
            to_chrome_trace(res)


class TestMultiDeviceExport:
    def device_log(self):
        log = EventLog(record=True)
        log.emit_op("gpu", "kernel", "k0", 0.0, 0.5, device=0)
        log.emit_op("gpu", "kernel", "k1", 0.0, 0.4, device=2)
        log.marker("dispatch", "dev0", 0.1)  # device-less → fabric process
        return log

    def test_device_becomes_pid(self):
        records = chrome_trace_events(self.device_log())
        slices = {r["name"]: r for r in records if r["ph"] == "X"}
        assert slices["k0"]["pid"] == 0
        assert slices["k1"]["pid"] == 2

    def test_process_names_per_device(self):
        records = chrome_trace_events(self.device_log())
        names = {r["pid"]: r["args"]["name"] for r in records
                 if r["ph"] == "M" and r["name"] == "process_name"}
        assert names[0] == "repro-sim:dev0"
        assert names[2] == "repro-sim:dev2"
        # Device-less markers live one pid above the highest device.
        assert names[3] == "repro-fabric"

    def test_deviceless_markers_go_to_fabric_process(self):
        records = chrome_trace_events(self.device_log())
        (m,) = [r for r in records if r["ph"] == "i"]
        assert m["pid"] == 3
        assert m["tid"] == MARKER_TID

    def test_single_device_log_is_byte_identical(self):
        # A log where no event carries a device must export exactly as
        # before the fabric work — same records, pid 0 throughout.
        log = recorded_log()
        assert all(e.device is None for e in rows(log.events))
        records = chrome_trace_events(log)
        assert all(r["pid"] == 0 for r in records)
        assert json.dumps(records) == json.dumps(chrome_trace_events(log))

    def test_sharded_run_exports_one_process_per_device(self, tmp_path):
        w = make_workload("GS", "BFS", scale=RECORDED_SCALE)
        res = run_workload(w, "Sharded", record_events=True, devices=3)
        doc = json.loads(
            save_chrome_trace(tmp_path / "sharded.json", res).read_text())
        pids = {r["pid"] for r in doc["traceEvents"] if r["ph"] == "X"}
        assert pids == {0, 1, 2}
        names = {r["args"]["name"] for r in doc["traceEvents"]
                 if r["ph"] == "M" and r["name"] == "process_name"}
        assert {"repro-sim:dev0", "repro-sim:dev1",
                "repro-sim:dev2"} <= names


class TestTraceCLI:
    def test_trace_subcommand_writes_valid_json(self, tmp_path, capsys):
        out = tmp_path / "fk_bfs.trace.json"
        main(["trace", "FK", "BFS", "--engine", "Subway",
              "--scale", "5e-5", "-o", str(out)])
        doc = json.loads(out.read_text())
        assert any(r["ph"] == "X" for r in doc["traceEvents"])
        assert doc["otherData"]["engine"] == "Subway"
        printed = capsys.readouterr().out
        assert "events" in printed and str(out) in printed


# --------------------------------------------------------------------------
# The export's rules, on random one-device and fabric logs
# --------------------------------------------------------------------------

#: Every lane the export names, plus two no engine declares.
TRACE_LANES = ("", "", *LANE_TIDS, "direct", "peer")
TRACE_KINDS = ("kernel", "h2d", "access-path", "dispatch",
               *sorted(FAULT_KINDS), *sorted(DEVICE_FAULT_KINDS))


#: One row's fields but its device; built once, drawn from per row.
TRACE_ROW = st.tuples(
    st.floats(0.0, 5.0, allow_nan=False), st.sampled_from(TRACE_LANES),
    st.sampled_from(TRACE_KINDS), st.sampled_from(("", "op", "chunk!fail")),
    st.floats(0.0, 1.0), st.sampled_from((None, "Tsr", "Ttransfer")),
    st.sampled_from((None, 0, 4)),
    st.dictionaries(st.sampled_from(COUNTER_FIELDS[:4]), st.integers(0, 9),
                    max_size=2),
    st.lists(st.tuples(st.sampled_from(("n", "bytes")), st.integers(-3, 9)),
             max_size=2, unique_by=lambda kv: kv[0]).map(tuple))
FABRIC_DEVICES = st.sampled_from((None, 0, 1, 3))


@st.composite
def trace_columns(draw):
    """Random rows; a fabric log mixes device-less rows (lane ones too)
    with rows of up to four devices, a one-device log has none."""
    devices = FABRIC_DEVICES if draw(st.booleans()) else st.none()
    cols = EventColumns()
    for _ in range(draw(st.integers(0, 30))):
        (start, lane, kind, label, width, phase, iteration, counters,
         extra) = draw(TRACE_ROW)
        cols.add(lane, kind, label, start, start + (width if lane else 0.0),
                 phase, iteration, draw(devices), counters, extra)
    return cols


@settings(max_examples=150, deadline=None)
@given(cols=trace_columns())
def test_export_follows_the_trace_rules(cols):
    check_chrome_trace(rows(cols), chrome_trace_events(cols))
