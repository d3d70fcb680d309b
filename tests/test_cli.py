"""Tests for the command-line interface."""

import argparse
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--dataset", "XX", "--algo", "BFS"])

    def test_unknown_engine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--dataset", "FK", "--algo", "BFS", "--engine", "CUDA"]
            )

    def test_defaults(self):
        args = build_parser().parse_args(["run", "--dataset", "FK", "--algo", "BFS"])
        assert args.engine == "Ascetic"
        assert args.ratio is None


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for abbr in ("GS", "FK", "FS", "UK"):
            assert abbr in out

    def test_run(self, capsys):
        rc = main(
            ["run", "--dataset", "FK", "--algo", "BFS", "--scale", "5e-5"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Ascetic" in out
        assert "static_ratio" in out

    def test_run_with_ascetic_flags(self, capsys):
        rc = main(
            [
                "run", "--dataset", "FK", "--algo", "CC", "--scale", "5e-5",
                "--fill", "lazy", "--no-overlap",
            ]
        )
        assert rc == 0
        assert "static_prefill_bytes" in capsys.readouterr().out

    def test_run_forced_ratio(self, capsys):
        rc = main(
            ["run", "--dataset", "FK", "--algo", "BFS", "--scale", "5e-5",
             "--ratio", "0.5"]
        )
        assert rc == 0
        assert "0.5" in capsys.readouterr().out

    def test_run_other_engine(self, capsys):
        rc = main(
            ["run", "--dataset", "FK", "--algo", "BFS", "--scale", "5e-5",
             "--engine", "Subway"]
        )
        assert rc == 0
        assert "Subway" in capsys.readouterr().out

    def test_compare(self, capsys):
        rc = main(["compare", "--dataset", "FK", "--algo", "BFS", "--scale", "5e-5"])
        assert rc == 0
        out = capsys.readouterr().out
        for engine in ("PT", "UVM", "Subway", "Ascetic"):
            assert engine in out

    def test_sweep_ratio(self, capsys):
        rc = main(
            ["sweep-ratio", "--dataset", "FK", "--algo", "CC", "--scale", "5e-5",
             "--ratios", "0.0", "0.9"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Eq. 2" in out
        assert "Subway baseline" in out

    def test_compare_parallel_matches_serial(self, capsys):
        assert main(["compare", "--dataset", "FK", "--algo", "BFS",
                     "--scale", "5e-5"]) == 0
        serial = capsys.readouterr().out
        assert main(["compare", "--dataset", "FK", "--algo", "BFS",
                     "--scale", "5e-5", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_sweep_ratio_parallel(self, capsys):
        rc = main(
            ["sweep-ratio", "--dataset", "FK", "--algo", "CC", "--scale", "5e-5",
             "--ratios", "0.0", "0.9", "--jobs", "2"]
        )
        assert rc == 0
        assert "Subway baseline" in capsys.readouterr().out


RUN = ["run", "--dataset", "FK", "--algo", "BFS", "--scale", "5e-5"]


def usage_error(argv, capsys) -> str:
    """Run ``argv``: it must exit 2 after a usage line.  Returns stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    return err


class TestBadInput:
    """Bad input is a usage error or ``error: ...`` — never a traceback,
    never a silently wrong cell."""

    @pytest.mark.parametrize("flag", [["--fill", "lazy"], ["--ratio", "0.5"],
                                      ["--no-overlap"]])
    def test_run_rejects_ascetic_flag_on_other_engine(self, flag, capsys):
        err = usage_error(RUN + ["--engine", "UVM"] + flag, capsys)
        assert flag[0] in err and "UVM" in err

    @pytest.mark.parametrize("argv", [
        RUN + ["--ratio", "1.5"],
        RUN + ["--ratio", "nan"],
        ["sweep-ratio", "--dataset", "FK", "--algo", "CC", "--scale", "5e-5",
         "--ratios", "0.2", "-0.1"],
        RUN[:-1] + ["0"],
        RUN[:-1] + ["1.5"],
        ["trace", "FK", "BFS", "--scale", "0"],
        ["grid", "--scale", "-1"],
        ["chaos", "FK", "BFS", "--scale", "0"],
        ["serve", "--scale", "0"],
        # Each of these was a ValueError traceback from the config object ...
        ["serve", "--rate", "0"],
        ["serve", "--requests", "-1"],
        ["serve", "--max-batch", "0"],
        ["serve", "--max-engines", "0"],
        ["serve", "--multi-source", "0"],
        ["serve", "--shard-over", "0"],
        ["serve", "--seed", "-1"],
        ["grid", "--jobs", "0"],
        ["grid", "--retries", "-1"],
        RUN + ["--memory-bytes", "-5"],
        # ... and each of these was accepted and ran.
        ["compare"] + RUN[1:] + ["--jobs", "0"],
        ["sweep-ratio"] + RUN[1:] + ["--jobs", "0"],
        ["grid", "--timeout", "0"],
        ["serve", "--deadline", "-1"],
        ["serve", "--batch-wait", "-1"],
        ["serve", "--queue-capacity", "0"],
        # These three exited 1 with a hand-written ``error:`` line.
        ["serve", "--quick", "--devices", "0"],
        ["fleet", "--devices", "0"],
        ["chaos", "GS", "BFS", "--fleet", "--devices", "1"],
    ])
    def test_out_of_range_value_is_a_usage_error(self, argv, capsys):
        err = usage_error(argv, capsys)
        assert "is not in" in err
        flag = next(a for a in reversed(argv) if a.startswith("--"))
        assert f"argument {flag}" in err

    @pytest.mark.parametrize("argv", [
        RUN, ["compare"] + RUN[1:], ["trace", "FK", "BFS", "--scale", "5e-5"],
        ["chaos", "FK", "BFS", "--scale", "5e-5"],
    ])
    def test_out_of_memory_is_reported_not_raised(self, argv, capsys):
        assert main(argv + ["--memory-bytes", "10"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "vertex_state" in err

    @pytest.mark.parametrize("value", ["2.7", "true", "null"])
    def test_fabric_device_count_must_be_an_integer(self, value, capsys):
        """``--devices`` is the one door for the fabric's device count."""
        argv = ["fleet", "--devices", value]
        assert "error: argument --devices: invalid int value" in usage_error(
            argv, capsys)


class TestGridCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["grid"])
        assert args.jobs == 1
        assert args.datasets == ["GS", "FK", "FS", "UK"]
        assert args.algos == ["BFS", "SSSP", "CC", "PR"]
        assert args.engines is None
        assert not args.no_cache

    def test_grid_runs_and_caches(self, capsys, tmp_path):
        argv = ["grid", "--datasets", "FK", "--algos", "BFS", "--scale", "5e-5",
                "--jobs", "2", "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "6 computed" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "6 cached" in warm
        assert "6 hit(s)" in warm

    def test_grid_no_cache(self, capsys, tmp_path):
        rc = main(["grid", "--datasets", "FK", "--algos", "BFS",
                   "--engines", "Subway", "--scale", "5e-5", "--no-cache"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 computed" in out
        assert "cache:" not in out


class TestChaosCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["chaos", "FK", "BFS"])
        assert args.engine == "Ascetic"
        assert args.seed == 0

    def test_chaos_passes_and_prints_digest(self, capsys):
        rc = main(["chaos", "GS", "BFS", "--engine", "Subway",
                   "--seed", "7", "--scale", "5e-5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "digest: " in out
        assert "identical to fault-free baseline" in out

    def test_chaos_digest_deterministic(self, capsys):
        argv = ["chaos", "GS", "BFS", "--engine", "Ascetic",
                "--seed", "7", "--scale", "5e-5"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        digest = [ln for ln in first.splitlines() if ln.startswith("digest:")]
        assert digest == [ln for ln in second.splitlines()
                          if ln.startswith("digest:")]

    def test_chaos_seed_changes_digest(self, capsys):
        base = ["chaos", "GS", "BFS", "--engine", "Subway", "--scale", "2e-4"]
        assert main(base + ["--seed", "1"]) == 0
        first = capsys.readouterr().out
        assert main(base + ["--seed", "2"]) == 0
        second = capsys.readouterr().out
        d1 = [ln for ln in first.splitlines() if ln.startswith("digest:")]
        d2 = [ln for ln in second.splitlines() if ln.startswith("digest:")]
        assert d1 != d2


class TestFleetChaosCommand:
    ARGV = ["chaos", "GS", "BFS", "--fleet", "--scale", "5e-5"]

    def test_fleet_chaos_recovers_and_degrades(self, capsys, tmp_path):
        report = tmp_path / "degraded.json"
        rc = main(self.ARGV + ["-o", str(report)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "identical to fault-free baseline" in out
        assert "device_losses" in out
        import json
        payload = json.loads(report.read_text())
        assert "fleet" in payload["report"]
        assert payload["report"]["degraded"]["relocated_requests"] > 0
        assert payload["digest"] in out

    def test_fleet_chaos_twice_run_digests_identical(self, capsys):
        assert main(self.ARGV) == 0
        first = capsys.readouterr().out
        assert main(self.ARGV) == 0
        second = capsys.readouterr().out
        d1 = [ln for ln in first.splitlines() if ln.startswith("digest:")]
        d2 = [ln for ln in second.splitlines() if ln.startswith("digest:")]
        assert len(d1) == 2  # one per leg: engine recovery + fleet load
        assert d1 == d2


class TestServingDigests:
    """The serving legs CI pins reproduce ``ci/``'s digests on whichever
    Python runs the suite (a float sum that rounds differently on one
    version moves them)."""

    CI = Path(__file__).resolve().parent.parent / "ci"
    LEGS = {
        "serve_digest.txt": ["serve", "--quick"],
        "fleet_digest.txt": ["fleet", "--quick"],
        "serve_hybrid_digest.txt": [
            "serve", "--engine", "Hybrid", "--requests", "8", "--rate", "4.0",
            "--graphs", "GS", "--algos", "BFS", "CC", "--scale", "5e-5",
            "--max-engines", "2"],
    }

    @pytest.mark.parametrize("name", LEGS)
    def test_digest_matches_ci(self, name, capsys):
        assert main(self.LEGS[name]) == 0
        digest = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("digest:")]
        assert digest == (self.CI / name).read_text().splitlines()


class TestFabricValidation:
    """A fabric is ``--devices`` and ``--topology``; there is no JSON door."""

    @pytest.mark.parametrize("argv", [
        ["fleet", "--fabric", '{"n_devices": 2}'],
        ["serve", "--quick", "--fabric", '{"n_devices": 2}'],
    ], ids=["fleet", "serve-quick"])
    def test_fabric_json_is_not_a_flag(self, argv, capsys):
        assert "unrecognized arguments: --fabric" in usage_error(argv, capsys)

    def test_fleet_rejects_malformed_fabric_json(self, capsys):
        assert "unrecognized arguments: --fabric" in usage_error(
            ["fleet", "--fabric", "{oops"], capsys)

    def test_fleet_rejects_unknown_fabric_key(self, capsys):
        assert "unrecognized arguments: --fabric" in usage_error(
            ["fleet", "--fabric", '{"n_devices": 2, "bogus_key": 1}'], capsys)

    def test_fleet_accepts_explicit_fabric(self, capsys):
        rc = main(["fleet", "--devices", "3", "--topology", "nvlink",
                   "--shard-over", "1.0", "--requests", "4",
                   "--scale", "5e-5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fleet — 3x Ascetic over nvlink" in out
        assert "digest: " in out


# --------------------------------------------------------------------------
# The surface: what a user can type, pinned, and every page of help
# --------------------------------------------------------------------------

SURFACE = Path(__file__).with_name("cli_surface.json")
COMMANDS = ("datasets", "engines", "run", "compare", "sweep-ratio", "trace",
            "grid", "serve", "fleet", "chaos")


def cli_surface(parser):
    """``{subcommand: {option strings: {default, choices, nargs,
    required}}}`` as JSON reads it back (a tuple default is a list)."""
    sub, = (a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction))
    return json.loads(json.dumps({
        name: {" ".join(a.option_strings) or a.dest: {
                   "default": a.default, "choices": a.choices,
                   "nargs": a.nargs, "required": a.required}
               for a in sp._actions
               if not isinstance(a, argparse._HelpAction)}
        for name, sp in sub.choices.items()}))


def test_the_flag_surface_equals_the_pinned_table():
    """``cli_surface.json`` was generated from the parser before its flags
    were derived from shared parents and the config fields: no flag added,
    removed or renamed, no default, choice set or ``nargs`` changed."""
    assert cli_surface(build_parser()) == json.loads(SURFACE.read_text())


@pytest.mark.parametrize("command", COMMANDS)
def test_every_subcommand_formats_its_help(command, capsys):
    # argparse %-formats help lazily: a bad derived string fails only here.
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: repro {command}")


class TestUnreadFlags:
    """A flag the run would not read is a usage error naming it — each of
    these was accepted and then ignored, or crashed mid-run."""

    @pytest.mark.parametrize("argv, flag", [
        (["serve", "--quick", "--engine", "Hybrid"], "--engine"),
        (["serve", "--quick", "--requests", "3"], "--requests"),
        (["serve", "--quick", "--scale", "1e-4"], "--scale"),
        (["fleet", "--quick", "--devices", "3"], "--devices"),
        (["fleet", "--quick", "--shard-over", "2"], "--shard-over"),
        (["fleet", "--quick", "--topology", "nvlink"], "--topology"),
        (["chaos", "GS", "BFS", "--devices", "3", "-o", "x.json"],
         "--devices"),
        (["chaos", "GS", "BFS", "-o", "x.json"], "-o/--output"),
        (["chaos", "GS", "BFS", "--fleet", "--seed", "-1"], "--seed"),
    ], ids=["serve-quick-engine", "serve-quick-requests", "serve-quick-scale",
            "fleet-quick-devices", "fleet-quick-shard-over",
            "fleet-quick-fabric", "chaos-devices", "chaos-output",
            "chaos-fleet-negative-seed"])
    def test_is_a_usage_error(self, argv, flag, capsys, tmp_path,
                              monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert f"argument {flag}:" in usage_error(argv, capsys)
        assert not (tmp_path / "x.json").exists()

    def test_serve_quick_reads_the_fabric_shard_and_output_flags(
            self, capsys, tmp_path):
        out = tmp_path / "slo.json"
        assert main(["serve", "--quick", "--seed", "0", "--devices", "2",
                     "--topology", "nvlink", "--shard-over", "1.0",
                     "-o", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "fleet — 2x Ascetic over nvlink" in printed
        config = json.loads(out.read_text())["config"]
        assert config["fabric"]["n_devices"] == 2
        assert config["shard_over"] == 1.0
        assert config["serve"]["n_requests"] == 12  # quick_config's own
