"""Tests for the command-line interface."""

import pytest

from repro.__main__ import build_parser, main

SMALL = ["--ssets", "8", "--generations", "500", "--rounds", "16"]


def dominant_line(capsys) -> str:
    out = capsys.readouterr().out
    (line,) = [l for l in out.splitlines() if l.startswith("dominant:")]
    return line


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table6" in out and "fig6b" in out

    def test_run_table(self, capsys):
        assert main(["run", "table5"]) == 0
        out = capsys.readouterr().out
        assert "WSLS" in out or "0101" in out

    def test_run_unknown_experiment(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["run", "fig99"])

    def test_evolve_small(self, capsys):
        assert main(
            ["evolve", "--ssets", "8", "--generations", "500", "--rounds", "16"]
        ) == 0
        out = capsys.readouterr().out
        assert "dominant:" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCliEntryPoint:
    def test_cli_renders_library_errors(self, capsys):
        from repro.__main__ import cli

        assert cli(["run", "fig99"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:") and "fig99" in err

    def test_cli_passes_through_success(self, capsys):
        from repro.__main__ import cli

        assert cli(["backends"]) == 0
        assert "event" in capsys.readouterr().out


class TestBackendsCommand:
    def test_lists_all_builtins(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in ("baseline", "serial", "event", "ensemble", "des"):
            assert name in out


class TestStructuresCommand:
    def test_lists_all_families_with_params(self, capsys):
        assert main(["structures"]) == 0
        out = capsys.readouterr().out
        for name in ("well-mixed", "complete", "ring", "grid", "regular",
                     "smallworld", "scalefree"):
            assert name in out
        assert "p=" in out  # parameter summaries are shown
        assert "rewiring" in out

    def test_evolve_new_family(self, capsys):
        assert main(
            ["evolve", *SMALL, "--structure", "smallworld:k=2,p=0.2,seed=1"]
        ) == 0
        out = capsys.readouterr().out
        assert "structure=smallworld:k=2,p=0.2,seed=1" in out
        assert "neighborhood cooperation" in out

    def test_unknown_structure_key_errors_helpfully(self, capsys):
        from repro.__main__ import cli

        assert cli(["evolve", *SMALL, "--structure", "ring:K=4"]) == 2
        err = capsys.readouterr().err
        assert "did you mean 'k'" in err


class TestEvolveBackends:
    def test_serial_and_event_agree(self, capsys):
        assert main(["evolve", *SMALL, "--backend", "serial"]) == 0
        serial_line = dominant_line(capsys)
        assert main(["evolve", *SMALL, "--backend", "event"]) == 0
        assert dominant_line(capsys) == serial_line

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            main(["evolve", "--backend", "warp-drive"])

    def test_retired_multiprocess_backend_lists_choices(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["evolve", *SMALL, "--backend", "multiprocess"]
            )
        err = capsys.readouterr().err
        assert "invalid choice: 'multiprocess'" in err
        for name in ("baseline", "des", "ensemble", "event", "serial"):
            assert name in err

    def test_workers_is_a_sweep_flag_only(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evolve", *SMALL, "--workers", "2"])
        assert "unrecognized arguments: --workers" in capsys.readouterr().err
        args = build_parser().parse_args(["sweep", *SMALL, "--workers", "2"])
        assert args.workers == 2

    def test_new_science_flags(self, capsys):
        assert main(
            ["evolve", *SMALL, "--pc-rate", "0.2", "--mutation-rate", "0.01",
             "--record-every", "100", "--seed", "4"]
        ) == 0
        assert "dominant:" in capsys.readouterr().out

    def test_expected_fitness_flag(self, capsys):
        assert main(
            ["evolve", "--ssets", "8", "--generations", "200", "--rounds",
             "16", "--noise", "0.01", "--expected-fitness"]
        ) == 0
        assert "dominant:" in capsys.readouterr().out

    def test_engine_toggle(self, capsys):
        """--no-engine forces the legacy payoff cache; same trajectory."""
        assert main(["evolve", *SMALL]) == 0
        engine_line = dominant_line(capsys)
        assert main(["evolve", *SMALL, "--no-engine"]) == 0
        out = capsys.readouterr().out
        assert "legacy-cache" in out
        (legacy_line,) = [
            l for l in out.splitlines() if l.startswith("dominant:")
        ]
        assert legacy_line == engine_line

    def test_record_events_toggle(self, capsys):
        assert main(["evolve", *SMALL, "--no-record-events"]) == 0
        assert "dominant:" in capsys.readouterr().out

    def test_checkpoint_roundtrip(self, tmp_path, capsys):
        path = str(tmp_path / "pop.npz")
        assert main(["evolve", *SMALL, "--checkpoint", path]) == 0
        assert (tmp_path / "pop.npz").exists()
        assert main(["evolve", *SMALL, "--checkpoint", path, "--resume"]) == 0
        assert "dominant:" in capsys.readouterr().out


class TestSweepCommand:
    def test_smoke(self, capsys):
        assert main(
            ["sweep", "--ssets", "8", "--generations", "200", "--rounds",
             "16", "--runs", "2", "--workers", "1", "--base-seed", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("dominant:") == 2
        assert "2 runs complete" in out

    def test_default_base_seed_gives_distinct_replicates(self, capsys):
        assert main(
            ["sweep", "--ssets", "8", "--generations", "100", "--rounds",
             "16", "--runs", "3", "--workers", "1"]
        ) == 0
        out = capsys.readouterr().out
        seeds = [l.split("seed=")[1].split("]")[0]
                 for l in out.splitlines() if l.startswith("[memory=")]
        assert len(set(seeds)) == 3

    def test_multiple_memories(self, capsys):
        assert main(
            ["sweep", "--ssets", "8", "--generations", "100", "--rounds",
             "16", "--memory", "1", "2", "--runs", "1", "--workers", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "[memory=1 run=0" in out and "[memory=2 run=0" in out


class TestServeFlags:
    def test_benchmark_serve_argv_parses(self):
        """The repository benchmark launches the server with this argv."""
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "1", "--no-warm-pool"]
        )
        assert (args.port, args.workers) == (0, 1)

    def test_retired_warm_pool_flag_is_accepted(self):
        args = build_parser().parse_args(["serve", "--warm-pool"])
        assert args.command == "serve"

    def test_retired_warm_pool_flag_is_hidden(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--help"])
        assert "warm-pool" not in capsys.readouterr().out


class TestStructureFlag:
    def test_evolve_structured(self, capsys):
        assert main(
            ["evolve", *SMALL, "--structure", "ring:k=2"]
        ) == 0
        out = capsys.readouterr().out
        assert "structure=ring:k=2" in out
        assert "neighborhood cooperation:" in out
        assert "largest dominant cluster:" in out

    def test_evolve_well_mixed_output_names_structure(self, capsys):
        assert main(["evolve", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "structure=well-mixed" in out
        # Spatial metrics only appear for structured runs.
        assert "neighborhood cooperation:" not in out

    def test_evolve_grid_defaults(self, capsys):
        assert main(
            ["evolve", "--ssets", "16", "--generations", "300", "--rounds",
             "16", "--structure", "grid"]
        ) == 0
        assert "structure=grid:rows=4,cols=4" in capsys.readouterr().out

    def test_sweep_structured(self, capsys):
        assert main(
            ["sweep", "--ssets", "8", "--generations", "200", "--rounds",
             "16", "--runs", "2", "--workers", "1", "--structure", "ring:k=2"]
        ) == 0
        assert capsys.readouterr().out.count("dominant:") == 2

    def test_structured_checkpoint_roundtrip(self, tmp_path, capsys):
        path = str(tmp_path / "ring.npz")
        args = [*SMALL, "--structure", "ring:k=2", "--checkpoint", path]
        assert main(["evolve", *args]) == 0
        assert main(["evolve", *args, "--resume"]) == 0
        assert "dominant:" in capsys.readouterr().out

    def test_bad_spec_is_clean_cli_error(self, capsys):
        from repro.__main__ import cli

        assert cli(["evolve", *SMALL, "--structure", "moebius:k=3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:") and "moebius" in err

    def test_unsupported_backend_combo_is_clean_cli_error(self, capsys):
        from repro.__main__ import cli

        assert cli(
            ["evolve", *SMALL, "--structure", "ring:k=2",
             "--backend", "baseline"]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "well-mixed" in err and "baseline" in err

    def test_infeasible_params_clean_error(self, capsys):
        from repro.__main__ import cli

        # k >= n_ssets: rejected while building the config, not mid-run.
        assert cli(
            ["evolve", "--ssets", "8", "--generations", "100", "--rounds",
             "16", "--structure", "ring:k=8"]
        ) == 2
        assert capsys.readouterr().err.startswith("repro: error:")


class TestRunStateCheckpointing:
    """Mid-run snapshots: --checkpoint-dir / --resume-from / `repro resume`."""

    ARGS = [*SMALL, "--seed", "11", "--checkpoint-every", "200"]

    def checkpointed_run(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        assert main(["evolve", *self.ARGS, "--checkpoint-dir", ckpt]) == 0
        (unit_dir,) = (tmp_path / "ckpt").glob("unit-*")
        return unit_dir, dominant_line(capsys)

    def test_evolve_writes_cadenced_snapshots(self, tmp_path, capsys):
        unit_dir, line = self.checkpointed_run(tmp_path, capsys)
        # Cadence 200 over 500 generations -> boundaries 200 and 400.
        assert sorted(p.name for p in unit_dir.iterdir()) == [
            f"gen-{200:012d}", f"gen-{400:012d}",
        ]
        assert line.startswith("dominant:")

    def test_resume_subcommand_finishes_bit_identically(
        self, tmp_path, capsys
    ):
        unit_dir, clean_line = self.checkpointed_run(tmp_path, capsys)
        assert main(["resume", str(unit_dir)]) == 0
        out = capsys.readouterr().out
        assert "resumed-from=400" in out
        (line,) = [l for l in out.splitlines() if l.startswith("dominant:")]
        assert line == clean_line

    def test_resume_accepts_a_single_snapshot_directory(
        self, tmp_path, capsys
    ):
        unit_dir, clean_line = self.checkpointed_run(tmp_path, capsys)
        assert main(["resume", str(unit_dir / f"gen-{200:012d}")]) == 0
        out = capsys.readouterr().out
        assert "resumed-from=200" in out
        (line,) = [l for l in out.splitlines() if l.startswith("dominant:")]
        assert line == clean_line

    def test_evolve_resume_from_matches_clean_run(self, tmp_path, capsys):
        unit_dir, clean_line = self.checkpointed_run(tmp_path, capsys)
        assert main(
            ["evolve", *self.ARGS, "--resume-from", str(unit_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "resumed-from=400" in out
        (line,) = [l for l in out.splitlines() if l.startswith("dominant:")]
        assert line == clean_line

    def test_resume_from_mismatched_config_is_a_did_you_mean_error(
        self, tmp_path, capsys
    ):
        from repro.__main__ import cli

        unit_dir, _ = self.checkpointed_run(tmp_path, capsys)
        assert cli(
            ["evolve", *SMALL, "--seed", "99", "--checkpoint-every", "200",
             "--resume-from", str(unit_dir)]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "did you mean to change these fields?" in err
        assert "seed" in err

    def test_resume_from_a_v1_population_file_errors_helpfully(
        self, tmp_path, capsys
    ):
        from repro.__main__ import cli

        path = str(tmp_path / "pop.npz")
        assert main(["evolve", *SMALL, "--checkpoint", path]) == 0
        capsys.readouterr()
        assert cli(["resume", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "--resume" in err  # points at the population-checkpoint flow

    def test_resume_from_nonexistent_artifact_is_clean(self, tmp_path,
                                                       capsys):
        from repro.__main__ import cli

        assert cli(["resume", str(tmp_path / "missing")]) == 2
        assert capsys.readouterr().err.startswith("repro: error:")

    def test_sweep_checkpoint_dir_smoke(self, tmp_path, capsys):
        # Memory 2; test_memory_one_sweep_writes_snapshots is the memory-1
        # twin.
        ckpt = str(tmp_path / "ckpt")
        assert main(
            ["sweep", "--ssets", "8", "--generations", "400", "--rounds",
             "16", "--memory", "2", "--runs", "2", "--workers", "1",
             "--base-seed", "5", "--checkpoint-every", "150",
             "--checkpoint-dir", ckpt]
        ) == 0
        assert capsys.readouterr().out.count("dominant:") == 2
        assert list((tmp_path / "ckpt").glob("unit-*/gen-*/meta.json"))

    def test_memory_one_sweep_writes_snapshots(self, tmp_path, capsys):
        # Each run of a memory-1 sweep has its own payoff store, so it
        # snapshots like the memory-2 twin above.
        ckpt = str(tmp_path / "ckpt")
        assert main(
            ["sweep", "--ssets", "8", "--generations", "400", "--rounds",
             "16", "--runs", "2", "--workers", "1", "--base-seed", "5",
             "--checkpoint-every", "150", "--checkpoint-dir", ckpt]
        ) == 0
        assert capsys.readouterr().out.count("dominant:") == 2
        assert list((tmp_path / "ckpt").glob("unit-*/gen-*/meta.json"))
