"""Tests for the `paraverser` command-line interface."""

import argparse

import pytest

from repro.cli import main, parse_checkers


class TestParseCheckers:
    def test_single_group(self):
        checkers = parse_checkers("4xA510@2.0")
        assert len(checkers) == 4
        assert all(c.config.name == "A510" for c in checkers)
        assert all(c.freq_ghz == 2.0 for c in checkers)

    def test_mixed_pool(self):
        checkers = parse_checkers("2xX2@1.5,1xA510@2.0")
        assert len(checkers) == 3
        assert checkers[0].config.name == "X2"
        assert checkers[2].config.name == "A510"

    def test_bad_format_rejected(self):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_checkers("A510")

    def test_unknown_core_rejected(self):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_checkers("1xM1@3.0")

    def test_out_of_range_frequency_rejected(self):
        with pytest.raises(ValueError):
            parse_checkers("1xA510@9.9")

    def test_groups_keep_count_class_and_frequency(self):
        from repro.cpu.presets import A510, X2, parse_checker_groups

        assert parse_checker_groups(" 2xX2@1.5, 1xA510@2.0") == [
            (2, X2, 1.5), (1, A510, 2.0)]
        # Zero-count groups parse; whether a pool may be empty is the
        # caller's decision.
        assert parse_checker_groups("0xA510@2.0") == [(0, A510, 2.0)]
        with pytest.raises(ValueError, match="unknown core class 'M1'"):
            parse_checker_groups("1xM1@3.0")


class TestCommands:
    def test_workloads_lists_profiles(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "bwaves" in out and "bfs" in out and "canneal" in out

    def test_workloads_suite_filter(self, capsys):
        main(["workloads", "--suite", "gap"])
        out = capsys.readouterr().out
        assert "bfs" in out
        assert "bwaves" not in out

    def test_run_reports_overheads(self, capsys):
        code = main(["run", "-w", "exchange2", "-c", "1xA510@2.0",
                     "-n", "6000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "slowdown" in out
        assert "coverage" in out
        assert "energy overhead" in out

    def test_run_profile_prints_serial_stage_table(self, capsys):
        code = main(["run", "-w", "exchange2", "-c", "1xA510@2.0",
                     "-n", "6000", "--profile"])
        assert code == 0
        out = capsys.readouterr().out
        table = out[out.index("-- stage profile --"):]
        for stage in ("build", "trace", "timing", "noc", "schedule",
                      "check", "report"):
            assert f"\n{stage} " in table
        assert "(7 stages, serial)" in table

    def test_run_opportunistic_mode(self, capsys):
        main(["run", "-w", "exchange2", "-c", "1xA510@0.5",
              "-m", "opportunistic", "-n", "6000"])
        out = capsys.readouterr().out
        assert "opportunistic" in out

    def test_run_hash_slow_noc(self, capsys):
        main(["run", "-w", "exchange2", "-c", "1xX2@3.0",
              "--hash", "--slow-noc", "-n", "6000"])
        out = capsys.readouterr().out
        assert "hash" in out

    def test_inject_campaign(self, capsys):
        code = main(["inject", "-w", "exchange2", "-t", "5", "-n", "6000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "injected faults:         5" in out
        assert "detection" in out

    def test_campaign_runs_serially(self, capsys):
        code = main(["campaign", "-w", "exchange2", "-t", "4",
                     "-n", "6000", "-j", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "trials:" in out
        assert "detection" in out

    def test_campaign_json_row(self, capsys):
        code = main(["campaign", "-w", "exchange2", "-t", "4",
                     "-n", "6000", "-j", "1", "--json"])
        assert code == 0
        import json
        row = json.loads(capsys.readouterr().out)
        assert row["trials"] == 4
        assert row["detected"] + row["masked"] + row["missed"] == 4

    def test_campaign_resume_round_trip(self, capsys, tmp_path):
        args = ["campaign", "-w", "exchange2", "-n", "6000", "-j", "1",
                "--campaign-dir", str(tmp_path)]
        assert main([*args, "-t", "2"]) == 0
        capsys.readouterr()
        assert main([*args, "-t", "4", "--resume"]) == 0
        assert "resumed from shards:     2" in capsys.readouterr().out

    def test_campaign_rejects_unknown_fault_kind(self, capsys):
        code = main(["campaign", "-w", "exchange2",
                     "--fault-kinds", "cosmic_ray"])
        assert code == 2
        assert "bad fault kinds" in capsys.readouterr().err

    def test_campaign_resume_requires_dir(self, capsys):
        code = main(["campaign", "-w", "exchange2", "--resume"])
        assert code == 2
        assert "--campaign-dir" in capsys.readouterr().err

    def test_campaign_stats_json(self, capsys, tmp_path):
        stats_path = tmp_path / "stats.json"
        code = main(["campaign", "-w", "exchange2", "-t", "2",
                     "-n", "6000", "-j", "1",
                     "--stats-json", str(stats_path)])
        assert code == 0
        import json
        tree = json.loads(stats_path.read_text())
        assert tree["faults"]["injected"] == 2

    def test_campaign_telemetry_jsonl(self, capsys, tmp_path):
        import json
        jsonl_path = tmp_path / "faults.jsonl"
        code = main(["campaign", "-w", "exchange2", "-t", "8",
                     "-n", "6000", "-j", "1",
                     "--telemetry-jsonl", str(jsonl_path)])
        assert code == 0
        lines = jsonl_path.read_text().splitlines()
        assert lines
        records = [json.loads(line) for line in lines]
        assert all(r["label"] == "faults.exchange2" for r in records)
        assert [r["epoch"] for r in records] == list(range(1, len(records) + 1))
        final = records[-1]["stats"]["campaign"]
        assert final["trials"] == 8
        assert 0 <= final["detected"] <= 8

    def test_campaign_chunked_matches_serial(self, capsys):
        import json
        base = ["campaign", "-w", "exchange2", "-t", "4", "-n", "6000",
                "--json"]
        assert main([*base, "-j", "1"]) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main([*base, "-j", "2", "--chunk", "2"]) == 0
        chunked = json.loads(capsys.readouterr().out)
        for key in ("trials", "detected", "masked", "missed", "by_kind"):
            assert chunked[key] == serial[key]

    def test_cache_requires_directory(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
        assert main(["cache", "info"]) == 2
        assert "REPRO_TRACE_CACHE" in capsys.readouterr().err

    def test_cache_info_purge(self, capsys, tmp_path, monkeypatch):
        from repro.cpu.tracecache import TraceCache
        from repro.harness.runner import WorkloadCache

        tc = TraceCache(tmp_path)
        cache = WorkloadCache(max_instructions=4000, seed=7,
                              trace_cache=tc)
        cache.get("exchange2")  # populates one entry
        assert main(["cache", "info", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries:           1" in out
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        assert main(["cache", "purge"]) == 0
        assert "purged entries:    1" in capsys.readouterr().out
        assert tc.info()["entries"] == 0

    def test_fleet_prints_cell_table(self, capsys):
        code = main(["fleet", "--policies", "shortest", "--modes", "full",
                     "--loads", "0.7", "--duration", "0.2", "-j", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "shortest_full_load0.7" in out
        assert "p99" in out and "cover" in out

    def test_fleet_json_rows(self, capsys):
        import json
        code = main(["fleet", "--policies", "rr", "--modes",
                     "opportunistic", "--loads", "0.9", "--duration",
                     "0.2", "-j", "1", "--json"])
        assert code == 0
        row = json.loads(capsys.readouterr().out.splitlines()[0])
        assert row["label"] == "rr_opportunistic_load0.9"
        assert 0.0 < row["coverage"] <= 1.0

    def test_fleet_stats_json(self, capsys, tmp_path):
        import json
        stats_path = tmp_path / "fleet.json"
        code = main(["fleet", "--policies", "shortest", "--modes", "full",
                     "--loads", "0.7", "--duration", "0.2", "-j", "1",
                     "--stats-json", str(stats_path)])
        assert code == 0
        tree = json.loads(stats_path.read_text())
        cell = tree["fleet"]["shortest_full_load0.7"]
        assert cell["coverage"] == 1.0
        assert cell["latency_ms"]["p99"] > 0

    def test_fleet_bad_numeric_flag_one_liner(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--servers", "four"])
        message = str(excinfo.value)
        assert "--servers" in message and "four" in message
        assert "Traceback" not in message

    def test_fleet_bad_float_flag_one_liner(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--duration", "2s"])
        assert "--duration" in str(excinfo.value)

    def test_fleet_unknown_policy_rejected(self, capsys):
        code = main(["fleet", "--policies", "power-of-two",
                     "--duration", "0.2"])
        assert code == 2
        assert "unknown dispatch policy" in capsys.readouterr().err

    def test_fleet_unknown_mode_rejected(self, capsys):
        code = main(["fleet", "--modes", "sometimes", "--duration", "0.2"])
        assert code == 2
        assert "unknown mode" in capsys.readouterr().err

    def test_control_prints_frontier_table(self, capsys):
        code = main(["control", "--servers", "4", "--duration", "0.5",
                     "--epoch-s", "0.1", "--reps", "1", "-j", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "always_full" in out
        assert "always_opportunistic" in out
        assert "controlled" in out
        assert "frontier: p99 vs always-full" in out

    def test_control_json_reports_dominance(self, capsys):
        import json
        code = main(["control", "--servers", "4", "--duration", "0.5",
                     "--epoch-s", "0.1", "--reps", "1", "-j", "1",
                     "--json"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out["arms"]) == {"always_full",
                                    "always_opportunistic", "controlled"}
        assert set(out["dominates"]) == {"p99_vs_full",
                                         "coverage_vs_opportunistic"}

    def test_control_stats_and_telemetry_outputs(self, capsys, tmp_path):
        import json
        stats_path = tmp_path / "control.json"
        jsonl_path = tmp_path / "epochs.jsonl"
        code = main(["control", "--servers", "4", "--duration", "0.5",
                     "--epoch-s", "0.1", "--reps", "1", "-j", "1",
                     "--stats-json", str(stats_path),
                     "--telemetry-jsonl", str(jsonl_path)])
        assert code == 0
        capsys.readouterr()
        tree = json.loads(stats_path.read_text())
        cell = tree["control"]["shortest_threshold_load0.7"]
        assert cell["epochs"] == 5
        assert "power" in tree
        assert "shortest_full_load0.7" in tree["fleet"]
        lines = jsonl_path.read_text().strip().splitlines()
        assert len(lines) == 5
        assert json.loads(lines[0])["label"] \
            == "control.shortest_threshold_load0.7"

    def test_control_bad_flags_one_liner(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["control", "--epoch-s", "fast"])
        assert "--epoch-s" in str(excinfo.value)
        with pytest.raises(SystemExit) as excinfo:
            main(["control", "--policy", "pid"])
        message = str(excinfo.value)
        assert "--policy" in message and "threshold" in message

    def test_control_env_knobs_apply(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CONTROL_EPOCH_S", "0.25")
        code = main(["control", "--servers", "4", "--duration", "0.5",
                     "--reps", "1", "-j", "1"])
        assert code == 0
        assert "epoch 0.25s" in capsys.readouterr().out

    def test_control_bad_env_knob_one_liner(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONTROL_EPOCH_S", "fast")
        with pytest.raises(SystemExit) as excinfo:
            main(["control", "--servers", "4", "--duration", "0.5"])
        assert "REPRO_CONTROL_EPOCH_S" in str(excinfo.value)

    def test_control_rejects_degenerate_scale(self, capsys):
        code = main(["control", "--servers", "0", "--duration", "0.5"])
        assert code == 2
        assert "--servers" in capsys.readouterr().err

    def test_control_ed2p_needs_single_group_pool(self, capsys):
        code = main(["control", "--policy", "ed2p_budget",
                     "--checkers", "2xA510@2.0,1xX2@3.0",
                     "--duration", "0.5"])
        assert code == 2
        assert "single-group pool" in capsys.readouterr().err

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            main(["run", "-w", "doom", "-n", "1000"])

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestRouteCli:
    """`paraverser route` flag validation: one-line errors, no spawns."""

    def test_bad_replicas_one_liner(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["route", "--replicas", "many"])
        message = str(excinfo.value)
        assert "--replicas" in message and "many" in message
        assert "Traceback" not in message

    def test_bad_shards_one_liner(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["route", "--shards", "3.5"])
        assert "--shards" in str(excinfo.value)

    def test_bad_health_interval_one_liner(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["route", "--health-interval", "soon"])
        assert "--health-interval" in str(excinfo.value)

    def test_bad_workers_one_liner(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["route", "--workers", "a few"])
        assert "--workers" in str(excinfo.value)

    def test_shards_and_backends_conflict(self, capsys):
        code = main(["route", "--shards", "2",
                     "--backends", "127.0.0.1:1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--shards" in err and "--backends" in err

    def test_out_of_range_values_rejected(self, capsys):
        assert main(["route", "--shards", "0"]) == 2
        assert "route:" in capsys.readouterr().err
        assert main(["route", "--replicas", "-3"]) == 2
        assert main(["route", "--health-interval", "-1",
                     "--shards", "1"]) == 2

    def test_backends_entry_without_port(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["route", "--backends", "localhost"])
        assert "host:port" in str(excinfo.value)

    def test_backends_entry_bad_port(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["route", "--backends", "127.0.0.1:http"])
        assert "non-integer port" in str(excinfo.value)

    def test_backends_entry_port_out_of_range(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["route", "--backends", "127.0.0.1:99999"])
        assert "1..65535" in str(excinfo.value)

    def test_backends_empty_list_rejected(self, capsys):
        code = main(["route", "--backends", " , "])
        assert code == 2
        assert "at least one" in capsys.readouterr().err
