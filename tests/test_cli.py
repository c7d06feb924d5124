"""Tests for the command-line interface."""

import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import _bench_tiny_model, main

SRC = str(Path(__file__).resolve().parents[1] / "src")


# Everything ``plan-report`` / ``check-plans --report`` writes per plan.
PLAN_REPORT_KEYS = {
    "plan", "ok", "findings", "records", "records_pruned",
    "blocks_per_evaluation", "rows_run", "rows_padded", "arenas",
    "arena_nbytes_colored", "arena_nbytes_fifo", "arena_bytes_saved",
}


class TestCli:
    def test_info_runs(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out
        assert "repro.dp" in out
        assert "batched" in out  # the batched multi-frame engine is listed
        assert "repro.serving" in out
        assert "model zoo" in out

    def test_info_reports_out_kernel_coverage(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "out= kernel coverage" in out
        # Full coverage: every eligible op writes into arena buffers, so no
        # "missing" list is printed.
        assert "missing out= kernels" not in out
        assert "plan backends" not in out  # there is one executor

    def test_serve_rejects_unknown_zoo_name(self):
        from repro.serving import InferenceServer

        with pytest.raises(KeyError, match="helium"):
            InferenceServer.from_zoo(["helium"])
        with pytest.raises(KeyError, match="helium"):
            main(["serve", "--models", "helium"])

    def test_serving_surface_is_one_path(self, capsys):
        """One load generator (the benchmark's), no cache or pool flags."""
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "serve-bench" not in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        out = capsys.readouterr().out
        assert "--max-batch" in out and "--max-per-client" in out
        assert "--cache" not in out and "--workers" not in out

    def test_scaling_prints_tables(self, capsys):
        assert main(["scaling"]) == 0
        out = capsys.readouterr().out
        assert "Table 4" in out
        assert "Fig 5" in out
        assert "Fig 6" in out
        assert "86.2" in out or "85.9" in out  # the headline PFLOPS row

    def test_plan_report_writes_json_and_table(self, tmp_path, capsys):
        out_file = tmp_path / "plan-report.json"
        assert main(["plan-report", "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "water/double/evaluate" in out
        assert "6 block(s)/evaluation" in out
        entries = json.loads(out_file.read_text())
        assert len(entries) == 11
        assert entries[-1]["plan"] == "copper-fig3/double/evaluate-blocked"
        assert entries[-1]["blocks_per_evaluation"] == 6
        # One block of the perfect 256-atom lattice: 43 atoms x 134 real
        # neighbours + 1 in 43 x 220 slots, in eighths.
        assert "rows  5910/9460" in out
        assert (entries[-1]["rows_run"], entries[-1]["rows_padded"]) == (
            5 * (43 * 220 // 8), 43 * 220)
        # Zoo-width sections are below the BLAS line and run whole; a
        # trainer's graph is the padded one.
        assert all(e["rows_run"] == e["rows_padded"] for e in entries[:-1])
        assert all(e["rows_padded"] == 0 for e in entries if "/train" in e["plan"])
        for e in entries:
            assert set(e) == PLAN_REPORT_KEYS
            assert e["ok"]
            assert e["arena_nbytes_colored"] < e["arena_nbytes_fifo"]

    def test_check_plans_report_flag(self, tmp_path, capsys):
        out_file = tmp_path / "check.json"
        assert main(["check-plans", "--report", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out or "ok" in out
        entries = json.loads(out_file.read_text())
        assert len(entries) == 11
        assert all(e["ok"] for e in entries)
        assert all(set(e) == PLAN_REPORT_KEYS for e in entries)

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestMdDroppedNeighbors:
    def test_md_summary_reports_dropped_neighbors(self, capsys, monkeypatch):
        """A frame denser than ``sel`` truncates descriptors; ``repro md``
        says so.  (The stock tiny model's sel is never exceeded, so its
        summary stays one line.)"""
        from repro import cli
        from repro.dp.model import DeepPot, DPConfig

        assert main(["md", "--steps", "2"]) == 0
        assert "dropped" not in capsys.readouterr().out

        monkeypatch.setattr(
            cli, "_bench_tiny_model",
            lambda: DeepPot(DPConfig.tiny(sel=(2, 3), rcut=3.0)),
        )
        assert main(["md", "--steps", "2"]) == 0
        out = capsys.readouterr().out
        assert "neighbors beyond sel were dropped" in out


class TestServeDaemon:
    def test_serve_tiny_serves_bitwise_and_drains_clean_on_sigterm(self):
        """``repro serve`` end to end, as an operator runs it: a foreground
        daemon process, clients over TCP, SIGTERM, exit status."""
        from repro.analysis.structures import water_box
        from repro.serving import (
            SocketClient,
            perturbed_frames,
            served_matches_direct,
        )

        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--tiny", "--port", "0"],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        try:
            banner = daemon.stdout.readline()
            address = re.search(r"listening on (\S+:\d+)", banner).group(1)
            model = _bench_tiny_model()  # seeded: the daemon's weights
            frames = perturbed_frames(water_box((2, 2, 2), seed=0), 4)
            with SocketClient(address, "water-tiny") as client:
                results = client.evaluate_many(frames, timeout=60.0)
            assert all(
                served_matches_direct(model, frame, result)
                for frame, result in zip(frames, results)
            )
            daemon.send_signal(signal.SIGTERM)
            out, _ = daemon.communicate(timeout=60)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
        assert daemon.returncode == 0
        assert "drain clean: 4 submitted == 4 completed" in out
