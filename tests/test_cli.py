import contextlib
import io
import itertools
import json
import multiprocessing
import os
import re
import sys
import time
import tempfile
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from salad.block import head_slices
from salad.cli import main
from salad.config import RunConfig, apply_override, config_from_dict, load_config
from salad.errors import ConfigError
from salad.tensor_io import read_tensor

from conftest import one_matrix_jacobi_singular_values, peak_rss_kib


def run_cli(*argv):
    return main(list(argv))


def small_args(tmp_path, out="out", *extra):
    return [
        "--out", str(tmp_path / out),
        "--set", "layers=2", "--set", "timesteps=2",
        "--set", "grid.frames=2", "--set", "grid.height=2", "--set", "grid.width=2",
        "--set", "grid.heads=2", "--set", "grid.head_dim=4",
        "--set", "mask.radius=2",
        *extra,
    ]


class TestConfig:
    def test_defaults_are_runnable(self):
        cfg = config_from_dict({})
        assert cfg.mask.k == 4 and cfg.mask.delta == 2.0
        assert cfg.block.gate_activation == "sigmoid"
        assert cfg.grid.seq_len == 64

    def test_grid_only_document(self):
        cfg = config_from_dict({"grid": {"frames": 2, "height": 3, "width": 3,
                                         "heads": 1, "head_dim": 4}})
        assert cfg.grid.seq_len == 18

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            config_from_dict({"grids": {}})
        with pytest.raises(ConfigError, match="mask.radiu"):
            config_from_dict({"mask": {"radiu": 3}})

    def test_overrides_parse_json_with_string_fallback(self):
        doc = {}
        apply_override(doc, "mask.kind=topk")
        apply_override(doc, "mask.k=8")
        apply_override(doc, "sigma.values=[1.0, 0.5]")
        apply_override(doc, "timestamp=false")
        assert doc == {"mask": {"kind": "topk", "k": 8},
                       "sigma": {"values": [1.0, 0.5]}, "timestamp": False}
        with pytest.raises(ConfigError):
            apply_override(doc, "no_equals_sign")

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"seed": 9, "mask": {"radius": 3}}')
        cfg = load_config(path, ["mask.radius=5"])
        assert cfg.seed == 9 and cfg.mask.radius == 5

    def test_sigma_schedule(self):
        cfg = config_from_dict({"timesteps": 3, "sigma": {"max": 1.0, "min": 0.25}})
        sched = cfg.sigma.schedule(3)
        assert sched[0] == 1.0 and abs(sched[-1] - 0.25) < 1e-12
        cfg2 = config_from_dict({"timesteps": 2, "sigma": {"values": [0.9, 0.1]}})
        assert cfg2.sigma.schedule(2) == [0.9, 0.1]
        with pytest.raises(ConfigError):
            config_from_dict({"timesteps": 3, "sigma": {"values": [1.0]}})


class TestGen:
    def test_same_seed_same_bytes(self, tmp_path):
        assert run_cli("gen", *small_args(tmp_path, "w1"), "--seed", "5") == 0
        assert run_cli("gen", *small_args(tmp_path, "w2"), "--seed", "5") == 0
        for name in ("inputs.stns", "params_l0.sldp", "manifest.json"):
            assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        run_cli("gen", *small_args(tmp_path, "w1"), "--seed", "1")
        run_cli("gen", *small_args(tmp_path, "w2"), "--seed", "2")
        a = (tmp_path / "w1" / "inputs.stns").read_bytes()
        b = (tmp_path / "w2" / "inputs.stns").read_bytes()
        assert a != b

    def test_gaussian_statistics(self, tmp_path):
        # 4 layers x 5 timesteps x 64 tokens x 16 channels >= 10^4 samples
        assert run_cli("gen", "--out", str(tmp_path / "w"),
                       "--set", "grid.head_dim=8", "--seed", "11") == 0
        x = read_tensor(tmp_path / "w" / "inputs.stns")
        n = x.size
        assert n >= 10_000
        assert abs(float(x.mean())) < 5.0 / np.sqrt(n)
        assert abs(float(x.std()) - 1.0) < 5.0 / np.sqrt(2 * n)

    def test_headers_identical_apart_from_seed(self, tmp_path):
        run_cli("gen", *small_args(tmp_path, "w1"), "--seed", "1")
        run_cli("gen", *small_args(tmp_path, "w2"), "--seed", "2")
        m1 = json.loads((tmp_path / "w1" / "manifest.json").read_text())
        m2 = json.loads((tmp_path / "w2" / "manifest.json").read_text())
        assert m1.pop("seed") == 1 and m2.pop("seed") == 2
        assert m1 == m2
        h1 = (tmp_path / "w1" / "params_l0.sldp").read_bytes().split(b"\n", 1)[0]
        h2 = (tmp_path / "w2" / "params_l0.sldp").read_bytes().split(b"\n", 1)[0]
        d1, d2 = json.loads(h1), json.loads(h2)
        assert d1.pop("seed") != d2.pop("seed")
        assert d1 == d2


class TestRun:
    def test_report_written_with_fixed_keys(self, tmp_path, capsys):
        assert run_cli("run", *small_args(tmp_path), "--no-timestamp") == 0
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert list(doc) == ["config", "sparsity", "flops", "speedup_estimate",
                             "gates", "drop_plan", "ranks", "gradcheck", "oracle_checks"]
        zero_init = [c for c in doc["oracle_checks"] if c["name"] == "zero_init_equivalence"]
        assert zero_init and zero_init[0]["passed"] is True

    def test_full_window_reports_zero_sparsity(self, tmp_path):
        assert run_cli("run", *small_args(tmp_path), "--set", "mask.radius=64") == 0
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["sparsity"]["aggregate"] == 0.0

    def test_ninety_percent_window(self, tmp_path):
        args = [
            "--out", str(tmp_path / "r"),
            "--set", "layers=1", "--set", "timesteps=1",
            "--set", "grid.frames=10", "--set", "grid.height=10", "--set", "grid.width=10",
            "--set", "grid.heads=1", "--set", "grid.head_dim=8",
            "--set", "mask.radius=51", "--set", "analysis.rank_layers=[]",
        ]
        assert run_cli("run", *args) == 0
        doc = json.loads((tmp_path / "r" / "report.json").read_text())
        from salad.masking import window_attended_pairs

        want = 1.0 - window_attended_pairs(1000, 51) / 1000**2
        assert abs(doc["sparsity"]["aggregate"] - want) < 1e-12
        assert abs(doc["sparsity"]["aggregate"] - 0.90) <= 0.001

    def test_run_uses_generated_workload(self, tmp_path):
        run_cli("gen", *small_args(tmp_path, "w"), "--seed", "4")
        rc = run_cli("run", *small_args(tmp_path, "r"),
                     "--set", f'workload_dir="{tmp_path / "w"}"', "--seed", "4")
        assert rc == 0
        assert (tmp_path / "r" / "report.json").is_file()

    def test_byte_identical_reports(self, tmp_path):
        run_cli("run", *small_args(tmp_path, "r1"), "--seed", "8", "--no-timestamp")
        run_cli("run", *small_args(tmp_path, "r2"), "--seed", "8", "--no-timestamp")
        a = (tmp_path / "r1" / "report.json").read_bytes()
        b = (tmp_path / "r2" / "report.json").read_bytes()
        assert a == b

    def test_threads_match_sequential(self, tmp_path):
        run_cli("run", *small_args(tmp_path, "r1"), "--threads", "1", "--no-timestamp")
        run_cli("run", *small_args(tmp_path, "r2"), "--threads", "4", "--no-timestamp")
        a = (tmp_path / "r1" / "report.json").read_bytes()
        b = (tmp_path / "r2" / "report.json").read_bytes()
        assert a == b

    def test_threads_match_sequential_with_fresh_window_plans(self, tmp_path):
        """Four threads ask for a new window list at once; one thread
        builds it alone. N=256 with radius 8 spans several pairwise
        leaves."""
        from salad.masking import _window_list

        grid = ["--set", "grid.frames=4", "--set", "grid.height=8", "--set", "grid.width=8",
                "--set", "mask.radius=8"]
        for name, threads in (("r4", "4"), ("r1", "1")):
            _window_list.cache_clear()
            assert run_cli("run", *small_args(tmp_path, name, *grid),
                           "--threads", threads, "--no-timestamp") == 0
        a = (tmp_path / "r4" / "report.json").read_bytes()
        b = (tmp_path / "r1" / "report.json").read_bytes()
        assert a == b

    @pytest.mark.parametrize("command", ["gen", "check", "analyze"])
    def test_threads_is_refused_where_it_does_nothing(self, tmp_path, capsys, command):
        assert run_cli(command, "--out", str(tmp_path), "--threads", "2") == 3
        assert capsys.readouterr().err == "error: --threads applies to run and export-maps\n"

    def test_timestamp_field_present_by_default(self, tmp_path):
        run_cli("run", *small_args(tmp_path))
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert "timestamp" in doc

    def test_calibrated_mask_plan(self, tmp_path):
        rc = run_cli("run", *small_args(tmp_path),
                     "--set", "mask.kind=calibrate", "--set", "mask.candidates=[1,2,4]")
        assert rc == 0
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        cal = doc["sparsity"]["calibration"]
        assert len(cal) == 2 and all(c["radius"] in (1, 2, 4) for c in cal)

    def test_params_bundle_substitutes_block(self, tmp_path):
        from salad.numerics import Rng
        from salad.tensor_io import write_params
        from salad.workload import make_params

        cfg = load_config(None, ["grid.frames=2", "grid.height=2", "grid.width=2",
                                 "grid.heads=2", "grid.head_dim=4"])
        params = make_params(cfg, Rng(123))
        params.gate_activation = "constant"
        params.gate_constant = 0.125
        write_params(params, tmp_path / "fixed.sldp")
        rc = run_cli("run", *small_args(tmp_path),
                     "--set", f'block.params_bundle="{tmp_path / "fixed.sldp"}"')
        assert rc == 0
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        gates = {rec["gate"] for rec in doc["gates"]["records"]}
        assert gates == {0.125}

    def test_explicit_plan_from_file(self, tmp_path):
        from conftest import write_plan
        from salad.checks import build_window_mask
        from salad.masking import Explicit, MaskPlan, Window

        n = 8
        mask = build_window_mask(n, 2)
        write_plan(MaskPlan([Window(radius=3), Explicit(mask)]), tmp_path / "plan.json")
        rc = run_cli("run", *small_args(tmp_path),
                     "--set", "mask.kind=explicit",
                     "--set", f'mask.plan_path="{tmp_path / "plan.json"}"')
        assert rc == 0
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        per_head = doc["sparsity"]["per_head"]
        assert per_head[1]["attended_pairs"] == float(mask.sum())

    def test_topk_run_and_drop_strategy(self, tmp_path):
        rc = run_cli("run", *small_args(tmp_path),
                     "--set", "mask.kind=topk", "--set", "mask.block_size=2",
                     "--set", "mask.k=2", "--set", "drop.strategy=interval")
        assert rc == 0
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["drop_plan"]["preferred"] is True
        assert doc["drop_plan"]["speedup_estimate"] >= doc["speedup_estimate"]


class TestExitCodes:
    def test_config_error_is_3(self, tmp_path, capsys):
        assert run_cli("run", "--set", "mask.kind=nonsense", "--out", str(tmp_path)) == 3
        assert "mask.kind" in capsys.readouterr().err

    def test_unknown_key_is_3(self, tmp_path):
        assert run_cli("run", "--set", "grid.depth=2", "--out", str(tmp_path)) == 3

    def test_corrupted_bundle_shape_is_3(self, tmp_path, capsys):
        from salad.numerics import Rng
        from salad.tensor_io import write_params
        from salad.workload import make_params

        cfg = load_config(None, ["grid.heads=2", "grid.head_dim=4"])
        params = make_params(cfg, Rng(0))
        params.proj = np.zeros((3, 3))  # wrong shape for H=8
        write_params(params, tmp_path / "bad.sldp")
        rc = run_cli("check", "--set", f'block.params_bundle="{tmp_path / "bad.sldp"}"',
                     "--set", "grid.heads=2", "--set", "grid.head_dim=4",
                     "--out", str(tmp_path))
        assert rc == 3
        assert "proj" in capsys.readouterr().err

    def test_unwritable_out_is_2(self, tmp_path):
        blocker = tmp_path / "file.txt"
        blocker.write_text("x")
        rc = run_cli("gen", "--out", str(blocker / "sub"),
                     "--set", "layers=1", "--set", "timesteps=1")
        assert rc == 2

    def test_unknown_check_is_3(self, tmp_path):
        assert run_cli("check", "--only", "bogus", "--out", str(tmp_path)) == 3

    @pytest.mark.parametrize("only", ["bogus", "param_count"])
    def test_list_with_only_is_3(self, capsys, only):
        assert run_cli("check", "--list", "--only", only) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "takes no --only" in captured.err

    @pytest.mark.parametrize("only", [",", ""])
    def test_only_naming_no_check_is_3(self, tmp_path, capsys, only):
        assert run_cli("check", "--only", only, "--out", str(tmp_path)) == 3
        assert "no check named" in capsys.readouterr().err

    def test_repeated_only_name_is_3(self, tmp_path, capsys):
        assert run_cli("check", "--only", "param_count,percentiles,param_count",
                       "--out", str(tmp_path)) == 3
        assert "'param_count' is named more than once" in capsys.readouterr().err

    def test_missing_reports_is_3(self, tmp_path):
        assert run_cli("analyze", "--out", str(tmp_path)) == 3


class TestCheckCommand:
    def test_only_subset_passes(self, tmp_path, capsys):
        rc = run_cli("check", "--only", "param_count,percentiles,topk",
                     "--out", str(tmp_path))
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("[PASS]") == 3 and "all 3 checks passed" in out

    def test_list_names(self, tmp_path, capsys):
        """The registry's order and names; perfbench keys its per-check
        metrics on them."""
        assert run_cli("check", "--list") == 0
        assert capsys.readouterr().out.split() == [
            "linear_oracle", "sparse_oracle", "composition", "permutation", "zero_init",
            "gate", "rope", "topk", "calibration", "window_counts", "drop_pipeline",
            "param_count", "percentiles", "gradcheck", "determinism"]

    def test_direct_call_reads_the_shared_clock(self, monkeypatch):
        from salad import checks

        ticks = itertools.count(0.0, 0.25)
        monkeypatch.setattr(checks, "monotonic", lambda: next(ticks))
        assert checks.check_param_count().elapsed_s == 0.25

    @pytest.mark.parametrize("name, attr, fake, line", [
        ("param_count", "added_param_count", lambda *a, **k: -1,
         "[FAIL] param_count: shared 0 / proj H*D / proj+gate H*D + D + 1 bias / non-shared 4*H*D"),
        ("percentiles", "percentile", lambda values, q: 0.5,
         "[FAIL] percentiles: 4-sample 20th percentile 0.5 not between 0.1 and 0.2; "
         "interpolated percentile mismatch"),
    ])
    def test_fail_line_details(self, monkeypatch, name, attr, fake, line):
        """A tolerance check fails with its summary; any other check with
        its failures joined by "; "."""
        from salad import checks

        monkeypatch.setattr(checks, attr, fake)
        result, = checks.run_checks([name])
        assert not result.passed
        assert result.line().rsplit(" (", 1)[0] == line

    def test_failing_check_exits_4(self, tmp_path, capsys, monkeypatch):
        from salad import checks as checks_mod
        from salad.checks import CheckResult

        fake = dict(checks_mod.ALL_CHECKS)
        fake["always_red"] = lambda: CheckResult("always_red", False, 1.0, "synthetic failure")
        monkeypatch.setattr(checks_mod, "ALL_CHECKS", fake)
        rc = run_cli("check", "--only", "param_count,always_red", "--out", str(tmp_path))
        assert rc == 4
        captured = capsys.readouterr()
        assert "[FAIL] always_red" in captured.out
        assert "1 of 2 checks failed" in captured.err


def check_config_error():
    raise ConfigError("synthetic check error")


def check_type_error():
    raise TypeError("synthetic type error")


def check_dies():
    os._exit(1)


def check_dies_too():
    os._exit(1)


def check_slow():
    time.sleep(1.0)
    return [], None


PARAM_COUNT_PASS = ("[PASS] param_count: shared 0 / proj H*D / proj+gate H*D + D + 1 bias / "
                    "non-shared 4*H*D")
CONFIG_ERROR_FAIL = "[FAIL] config_error: raised ConfigError: synthetic check error"
TYPE_ERROR_FAIL = "[FAIL] type_error: raised TypeError: synthetic type error"


class TestCheckDispatch:
    """``run_checks`` runs one check in the caller and the rest on a forked
    pool sized by the usable CPUs; what ``salad check`` prints and exits
    with does not depend on that count."""

    #: Out of registration order, so the named order is what is printed.
    NAMES = "percentiles,rope,param_count,zero_init,drop_pipeline"

    @pytest.fixture
    def registry(self, monkeypatch):
        """Register oracles through ``_check``, as the package registers its
        own, each under its name less ``check_``; forked workers inherit them."""
        from salad import checks

        def add(*oracles):
            monkeypatch.setattr(checks, "ALL_CHECKS", dict(checks.ALL_CHECKS))
            for oracle in oracles:
                checks._check(oracle.__name__.removeprefix("check_"), "synthetic")(oracle)
        return add

    @staticmethod
    def cpus(monkeypatch, n):
        from salad import checks

        monkeypatch.setattr(checks, "_usable_cpus", lambda: n)

    @staticmethod
    def check(tmp_path, capsys, only):
        """Exit code, verdict lines less their times, and stderr of one
        ``salad check --only``; no child process is left behind."""
        code = run_cli("check", "--only", only, "--out", str(tmp_path))
        captured = capsys.readouterr()
        assert multiprocessing.active_children() == []
        return code, re.sub(r" \(\d+\.\d+s\)$", "", captured.out, flags=re.MULTILINE), captured.err

    def test_verdicts_do_not_depend_on_the_cpu_count(self, tmp_path, capsys, monkeypatch):
        printed = {}
        for n in (1, 2, 4):
            self.cpus(monkeypatch, n)
            code, printed[n], _ = self.check(tmp_path, capsys, self.NAMES)
            assert code == 0
        assert printed[1] == printed[2] == printed[4]
        assert [line.split(":")[0] for line in printed[1].splitlines()[:-1]] == [
            f"[PASS] {name}" for name in self.NAMES.split(",")]

    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("only, lines", [
        ("config_error,param_count,type_error",
         [CONFIG_ERROR_FAIL, PARAM_COUNT_PASS, TYPE_ERROR_FAIL]),
        ("type_error,param_count,config_error",
         [TYPE_ERROR_FAIL, PARAM_COUNT_PASS, CONFIG_ERROR_FAIL]),
    ], ids=["config_error_in_caller", "type_error_in_caller"])
    def test_raised_check_prints_fail_and_exits_4(self, tmp_path, capsys, monkeypatch, registry,
                                                  n, only, lines):
        """A check that raises, a package error or any other, in the caller
        or in a worker, prints one FAIL line naming the exception, in the
        named order, and hides no other verdict."""
        registry(check_config_error, check_type_error)
        self.cpus(monkeypatch, n)
        assert self.check(tmp_path, capsys, only) == (
            4, "\n".join(lines) + "\n", "2 of 3 checks failed\n")

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("only, lines", [
        ("param_count,dies", [PARAM_COUNT_PASS, "[FAIL] dies: lost: a worker process died"]),
        ("config_error,dies", [CONFIG_ERROR_FAIL, "[FAIL] dies: lost: a worker process died"]),
        ("type_error,dies,dies_too", [TYPE_ERROR_FAIL, "[FAIL] dies: lost: a worker process died",
                                      "[FAIL] dies_too: lost: a worker process died"]),
    ], ids=["beside_a_pass", "beside_a_config_error", "two_workers_die"])
    def test_worker_death_prints_fail_and_exits_4(self, tmp_path, capsys, monkeypatch, registry,
                                                  n, only, lines):
        """A check whose worker process dies prints one FAIL line saying it
        was lost, beside the caller's verdict. A check that kills the
        caller kills ``salad check`` itself, so deaths run only in workers,
        and one CPU runs no worker."""
        registry(check_config_error, check_type_error, check_dies, check_dies_too)
        self.cpus(monkeypatch, n)
        failed = sum(line.startswith("[FAIL]") for line in lines)
        assert self.check(tmp_path, capsys, only) == (
            4, "\n".join(lines) + "\n", f"{failed} of {len(lines)} checks failed\n")

    def test_a_dying_check_loses_no_healthy_verdict(self, tmp_path, capsys, monkeypatch,
                                                    registry):
        """At 2 CPUs ``slow`` and ``dies`` share the pool. When ``dies`` kills
        its worker the pool stops, and ``slow`` is lost with it; each lost
        check then runs alone, so ``slow`` prints its own PASS and only
        ``dies`` is lost."""
        registry(check_slow, check_dies)
        self.cpus(monkeypatch, 2)
        assert self.check(tmp_path, capsys, "param_count,slow,dies") == (
            4, f"{PARAM_COUNT_PASS}\n[PASS] slow: synthetic\n"
               "[FAIL] dies: lost: a worker process died\n", "1 of 3 checks failed\n")

    def test_brute_force_oracles_print_their_verdicts_through_the_pool(self, tmp_path, capsys,
                                                                        monkeypatch):
        """The caller runs ``window_counts`` and a one-worker pool ``topk``."""
        self.cpus(monkeypatch, 2)
        assert self.check(tmp_path, capsys, "window_counts,topk")[:2] == (0, (
            "[PASS] window_counts: max_err=3.480e-04 closed form == exhaustive for N<=512; "
            "10% density reports sparsity 0.90\n"
            "[PASS] topk: max_err=0.000e+00 brute-force ranking on 100 instances; "
            "k=all is full attention; default k=4\n"
            "all 2 checks passed\n"))

    def test_gradient_oracle_runs_in_the_calling_process(self, monkeypatch):
        """Perfbench traces only the calling process, so its per-layer
        gradient metrics for ``check_suite`` need ``gradcheck`` there."""
        from salad import checks

        pids = []
        real = checks.gradcheck_salad

        def recorded(*args, **kwargs):
            pids.append(os.getpid())
            return real(*args, **kwargs)

        monkeypatch.setattr(checks, "gradcheck_salad", recorded)
        self.cpus(monkeypatch, 4)
        results = checks.run_checks(["param_count", "gradcheck", "percentiles"])
        assert [r.name for r in results] == ["param_count", "gradients", "percentiles"]
        assert all(r.passed for r in results)
        assert pids == [os.getpid()] * 2


@pytest.mark.parametrize("command", ["run", "check", "export-maps"])
def test_stack_kernel_fallback_is_noted_on_stderr_only(tmp_path, capsys, monkeypatch, command):
    from salad import numerics

    args = {"check": ["check", "--only", "param_count,percentiles"],
            "run": ["run", *small_args(tmp_path), "--no-timestamp"],
            "export-maps": ["export-maps", *small_args(tmp_path)]}[command]
    assert run_cli(*args) == 0
    fused = capsys.readouterr()
    report = (tmp_path / "out" / "report.json").read_bytes() if command == "run" else None
    assert "stack kernel" not in fused.err

    monkeypatch.setattr(numerics, "BLOCK_KERNEL", numerics.stacked_block)
    assert run_cli(*args) == 0
    stacked = capsys.readouterr()
    times = re.compile(r" \(\d+\.\d+s\)$", re.MULTILINE)  # a pause changes a check's time
    assert times.sub("", stacked.out) == times.sub("", fused.out)
    notes = [line for line in stacked.err.splitlines() if "stack kernel" in line]
    assert len(notes) == 1 and np.__version__ in notes[0]
    if command == "run":
        assert (tmp_path / "out" / "report.json").read_bytes() == report


@pytest.mark.parametrize("probe", ["column_major", "row_sum", "row_sum_topk", "row_sum_check",
                                   "row_sum_maps"])
def test_probe_fallbacks_are_noted_on_stderr_only(tmp_path, capsys, monkeypatch, probe):
    """A run whose fused kernel fails the column-major probe, or whose
    window lists scatter their row sums, says so in one stderr line; stdout
    and the report are the same. The row-sum note does not depend on the
    plan, so a top-k run notes it too, and so does a check whose window
    lists are built only in a forked worker, and a map export."""
    from salad import masking, numerics

    topk = ["--set", "mask.kind=topk", "--set", "mask.block_size=2", "--set", "mask.k=2"]
    args = ["run", *small_args(tmp_path, "out", *(topk if probe == "row_sum_topk" else [])),
            "--no-timestamp"]
    if probe == "row_sum_check":  # the caller runs param_count, a worker the window oracle
        args = ["check", "--only", "param_count,sparse_oracle"]
    elif probe == "row_sum_maps":
        args = ["export-maps", *small_args(tmp_path)]
    assert run_cli(*args) == 0
    probed = capsys.readouterr()
    report = (tmp_path / "out" / "report.json").read_bytes() if args[0] == "run" else None
    assert "probe" not in probed.err
    if probe == "column_major":
        monkeypatch.setattr(numerics, "FUSED_COLUMN_MAJOR", False)
    else:
        monkeypatch.setattr(masking, "WINDOW_ROW_SUMS", False)
    assert run_cli(*args) == 0
    fallen = capsys.readouterr()
    times = re.compile(r" \(\d+\.\d+s\)$", re.MULTILINE)  # a check line's time
    assert times.sub("", fallen.out) == times.sub("", probed.out)
    notes = fallen.err.splitlines()
    phrase = "row-major blocks" if probe == "column_major" else "scatter their row sums"
    assert len(notes) == 1 and phrase in notes[0] and np.__version__ in notes[0]
    if report is not None:
        assert (tmp_path / "out" / "report.json").read_bytes() == report


class TestAnalyze:
    def test_outputs(self, tmp_path, capsys):
        run_cli("run", *small_args(tmp_path, "r"), "--no-timestamp")
        rc = run_cli("analyze", "--report", str(tmp_path / "r" / "report.json"),
                     "--out", str(tmp_path / "a"))
        assert rc == 0
        summary = json.loads((tmp_path / "a" / "analysis.json").read_text())
        assert {p["strategy"] for p in summary["drop_plans"]} == {"interval", "random", "threshold"}
        pref = [p for p in summary["drop_plans"] if p["preferred"]]
        assert len(pref) == 1 and pref[0]["params"] == {"lo": 0.8, "hi": 1.0}
        gates_csv = (tmp_path / "a" / "gates.csv").read_text().splitlines()
        assert gates_csv[0] == "layer,timestep,gate" and len(gates_csv) == 1 + 2 * 2
        pct_csv = (tmp_path / "a" / "percentiles.csv").read_text().splitlines()
        assert pct_csv[0] == "timestep,q20,q40,q60,q80"

    def test_single_record_percentiles_collapse(self, tmp_path):
        run_cli("run", *small_args(tmp_path, "r"), "--set", "layers=1",
                "--set", "timesteps=1", "--no-timestamp")
        rc = run_cli("analyze", "--report", str(tmp_path / "r" / "report.json"),
                     "--out", str(tmp_path / "a"))
        assert rc == 0
        summary = json.loads((tmp_path / "a" / "analysis.json").read_text())
        row = summary["percentiles"]["per_timestep"][0]["values"]
        assert len(set(row)) == 1  # one gate record: every percentile equals it


def set_path(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = value


def drop_path(doc, path):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    del doc[last]


#: Case name -> edit of a valid report document (a function), or the raw
#: bytes to write instead of it.
BAD_REPORTS = {
    "flops_empty": lambda doc: set_path(doc, ["flops"], {}),
    "full_total_string": lambda doc: set_path(doc, ["flops", "full_total"], "512"),
    "per_layer_empty": lambda doc: set_path(doc, ["flops", "per_layer"], []),
    "per_layer_row_without_sparse": lambda doc: drop_path(doc, ["flops", "per_layer", 0, "sparse"]),
    "per_layer_row_zero_sparse": lambda doc: set_path(doc, ["flops", "per_layer", 0, "sparse"], 0),
    "gate_without_timestep": lambda doc: drop_path(doc, ["gates", "records", 0, "timestep"]),
    "gates_list": lambda doc: set_path(doc, ["gates"], []),
    "gate_string": lambda doc: set_path(doc, ["gates", "records", 0, "gate"], "0.5"),
    "gate_bool_layer": lambda doc: set_path(doc, ["gates", "records", 0, "layer"], True),
    "speedup_nan": lambda doc: set_path(doc, ["speedup_estimate"], float("nan")),
    "full_total_past_float": lambda doc: set_path(doc, ["flops", "full_total"], 10**400),
    "not_an_object": lambda doc: [doc],
    "config_empty": lambda doc: set_path(doc, ["config"], {}),
    "per_layer_repeated_layer": lambda doc: set_path(doc, ["flops", "per_layer", 1, "layer"], 0),
    "per_layer_missing_layer": lambda doc: doc["flops"]["per_layer"].pop(),
    "gate_layer_past_end": lambda doc: set_path(doc, ["gates", "records", 0, "layer"], 2),
    "non_utf8": b'{"config": "\xff"}',
}


@pytest.mark.parametrize("case", sorted(BAD_REPORTS))
def test_bad_report_analyze_exits_3_without_traceback(tmp_path, capsys, case):
    assert run_cli("run", *small_args(tmp_path, "r"), "--no-timestamp") == 0
    path = tmp_path / "r" / "report.json"
    edit = BAD_REPORTS[case]
    if isinstance(edit, bytes):
        path.write_bytes(edit)
    else:
        doc = json.loads(path.read_text())
        doc = edit(doc) or doc
        path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("analyze", "--report", str(path), "--out", str(tmp_path / "a")) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


#: Case name -> an ``analysis.strategies`` value that ``analyze`` must refuse.
BAD_STRATEGIES = {
    "entry_without_strategy": [{}],
    "interval_unknown_key": [{"strategy": "interval", "x": 1}],
    "interval_string_bound": [{"strategy": "interval", "lo": "a"}],
    "threshold_key_of_random": [{"strategy": "threshold", "fraction": 0.5}],
    "random_float_seed": [{"strategy": "random", "seed": 1.5}],
    "random_negative_seed": [{"strategy": "random", "seed": -1}],
    "random_bool_fraction": [{"strategy": "random", "fraction": True}],
    "strategy_not_a_string": [{"strategy": ["interval"]}],
}


@pytest.mark.parametrize("case", sorted(BAD_STRATEGIES))
def test_bad_strategies_analyze_exits_3_without_traceback(tmp_path, capsys, case):
    assert run_cli("run", *small_args(tmp_path, "r"), "--no-timestamp") == 0
    capsys.readouterr()
    args = ["--report", str(tmp_path / "r" / "report.json"), "--out", str(tmp_path / "a"),
            "--set", f"analysis.strategies={json.dumps(BAD_STRATEGIES[case])}"]
    assert run_cli("analyze", *args) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


class TestExportMaps:
    def test_files_written(self, tmp_path):
        rc = run_cli("export-maps", *small_args(tmp_path),
                     "--set", "maps.head=1", "--set", "maps.layer=1")
        assert rc == 0
        maps = sorted(p.name for p in (tmp_path / "out" / "maps").iterdir())
        assert maps == ["l1_t0_linear_h1.csv", "l1_t0_linear_h1.pgm",
                        "l1_t0_sparse_h1.csv", "l1_t0_sparse_h1.pgm"]


PLAN_HEADER = {"format": "salad-plan", "version": 1}
WINDOW_TWO = {"head": 1, "kind": "window", "radius": 2}


def plan_records(first: dict) -> list[dict]:
    return [first, WINDOW_TWO]


BAD_RECORDS = {
    "missing_radius": {"head": 0, "kind": "window"},
    "string_radius": {"head": 0, "kind": "window", "radius": "2"},
    "float_radius": {"head": 0, "kind": "window", "radius": 2.7},
}


def edited_bundle(edit, *overrides) -> bytes:
    """A parameter bundle for the ``small_args`` grid and config
    ``overrides`` with its JSON header passed through ``edit``. The payload
    then holds, for each matrix the header lists, as many of its leading
    values as its listed shape holds, so only the header is at fault."""
    from salad.numerics import Rng
    from salad.tensor_io import params_to_bytes
    from salad.workload import make_params

    cfg = load_config(None, ["grid.heads=2", "grid.head_dim=4", *overrides])
    params = make_params(cfg, Rng(0))
    raw = params_to_bytes(params)
    header = json.loads(raw[:raw.index(b"\n")])
    edit(header)
    payload = b"".join(
        params.param(name).ravel()[:max(int(np.prod(header["shapes"][name])), 0)].astype("<f8").tobytes()
        for name in header["matrices"])
    return json.dumps(header).encode() + b"\n" + payload


def edited_workload(edit, layers=2, timesteps=5) -> dict:
    """The files of a generated workload for the ``small_args`` grid, with
    its manifest passed through ``edit``."""
    from salad.tensor_io import params_to_bytes, tensor_to_bytes
    from salad.workload import generate_workload

    cfg = load_config(None, ["grid.frames=2", "grid.height=2", "grid.width=2", "grid.heads=2",
                             "grid.head_dim=4", f"layers={layers}", f"timesteps={timesteps}"])
    work = generate_workload(cfg)
    files = {"inputs.stns": tensor_to_bytes(work.inputs)}
    files.update({f"params_l{i}.sldp": params_to_bytes(p) for i, p in enumerate(work.params)})
    manifest = {"format": "salad-workload", "version": 1, "inputs": "inputs.stns",
                "params": [f"params_l{i}.sldp" for i in range(layers)]}
    edit(manifest)
    return {**files, "manifest.json": json.dumps(manifest)}


def report_pair(*overrides) -> dict:
    """Two saved one-timestep reports for the ``small_args`` grid, the
    second run under config ``overrides`` too, as ``a.json`` and ``b.json``."""
    from salad.runner import run_pipeline
    from salad.tensor_io import dumps_json, record_to_dict

    base = ["grid.frames=2", "grid.height=2", "grid.width=2", "grid.heads=2", "grid.head_dim=4",
            "layers=2", "timesteps=1"]
    return {name: dumps_json(record_to_dict(run_pipeline(load_config(None, [*base, *extra]))))
            for name, extra in (("a.json", []), ("b.json", overrides))}


#: Case name -> ``run`` arguments whose drop section breaks its strategy's bounds.
BAD_DROP_SECTIONS = {
    "drop_interval_lo_above_hi": (["--set", "drop.strategy=interval", "--set", "drop.lo=0.9",
                                   "--set", "drop.hi=0.1"], {}),
    "drop_random_fraction_two": (["--set", "drop.strategy=random", "--set", "drop.fraction=2"], {}),
    "drop_random_seed_negative": (["--set", "drop.strategy=random", "--set", "drop.seed=-1"], {}),
    "drop_random_seed_past_u64": (["--set", "drop.strategy=random",
                                   "--set", "drop.seed=18446744073709551616"], {}),
    "drop_interval_bad_keys_of_other_strategies": (["--set", "drop.strategy=interval", "--set",
                                                    "drop.fraction=5", "--set", "drop.tau=-3"], {}),
    "drop_none_lo_two": (["--set", "drop.strategy=none", "--set", "drop.lo=2"], {}),
}
PLAN_ARGS = ["--set", "mask.kind=explicit", "--set", 'mask.plan_path="{tmp}/plan.json"']
WORKLOAD_ARGS = ["--set", 'workload_dir="{tmp}"']
BUNDLE_ARGS = ["--set", 'block.params_bundle="{tmp}/bundle.sldp"']


def exit_three_cases():
    """Case name -> (extra arguments, files to write first), plus the
    subcommand where it is not ``run``. File names are relative to the
    test's temporary directory, which the arguments spell "{tmp}"."""
    cases = {
        **{f"threads_with_{command}": (["--threads", "2"], {}, command)
           for command in ("gen", "check", "analyze")},
        "layers_abc": (["--set", "layers=abc"], {}),
        "heads_x": (["--set", "grid.heads=x"], {}),
        "seed_above_u64": (["--set", "seed=18446744073709551621"], {}),
        "sigma_overflow": (["--set", "sigma.values=[1e200,1,1,1,1]"], {}),
        "gradcheck_norm_overflow": (["--set", "checks.gradcheck_in_run=true",
                                     "--set", "sigma.max=1e100"], {}),
        "sigma_max_zero": (["--set", "sigma.max=0"], {}),
        "sigma_max_negative": (["--set", "sigma.max=-1"], {}),
        "calibrate_negative_candidate": (["--set", "mask.kind=calibrate",
                                          "--set", "mask.candidates=[-1]"], {}),
        "rank_rel_tol_zero": (["--set", "analysis.rank_rel_tol=0"], {}),
        "rank_rel_tol_two": (["--set", "analysis.rank_rel_tol=2"], {}),
        "drop_layer_past_end": (["--set", "drop.strategy=explicit", "--set", "drop.layers=[99]"], {}),
        "drop_layer_negative": (["--set", "drop.strategy=explicit", "--set", "drop.layers=[-1]"], {}),
        **BAD_DROP_SECTIONS,
        "plan_without_heads": (PLAN_ARGS, {"plan.json": json.dumps(PLAN_HEADER)}),
        "plan_not_json": (PLAN_ARGS, {"plan.json": "{not json"}),
        "manifest_not_json": (WORKLOAD_ARGS, {"manifest.json": "{not json"}),
        "manifest_without_inputs": (WORKLOAD_ARGS, {"manifest.json": json.dumps(
            {"format": "salad-workload", "params": ["params_l0.sldp"]})}),
        "bundle_without_flag": (BUNDLE_ARGS, {"bundle.sldp": edited_bundle(
            lambda h: h.pop("gate_constant"))}),
        "bundle_negative_extent": (BUNDLE_ARGS, {"bundle.sldp": edited_bundle(
            lambda h: h["shapes"].update(w_q=[-8, -8]))}),
        "bundle_scalar_gate_b": (BUNDLE_ARGS, {"bundle.sldp": edited_bundle(
            lambda h: h["shapes"].update(gate_b=[]))}),
        "bundle_empty_gate_b": (BUNDLE_ARGS, {"bundle.sldp": edited_bundle(
            lambda h: h["shapes"].update(gate_b=[0]))}),
        "bundle_without_w_q": (BUNDLE_ARGS, {"bundle.sldp": edited_bundle(
            lambda h: h["matrices"].remove("w_q"))}),
        "bundle_without_lora_factors": (BUNDLE_ARGS, {"bundle.sldp": edited_bundle(
            lambda h: h.update(lora={"q": {"rank": 2, "scale": 0.5}}))}),
        "bundle_lora_not_object": (BUNDLE_ARGS, {"bundle.sldp": edited_bundle(
            lambda h: h.update(lora=["q"]))}),
        "mask_delta_infinity": (["--set", "mask.delta=Infinity"], {}),
        "rope_base_infinity": (["--set", "rope.base=Infinity"], {}),
        "rope_split_short_of_head_dim": (["--set", "rope.split=[2,2,2]"], {}),
        "drop_tau_nan": (["--set", "drop.tau=NaN"], {}),
        "config_not_utf8": (["--config", "{tmp}/config.json"], {"config.json": b'{"seed": "\xff"}'}),
        "config_file_number_past_float": (["--config", "{tmp}/config.json"], {
            "config.json": '{"mask": {"per_head": [{"kind": "window", "radius": 1e999}]}}'}),
        "config_file_nested_too_deep": (["--config", "{tmp}/config.json"], {
            "config.json": '{"mask": ' + "[" * 100_000 + "]" * 100_000 + "}"}),
        "per_head_nested_too_deep": (["--set", "mask.per_head=" + "[" * 100_000 + "]" * 100_000], {}),
        "per_head_nan_in_ignored_key": (["--set", 'mask.per_head=[{"kind": "window", "x": NaN}]'], {}),
        "plan_not_utf8": (PLAN_ARGS, {"plan.json": b'{"format": "salad-plan\xff"}'}),
        "bundle_lambda_string": (BUNDLE_ARGS, {"bundle.sldp": edited_bundle(
            lambda h: h.update(lambda_override="x"))}),
        "bundle_gate_constant_string": (BUNDLE_ARGS, {"bundle.sldp": edited_bundle(
            lambda h: h.update(gate_activation="constant", gate_constant="abc"))}),
        "bundle_lora_scale_string": (BUNDLE_ARGS, {"bundle.sldp": edited_bundle(
            lambda h: h["lora"]["q"].update(scale="x"), "block.lora_rank=2")}),
        "bundle_dropped_string": (BUNDLE_ARGS, {"bundle.sldp": edited_bundle(
            lambda h: h.update(dropped="no"))}),
        "bundle_gate_detached_int": (BUNDLE_ARGS, {"bundle.sldp": edited_bundle(
            lambda h: h.update(gate_detached=1))}),
        "bundle_version_2": (BUNDLE_ARGS, {"bundle.sldp": edited_bundle(
            lambda h: h.update(version=2))}),
        "plan_version_2": (PLAN_ARGS, {"plan.json": json.dumps(
            {**PLAN_HEADER, "version": 2, "heads": plan_records({**WINDOW_TWO, "head": 0})})}),
        "manifest_version_2": (WORKLOAD_ARGS, edited_workload(lambda m: m.update(version=2))),
        # The same N and D as the config's grid, but 4 heads of 2 on 1x2x4.
        "manifest_of_another_grid": (WORKLOAD_ARGS, edited_workload(lambda m: m.update(grid={
            "frames": 1, "height": 2, "width": 4, "heads": 4, "head_dim": 2}))),
        **{f"analyze_reports_of_other_{what}": (
            ["--report", "{tmp}/a.json", "--report", "{tmp}/b.json"], report_pair(override),
            "analyze") for what, override in (("layers", "layers=3"), ("grids", "grid.frames=4"))},
        **{f"maps_{key}_out_of_range": (["--set", f"maps.{key}=9"], {}, "export-maps")
           for key in ("layer", "timestep", "head")},
        "rank_timestep_out_of_range": (["--set", "analysis.rank_timestep=9"], {}),
        "per_head_one_entry_for_two_heads": (["--set", "mask.kind=per_head", "--set",
                                              'mask.per_head=[{"kind": "window", "radius": 1}]'], {}),
        "explicit_without_plan_path": (["--set", "mask.kind=explicit"], {}),
        "set_key_empty_segment": (["--set", ".a=1"], {}),
        "set_path_through_a_number": (["--set", "layers.x=1"], {}),
        "grid_frames_zero": (["--set", "grid.frames=0"], {}),
        "mask_radius_negative": (["--set", "mask.radius=-1"], {}),
        **{f"topk_{key}_zero": (["--set", "mask.kind=topk", "--set", f"mask.{key}=0"], {})
           for key in ("block_size", "k")},
        "sidecar_rows_past_payload": (PLAN_ARGS, {
            "plan.json": json.dumps({**PLAN_HEADER, "heads": plan_records(
                {"head": 0, "kind": "explicit", "sidecar": "m.smsk"})}),
            "m.smsk": b"SMSK\x01\x00" + (1 << 31).to_bytes(4, "little") + bytes(8)}),
    }
    for name, rec in BAD_RECORDS.items():
        per_head = json.dumps(plan_records(rec))
        cases[f"per_head_{name}"] = (["--set", "mask.kind=per_head",
                                      "--set", f"mask.per_head={per_head}"], {})
        cases[f"plan_{name}"] = (PLAN_ARGS, {"plan.json": json.dumps(
            {**PLAN_HEADER, "heads": plan_records(rec)})})
    return cases


EXIT_THREE = exit_three_cases()
#: Inputs that overflow end in a NumericError (exit 3); numpy warns first.
QUIET_OVERFLOW = pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                            "ignore:invalid:RuntimeWarning")


@QUIET_OVERFLOW
@pytest.mark.parametrize("case", sorted(EXIT_THREE))
def test_bad_input_exits_3_without_traceback(tmp_path, capsys, case):
    args, files, *command = EXIT_THREE[case]
    for name, content in files.items():
        if isinstance(content, bytes):
            (tmp_path / name).write_bytes(content)
        else:
            (tmp_path / name).write_text(content)
    args = [arg.replace("{tmp}", str(tmp_path)) for arg in args]
    assert run_cli(*command or ["run"], *small_args(tmp_path), "--set", "timesteps=5", *args) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_inputs_of_another_shape_are_refused_naming_their_files(tmp_path, capsys):
    """A workload generated for 4x4x4 with 2 heads of 8 does not run under
    2x8x4 with 4 heads of 4, though N and D agree; and ``analyze`` does
    not pool reports of different layer counts and grids."""
    workload = tmp_path / "w"
    assert run_cli("gen", "--out", str(workload)) == 0
    capsys.readouterr()
    assert run_cli("run", "--out", str(tmp_path / "r"), "--set", f'workload_dir="{workload}"',
                   "--set", "grid.frames=2", "--set", "grid.height=8",
                   "--set", "grid.heads=4", "--set", "grid.head_dim=4") == 3
    assert capsys.readouterr().err.startswith(
        f"error: workload manifest {workload / 'manifest.json'} was written for grid ")
    for name, text in report_pair("layers=3", "grid.frames=4").items():
        (tmp_path / name).write_text(text)
    assert run_cli("analyze", "--report", str(tmp_path / "a.json"), "--report",
                   str(tmp_path / "b.json"), "--out", str(tmp_path / "a")) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: report {tmp_path / 'b.json'} ran 3 layers on ")
    assert f"but report {tmp_path / 'a.json'} ran 2 on " in err


def test_missing_workload_manifest_exits_2_without_traceback(tmp_path, capsys):
    """A workload directory without its manifest is a missing input file,
    an I/O error like every other (exit 2)."""
    (tmp_path / "w").mkdir()
    args = small_args(tmp_path, "r", "--set", f'workload_dir="{tmp_path / "w"}"')
    assert run_cli("run", *args) == 2
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and "manifest.json" in err and "Traceback" not in err


@pytest.mark.parametrize("module", ["salad.workload", "salad.runner"])
def test_config_too_large_for_memory_exits_3_without_traceback(tmp_path, capsys, monkeypatch,
                                                                module):
    """A workload too large to allocate is a config error. The allocation
    is simulated: a real one could succeed on a host that overcommits and
    then exhaust its memory."""
    import importlib

    def out_of_memory(cfg):
        raise MemoryError("Unable to allocate 23.8 GiB for an array")

    monkeypatch.setattr(importlib.import_module(module), "generate_workload", out_of_memory)
    command = "gen" if module == "salad.workload" else "run"
    assert run_cli(command, *small_args(tmp_path)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "23.8 GiB" in err and "Traceback" not in err


@pytest.mark.parametrize("maps", [False, True])
@pytest.mark.parametrize("threads", [1, 2])
def test_run_keeps_only_the_records_its_report_reads(tmp_path, monkeypatch, threads, maps):
    """On the default 4x5 run, no forward record is alive when rank
    analysis starts: the rank layer's task returns just its branch
    outputs. No task forward asks for attention weights, and map export
    runs its one head's attention again."""
    from salad import block, runner

    live, ran, lock = set(), [], threading.Lock()
    seen, asked, exported = [], [], []
    forward, rank_analysis = runner.salad_forward, runner.branch_rank_analysis
    export, head_attention = runner.export_attention_maps, block.sparse_head_attention

    def watched_forward(*args, **kwargs):
        out, trace = forward(*args, **kwargs)
        with lock:
            key = len(ran)
            ran.append(key)
            live.add(key)
            asked.append(kwargs.get("weights", args[5] if len(args) > 5 else True))
        weakref.finalize(trace, live.discard, key)
        return out, trace

    def counting_rank_analysis(*args, **kwargs):
        seen.append((len(ran), len(live)))
        return rank_analysis(*args, **kwargs)

    def counting_export(*args, **kwargs):
        exported.append(0)
        return export(*args, **kwargs)

    def counted_head_attention(*args, **kwargs):
        if exported:
            exported[-1] += 1
        return head_attention(*args, **kwargs)

    monkeypatch.setattr(runner, "salad_forward", watched_forward)
    monkeypatch.setattr(runner, "branch_rank_analysis", counting_rank_analysis)
    monkeypatch.setattr(runner, "export_attention_maps", counting_export)
    monkeypatch.setattr(block, "sparse_head_attention", counted_head_attention)
    args = ["--out", str(tmp_path), "--threads", str(threads), "--set", "analysis.rank_layers=[1]",
            "--set", f"maps.export={json.dumps(maps)}"]
    assert run_cli("run", *args) == 0
    assert seen == [(4 * 5, 0)]
    assert len(asked) == 4 * 5 + 1 and not any(asked)  # the tasks and the zero-init check
    assert exported == ([1] if maps else [])


def test_one_thread_runs_the_tasks_without_a_pool(tmp_path, monkeypatch):
    """``--threads 1`` runs every task in the caller, and its report is the
    ``--threads 2`` report."""
    from salad import runner

    assert run_cli("run", *small_args(tmp_path, "pooled"), "--threads", "2", "--no-timestamp") == 0

    def no_pool(*args, **kwargs):
        raise AssertionError("--threads 1 started a pool")

    monkeypatch.setattr(runner, "ThreadPoolExecutor", no_pool)
    assert run_cli("run", *small_args(tmp_path, "inline"), "--threads", "1", "--no-timestamp") == 0
    assert ((tmp_path / "inline" / "report.json").read_bytes()
            == (tmp_path / "pooled" / "report.json").read_bytes())


def test_two_threads_run_the_tasks_on_the_caller_and_one_worker(tmp_path, monkeypatch):
    """At ``--threads 2`` the caller works beside one pool thread: the
    forwards run on exactly those two threads, and the report is the
    ``--threads 1`` report. Each thread's first forward waits for the
    other's, so both take tasks however the threads are scheduled."""
    from salad import runner

    assert run_cli("run", *small_args(tmp_path, "inline"), "--threads", "1", "--no-timestamp") == 0
    idents, lock, both = [], threading.Lock(), threading.Barrier(2, timeout=30)
    forward = runner.salad_forward

    def watched_forward(*args, **kwargs):
        with lock:
            first = threading.get_ident() not in idents
            idents.append(threading.get_ident())
        if first:
            both.wait()
        return forward(*args, **kwargs)

    monkeypatch.setattr(runner, "salad_forward", watched_forward)
    assert run_cli("run", *small_args(tmp_path, "pooled"), "--threads", "2", "--no-timestamp") == 0
    assert threading.get_ident() in idents and len(set(idents)) == 2
    assert ((tmp_path / "inline" / "report.json").read_bytes()
            == (tmp_path / "pooled" / "report.json").read_bytes())


def test_tasks_land_in_order_and_the_first_failure_in_task_order_raises(monkeypatch):
    """Eight threads, switching as often as the interpreter allows, run
    each of 2,000 tasks once and land them in order; a pool is never wider
    than the tasks; and when task 2 fails only after task 5 has failed on
    another thread, task 2's error is the one raised."""
    from salad import runner

    ran = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = runner._run_in_order(lambda i: ran.append(i) or i * i, range(2000), 8)
    finally:
        sys.setswitchinterval(interval)
    assert got == [i * i for i in range(2000)] and sorted(ran) == list(range(2000))

    widths, pool = [], runner.ThreadPoolExecutor
    monkeypatch.setattr(runner, "ThreadPoolExecutor",
                        lambda max_workers: widths.append(max_workers) or pool(max_workers))
    assert runner._run_in_order(lambda i: i, range(3), 8) == [0, 1, 2] and widths == [2]
    five_failed = threading.Event()

    def task(i):
        if i == 2:
            assert five_failed.wait(timeout=30)
        if i == 5:
            five_failed.set()
        if i in (2, 5):
            raise ValueError(i)
        return i

    with pytest.raises(ValueError) as raised:
        runner._run_in_order(task, range(8), 3)
    assert raised.value.args == (2,)


def test_forward_numeric_error_names_its_layer_and_timestep(tmp_path, capsys):
    """Every layer overflows at timestep 0. The error names the first
    failing task in task order, so stderr is the same at 1 and 2 threads."""
    errs = []
    for threads in ("1", "2"):
        assert run_cli("run", "--out", str(tmp_path / threads), "--threads", threads,
                       "--set", "sigma.values=[1e200,1,1,1,1]") == 3
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] == ("error: forward at timestep 0, layer 0: "
                                  "attention scores contains non-finite values\n")


def test_in_run_gradcheck_overflow_names_its_bump(tmp_path, capsys, monkeypatch):
    """A finite-difference bump that overflows inside a stacked forward
    exits 3, naming the parameter, its element and the sign of the step."""
    from salad import gradients

    monkeypatch.setattr(gradients, "FD_STEP", 1e300)
    assert run_cli("run", *small_args(tmp_path), "--set", "checks.gradcheck_in_run=true") == 3
    assert capsys.readouterr().err == ("error: gradcheck at timestep 0, layer 0: finite differences "
                                       "of x, element 0, +1e+300 step: "
                                       "attention scores contains non-finite values\n")


def test_in_run_gradcheck_norm_overflow_names_its_parameter(tmp_path, capsys):
    """At sigma 1e100 the gradients stay finite but the norm of w_v's
    overflows; the report is refused with exit 3, not left unwritable."""
    assert run_cli("run", *small_args(tmp_path), "--set", "checks.gradcheck_in_run=true",
                   "--set", "sigma.max=1e100") == 3
    assert capsys.readouterr().err.startswith("error: gradcheck at timestep 0, layer 0: "
                                              "gradient of w_v has norm inf")


def test_in_run_gradcheck_past_its_budget_is_skipped_with_a_note(tmp_path):
    assert run_cli("run", "--out", str(tmp_path), "--no-timestamp", "--set", "layers=1",
                   "--set", "timesteps=1", "--set", "grid.frames=2", "--set", "grid.height=8",
                   "--set", "grid.width=8", "--set", "grid.heads=1", "--set", "grid.head_dim=8",
                   "--set", "checks.gradcheck_in_run=true") == 0
    section = json.loads((tmp_path / "report.json").read_text())["gradcheck"]
    assert section["run"] is False
    assert section["note"] == "skipped: N=128, head_dim=8 exceeds the N<=64, d<=16 budget"


def run_peak_kib(tmp_path, *overrides):
    """Exit code and peak RSS in KiB of a one-thread ``salad run`` with
    the config ``overrides``, in its own process."""
    args = [sys.executable, "-m", "salad", "run", "--no-timestamp", "--threads", "1",
            "--out", str(tmp_path)]
    for override in overrides:
        args += ["--set", override]
    return peak_rss_kib(*args)


def test_calibrated_run_at_n2048_stays_within_100_mb(tmp_path):
    """A calibrated run at N=2048 peaked at 180 MB when calibration's full
    attention held about five N x N arrays per head and token order."""
    code, peak_kib = run_peak_kib(tmp_path, "mask.kind=calibrate", "grid.frames=8",
                                  "grid.height=16", "grid.width=16", "grid.heads=2",
                                  "grid.head_dim=32", "layers=1", "timesteps=1")
    assert code == 0
    assert peak_kib < 100 * 1024


def test_full_list_run_at_n4096_keeps_no_attention_weights(tmp_path):
    """A full-list run at N=4096 peaked at 316 MB when every task kept its
    two heads' N x N weights, which nothing in a run without maps reads;
    without them it peaks near 60 MB."""
    code, peak_kib = run_peak_kib(tmp_path, "mask.radius=4095", "grid.frames=16",
                                  "grid.height=16", "grid.width=16", "grid.heads=2",
                                  "grid.head_dim=32", "layers=1", "timesteps=1")
    assert code == 0
    assert peak_kib < 158 * 1024


def test_window_run_at_n4096_holds_no_per_pair_row_sum_plan(tmp_path):
    """A window run at N=4096 and r=205 (about 90% sparse) peaked at 202 MB
    when each window list held a row-sum plan of index arrays for every
    pair; summing from the list's spans it peaks near 132 MB."""
    code, peak_kib = run_peak_kib(tmp_path, "mask.radius=205", "grid.frames=16",
                                  "grid.height=16", "grid.width=16", "grid.heads=2",
                                  "grid.head_dim=32", "layers=1", "timesteps=1")
    assert code == 0
    assert peak_kib < 160 * 1024


def one_matrix_rank(x, rel_tol):
    """A branch rank by the one-matrix reference solve and the counting rule."""
    sv = one_matrix_jacobi_singular_values(x)
    return 0 if sv.size == 0 or sv[0] == 0.0 else int(np.sum(sv > rel_tol * sv[0]))


RANK_CASES = {
    "no_rank_layers": ["--set", "analysis.rank_layers=[]"],
    "repeated_layer": ["--set", "analysis.rank_layers=[1,0,1]"],
    "block_dropped": ["--set", "block.dropped=true"],
    "non_shared": ["--set", "block.variant=non_shared"],
    "wide_operands": ["--set", "grid.head_dim=16"],
    "two_threads": ["--threads", "2"],
}


@pytest.mark.parametrize("case", sorted(RANK_CASES))
def test_rank_rows_match_one_matrix_solves_from_one_stacked_call(tmp_path, monkeypatch, case):
    """The report's rank rows equal the rows of solving each branch operand
    alone with the conftest reference, and the run makes one
    singular-value call for all of them (none without rank layers). The
    small grid has N=8, so head_dim 16 makes the operands wide."""
    from salad import numerics, runner

    reference, calls = [], []
    solve, rank_analysis = numerics.jacobi_singular_values, runner.branch_rank_analysis

    def counting_solve(x):
        calls.append(len(x))
        return solve(x)

    def with_reference(traces, grid, rel_tol):
        for layer, trace in traces:
            for head, s in enumerate(head_slices(grid.channels, grid.heads)):
                sparse, linear = (None if out is None else one_matrix_rank(out[:, s], rel_tol)
                                  for out in (trace.o_s, trace.o_l))
                reference.append({"layer": layer, "head": head, "rank_sparse": sparse,
                                  "rank_linear": linear, "head_dim": grid.head_dim})
        return rank_analysis(traces, grid, rel_tol)

    monkeypatch.setattr(numerics, "jacobi_singular_values", counting_solve)
    monkeypatch.setattr(runner, "branch_rank_analysis", with_reference)
    assert run_cli("run", *small_args(tmp_path), *RANK_CASES[case]) == 0
    assert json.loads((tmp_path / "out" / "report.json").read_text())["ranks"] == reference
    linear = sum(row["rank_linear"] is not None for row in reference)
    assert calls == ([len(reference) + linear] if reference else [])
    assert (case == "block_dropped") == (linear == 0 < len(reference))


def test_rank_stage_numeric_error_names_its_operand(tmp_path, capsys, monkeypatch):
    """A rank operand that does not converge exits 3, and the message names
    the rank timestep and the layer, head and branch of the first operand
    that fails, in report row order."""
    from salad import numerics

    monkeypatch.setattr(numerics, "_JACOBI_MAX_SWEEPS", 1)
    assert run_cli("run", *small_args(tmp_path), "--set", "analysis.rank_timestep=1") == 3
    err = capsys.readouterr().err
    assert err == ("error: rank analysis at timestep 1, layer 0, head 0, sparse branch: "
                   "Jacobi sweeps did not converge in 1 sweeps\n")


@pytest.mark.parametrize("overrides,forwards", [
    ([], 4 * 5 + 1),
    (["drop.strategy=explicit", "drop.layers=[0]"], 4 * 5 + 1),
    (["block.dropped=true"], 4 * 5),
], ids=["default", "layer0_dropped", "block_dropped"])
def test_zero_init_check_reuses_the_pooled_forward(tmp_path, monkeypatch, overrides, forwards):
    """The inline zero-init check compares the full block with its
    sparse-only twin on task (layer 0, timestep 0). It reuses the pool's
    output of that task, as the full block or, when the run dropped layer 0,
    as the sparse-only twin, and is not applicable when the bundle itself is
    dropped."""
    from salad import runner

    calls = []
    forward = runner.salad_forward
    monkeypatch.setattr(runner, "salad_forward", lambda *a, **k: calls.append(1) or forward(*a, **k))
    args = ["--out", str(tmp_path)] + [arg for o in overrides for arg in ("--set", o)]
    assert run_cli("run", *args) == 0
    assert len(calls) == forwards
    report = json.loads((tmp_path / "report.json").read_text())
    check = next(c for c in report["oracle_checks"] if c["name"] == "zero_init_equivalence")
    assert check["passed"] is (None if overrides == ["block.dropped=true"] else True)


@pytest.mark.parametrize("case", sorted(BAD_DROP_SECTIONS))
def test_bad_drop_section_exits_3_before_any_forward(tmp_path, capsys, monkeypatch, case):
    """The drop section is checked with the config, not after the pool has
    run every forward."""
    from salad import runner

    calls = []
    forward = runner.salad_forward
    monkeypatch.setattr(runner, "salad_forward", lambda *a, **k: calls.append(1) or forward(*a, **k))
    assert run_cli("run", *small_args(tmp_path), *BAD_DROP_SECTIONS[case][0]) == 3
    assert calls == []
    assert capsys.readouterr().err.startswith("error: drop.")


@pytest.mark.parametrize("command", ["gen", "run"])
def test_rope_split_short_of_head_dim_exits_3_before_any_forward(tmp_path, capsys, monkeypatch,
                                                                 command):
    """A rope split that does not cover head_dim is refused with the config,
    not inside the first forward ``run`` makes after generating its workload."""
    from salad import runner

    calls = []
    forward = runner.salad_forward
    monkeypatch.setattr(runner, "salad_forward", lambda *a, **k: calls.append(1) or forward(*a, **k))
    assert run_cli(command, *small_args(tmp_path), "--set", "rope.split=[2,2,2]") == 3
    assert calls == []
    assert capsys.readouterr().err == "error: rope split covers 6 channels, head_dim is 4\n"


def test_bundle_without_lambda_override_loads_with_none(tmp_path):
    """An absent header key reads as null, and ``lambda_override`` takes null."""
    from salad.tensor_io import params_from_bytes

    raw = edited_bundle(lambda h: h.pop("lambda_override"))
    assert params_from_bytes(raw).lambda_override is None
    (tmp_path / "bundle.sldp").write_bytes(raw)
    args = [arg.replace("{tmp}", str(tmp_path)) for arg in BUNDLE_ARGS]
    assert run_cli("run", *small_args(tmp_path), *args) == 0


def test_plan_file_and_per_head_share_one_record_rule(tmp_path):
    records = [{"head": 0, "kind": "topk", "block_size": 2}, {"head": 1, "kind": "window", "radius": 1}]
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({**PLAN_HEADER, "heads": records}))
    from_file = load_config(None, ["mask.kind=explicit", f'mask.plan_path="{path}"'])
    from_config = load_config(None, ["mask.kind=per_head", f"mask.per_head={json.dumps(records)}"])
    from salad.masking import MaskPlan, TopK, Window

    want = MaskPlan([TopK(block_size=2, k=4), Window(radius=1, reordered=False)])
    assert from_file.static_plan() == from_config.static_plan() == want


#: The values a type-confusion probe puts in place of a declared field.
PROBES = (None, True, 1, 1.5, "x", [], {})


def config_leaves():
    for key, value in RunConfig().to_dict().items():
        if isinstance(value, dict):
            yield from (f"{key}.{leaf}" for leaf in value)
        else:
            yield key


@pytest.mark.parametrize("leaf", sorted(config_leaves()))
def test_config_leaf_type_sweep(leaf):
    refused = 0
    for probe in PROBES:
        try:
            load_config(None, [f"{leaf}={json.dumps(probe)}"])
        except ConfigError:
            refused += 1
    assert refused, f"{leaf} accepted every probe"


#: Sweep document -> the valid document a probe is placed into. Plan
#: documents hold the record under test as head 0.
SWEEP_DOCS = {
    "plan_window": {**PLAN_HEADER, "heads": [
        {"head": 0, "kind": "window", "radius": 1, "reordered": False}, WINDOW_TWO]},
    "plan_topk": {**PLAN_HEADER, "heads": [
        {"head": 0, "kind": "topk", "block_size": 2, "k": 1}, WINDOW_TWO]},
    "plan_explicit": {**PLAN_HEADER, "heads": [
        {"head": 0, "kind": "explicit", "sidecar": "m.smsk"}, WINDOW_TWO]},
    "strategy_interval": {"strategy": "interval", "lo": 0.8, "hi": 1.0},
    "strategy_random": {"strategy": "random", "fraction": 0.2, "seed": 3},
    "strategy_threshold": {"strategy": "threshold", "tau": 0.1},
}

BUNDLE_FLAGS = ["variant", "gate_activation", "gate_constant", "lambda_override", "dropped",
                "gate_detached"]

#: (document, path of the field within it) for every swept field.
SWEPT_FIELDS = [
    *[("plan_window", path) for path in (["format"], ["version"], ["heads"], ["heads", 0, "kind"],
                                         ["heads", 0, "radius"], ["heads", 0, "reordered"])],
    ("plan_topk", ["heads", 0, "block_size"]),
    ("plan_topk", ["heads", 0, "k"]),
    ("plan_explicit", ["heads", 0, "sidecar"]),
    *[("bundle", [key]) for key in ["format", "version", *BUNDLE_FLAGS]],
    ("bundle", ["lora", "q", "rank"]),
    ("bundle", ["lora", "q", "scale"]),
    *[("manifest", [key]) for key in ("format", "version", "inputs", "params")],
    *[("report", path) for path in (
        ["config"], ["speedup_estimate"], ["flops", "full_total"], ["flops", "per_layer", 0, "layer"],
        ["flops", "per_layer", 0, "sparse"], ["gates", "records", 0, "layer"],
        ["gates", "records", 0, "timestep"], ["gates", "records", 0, "gate"])],
    ("strategy_interval", ["strategy"]),
    ("strategy_interval", ["lo"]),
    ("strategy_interval", ["hi"]),
    ("strategy_random", ["fraction"]),
    ("strategy_random", ["seed"]),
    ("strategy_threshold", ["tau"]),
]

#: Fields naming a file beside the document: the probe "x" names a missing
#: file, an I/O error (exit 2).
FILE_NAME_FIELDS = {("plan_explicit", "heads.0.sidecar"), ("manifest", "inputs")}


#: Stands for "no probe": the valid document as it is.
UNPROBED = object()
#: Stands for the probe that deletes the field.
ABSENT = object()


def probe_input(document, path, probe, report):
    """The command, its extra arguments and the files to write for one probe."""
    def place(doc):
        if probe is ABSENT:
            drop_path(doc, path)
        elif probe is not UNPROBED:
            set_path(doc, path, probe)

    if document == "bundle":
        return "run", BUNDLE_ARGS, {"bundle.sldp": edited_bundle(place, "block.lora_rank=2")}
    if document == "manifest":
        return "run", WORKLOAD_ARGS, edited_workload(place, layers=1, timesteps=1)
    doc = json.loads(json.dumps(SWEEP_DOCS.get(document, report)))
    place(doc)
    if document == "report":
        return "analyze", ["--report", "{tmp}/report.json"], {"report.json": json.dumps(doc)}
    if document.startswith("strategy"):
        return "analyze", ["--report", "{tmp}/report.json", "--set",
                           f"analysis.strategies={json.dumps([doc])}"], {}
    from salad.tensor_io import mask_to_bytes

    return "run", PLAN_ARGS, {"plan.json": json.dumps(doc),
                              "m.smsk": mask_to_bytes(np.tril(np.ones((8, 8), dtype=bool)))}


@pytest.fixture(scope="module")
def sweep_report(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    assert run_cli("run", *small_args(tmp, "r"), "--no-timestamp") == 0
    return json.loads((tmp / "r" / "report.json").read_text())


@pytest.mark.parametrize("document,path", SWEPT_FIELDS,
                         ids=[f"{d}:{'.'.join(map(str, p))}" for d, p in SWEPT_FIELDS])
def test_document_field_type_sweep(tmp_path, capsys, sweep_report, document, path):
    """The valid document exits 0; every probe in place of the field, and
    the field deleted, exits 0 or 3 without a traceback, and at least one
    of them exits 3."""
    field = (document, ".".join(map(str, path)))
    (tmp_path / "report.json").write_text(json.dumps(sweep_report))
    codes = []
    for probe in (UNPROBED, *PROBES, ABSENT):
        command, args, files = probe_input(document, path, probe, sweep_report)
        for name, content in files.items():
            (tmp_path / name).write_bytes(content if isinstance(content, bytes) else content.encode())
        args = [arg.replace("{tmp}", str(tmp_path)) for arg in args]
        code = run_cli(command, *small_args(tmp_path, "out", "--set", "layers=1",
                                            "--set", "timesteps=1"), *args)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        missing_file = code == 2 and probe == "x" and field in FILE_NAME_FIELDS
        assert code in (0, 3) or missing_file, (probe, code, err)
        codes.append(code)
    assert codes[0] == 0 and 3 in codes[1:], (field, codes)


# ---------------------------------------------------------------------------
# Exit-code fuzz: corrupted input files and bounded config overrides

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=200,
                suppress_health_check=[HealthCheck.too_slow])


def probe_exit(command: str, tmp: str, *args: str) -> int:
    """Exit code of one in-process CLI call writing under ``tmp``, with its
    output discarded. An exception escaping ``main`` (a traceback) fails the
    calling test."""
    args = [arg.replace("{tmp}", tmp) for arg in args]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run_cli(command, *small_args(Path(tmp)), *args)


ONE_BY_ONE = ["--set", "layers=1", "--set", "timesteps=1"]

#: File name -> the command and arguments that read it.
CORRUPTIBLE = {
    "manifest.json": ("run", [*ONE_BY_ONE, *WORKLOAD_ARGS]),
    "inputs.stns": ("run", [*ONE_BY_ONE, *WORKLOAD_ARGS]),
    "params_l0.sldp": ("run", [*ONE_BY_ONE, *WORKLOAD_ARGS]),
    "plan.json": ("run", PLAN_ARGS),
    "plan_h0.smsk": ("run", PLAN_ARGS),
    "report.json": ("analyze", ["--report", "{tmp}/report.json"]),
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """File name -> the bytes of a valid file of that name, for the
    ``small_args`` grid with one layer and one timestep."""
    from conftest import write_plan
    from salad.masking import Explicit, MaskPlan, Window

    tmp = tmp_path_factory.mktemp("valid")
    assert run_cli("gen", *small_args(tmp, "."), *ONE_BY_ONE) == 0
    assert run_cli("run", *small_args(tmp, "r"), *ONE_BY_ONE, "--no-timestamp") == 0
    (tmp / "r" / "report.json").rename(tmp / "report.json")
    write_plan(MaskPlan([Explicit(np.tril(np.ones((8, 8), dtype=bool))), Window(radius=1)]),
               tmp / "plan.json")
    return {name: (tmp / name).read_bytes() for name in CORRUPTIBLE}


@QUIET_OVERFLOW
@FUZZ
@given(name=st.sampled_from(sorted(CORRUPTIBLE)),
       flips=st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(1, 255)), max_size=3),
       cut=st.none() | st.integers(0, 1 << 16))
def test_corrupt_file_exits_cleanly(valid_files, name, flips, cut):
    """XOR up to three bytes of one input file and maybe truncate it: the
    command reading it exits 0, 2, 3 or 4, never with a traceback."""
    raw = bytearray(valid_files[name])
    for pos, bits in flips:
        raw[pos % len(raw)] ^= bits
    if cut is not None:
        del raw[cut % len(raw):]
    command, args = CORRUPTIBLE[name]
    with tempfile.TemporaryDirectory() as tmp:
        for other, content in valid_files.items():
            Path(tmp, other).write_bytes(bytes(raw) if other == name else content)
        assert probe_exit(command, tmp, *args) in (0, 2, 3, 4)


#: Config leaves the override fuzz leaves alone: file paths (covered by the
#: corrupt-file fuzz) and the in-run gradcheck, whose finite differences
#: take seconds even on small grids.
UNFUZZED = {"out", "workload_dir", "mask.plan_path", "block.params_bundle",
            "checks.gradcheck_in_run"}
#: Largest integer the fuzz sets per leaf; every other leaf, grid extents
#: included, gets at most 8, so no draw allocates much or starts many threads.
INT_CAPS = {"layers": 2, "timesteps": 2, "threads": 4}
WORDS = ["x", "window", "topk", "calibrate", "explicit", "per_head", "interval", "random",
         "threshold", "non_shared", "tanh", "relu", "constant"]

SCALARS = st.integers(-1, 8) | st.floats() | st.booleans() | st.none() | st.sampled_from(WORDS)
RECORDS = st.lists(st.dictionaries(
    st.sampled_from(["head", "kind", "radius", "reordered", "block_size", "k", "strategy",
                     "lo", "hi", "fraction", "seed", "tau"]), SCALARS, max_size=4), max_size=3)
NON_INTEGERS = (st.floats() | st.booleans() | st.none() | st.sampled_from(WORDS)
                | st.lists(st.integers(-1, 8), max_size=3) | RECORDS)


def typed_values(leaf):
    """Values of the type of ``leaf``'s default; lists for a null default."""
    section, _, key = leaf.rpartition(".")
    default = RunConfig().to_dict()[section][key] if section else getattr(RunConfig(), key)
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers(-1, INT_CAPS.get(leaf, 8))
    if isinstance(default, float):
        return st.floats()
    if isinstance(default, str):
        return st.sampled_from(WORDS)
    return st.lists(st.integers(-1, 8), max_size=3) | RECORDS


@st.composite
def override(draw):
    """One ``--set`` pair: three times in four a value of the leaf's type,
    else any value, integers capped as for the leaf's own type."""
    leaf = draw(st.sampled_from(sorted(set(config_leaves()) - UNFUZZED)))
    values = (typed_values(leaf) if draw(st.integers(0, 3))
              else st.integers(-1, INT_CAPS.get(leaf, 8)) | NON_INTEGERS)
    return ["--set", f"{leaf}={json.dumps(draw(values))}"]


@QUIET_OVERFLOW
@FUZZ
@given(command=st.sampled_from(["run", "gen", "export-maps"]),
       overrides=st.lists(override(), min_size=1, max_size=3))
def test_bounded_overrides_exits_cleanly(command, overrides):
    """Up to three config overrides drawn from bounded domains: the command
    exits 0, 2, 3 or 4, never with a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        assert probe_exit(command, tmp, *itertools.chain(*overrides)) in (0, 2, 3, 4)
