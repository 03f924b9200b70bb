import json
import multiprocessing
import os
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import stripesim
from stripesim import cli, stripe
from stripesim.cli import main
from stripesim.config import SimulationConfig, load_config, save_config
from stripesim.runner import draw_blocks, draw_drops
from stripesim.selftest import (
    check_combiner_norms, check_covariance_decomposition, check_monotone_stage_sinr,
    check_reconstruction, run_selftest, selftest_config,
)

MINI = replace(
    SimulationConfig(),
    num_aps=4, antennas_per_ap=2, num_ues=3, coherence_block=40,
    pilot_length=2, num_setups=2, num_channel_realizations=4,
    rng_seed=7,
)

RUN_FILES = [
    "config_resolved.ini", "summary.json",
    "se_stripe_nlmmse.csv", "cdf_stripe_nlmmse.csv",
    "se_mr_l2.csv", "cdf_mr_l2.csv",
    "se_lmmse_l4.csv", "cdf_lmmse_l4.csv",
]


def write_mini(tmp_path, **overrides):
    cfg = replace(MINI, **overrides)
    path = tmp_path / "config.ini"
    save_config(cfg, path)
    return path


def run(*args, workers=1):
    """`stripesim run` with args, at one worker unless asked otherwise."""
    return main(["run", "--workers", str(workers), *args])


def read_tree(out_dir):
    """Relative path -> bytes of every file under out_dir."""
    return {p.relative_to(out_dir): p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}


def fresh_env():
    """This environment, with this stripesim first on the import path."""
    src = str(Path(stripesim.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


class TestRun:
    def test_writes_all_artifacts(self, tmp_path):
        cfg = write_mini(tmp_path)
        out = tmp_path / "out"
        assert run("--config", str(cfg), "--out", str(out)) == 0
        for name in RUN_FILES:
            assert (out / name).exists(), name

    def test_csv_layout(self, tmp_path):
        cfg = write_mini(tmp_path)
        out = tmp_path / "out"
        run("--config", str(cfg), "--out", str(out),
            "--schemes", "stripe_nlmmse")
        lines = (out / "se_stripe_nlmmse.csv").read_text().splitlines()
        assert lines[0] == "scheme,setup,ue,se_bits_per_hz"
        assert len(lines) == 1 + MINI.num_setups * MINI.num_ues
        first = lines[1].split(",")
        assert first[:3] == ["stripe_nlmmse", "0", "0"]
        float(first[3])

        cdf = (out / "cdf_stripe_nlmmse.csv").read_text().splitlines()
        assert cdf[0] == "se_bits_per_hz,cum_prob"
        assert len(cdf) == 1 + MINI.num_setups * MINI.num_ues

    def test_summary_schema(self, tmp_path):
        cfg = write_mini(tmp_path)
        out = tmp_path / "out"
        run("--config", str(cfg), "--out", str(out))
        summary = json.loads((out / "summary.json").read_text())
        assert summary["schema_version"] == 1
        for scheme in ("stripe_nlmmse", "mr_l2", "lmmse_l4"):
            entry = summary[scheme]
            assert set(entry) == {"median_se", "p05_se", "n_samples"}
            assert entry["n_samples"] == MINI.num_setups * MINI.num_ues
        fh = summary["fronthaul"]
        assert set(fh) == {"l4", "stripe", "reduction"}
        assert fh["l4"] == 2 * 2 * 4 * 40
        assert fh["stripe"] == 3 * 9 + 2 * 3 * 38

    def test_summary_percentiles_are_numpys_of_the_se_rows(self, tmp_path):
        cfg = write_mini(tmp_path)
        out = tmp_path / "out"
        run("--config", str(cfg), "--out", str(out))
        summary = json.loads((out / "summary.json").read_text())
        for scheme in ("stripe_nlmmse", "mr_l2", "lmmse_l4"):
            rows = (out / f"se_{scheme}.csv").read_text().splitlines()[1:]
            se = [float(row.split(",")[3]) for row in rows]
            assert summary[scheme]["median_se"] == float(np.percentile(se, 50.0))
            assert summary[scheme]["p05_se"] == float(np.percentile(se, 5.0))

    def test_byte_identical_reruns_and_worker_independence(self, tmp_path):
        cfg = write_mini(tmp_path)
        outs = [tmp_path / f"out{i}" for i in range(3)]
        run("--config", str(cfg), "--out", str(outs[0]))
        run("--config", str(cfg), "--out", str(outs[1]))
        run("--config", str(cfg), "--out", str(outs[2]), workers=2)
        ref = read_tree(outs[0])
        assert sorted(map(str, ref)) == sorted(RUN_FILES)
        for out in outs[1:]:
            assert read_tree(out) == ref

    def test_resolved_config_round_trip(self, tmp_path):
        cfg = write_mini(tmp_path)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        run("--config", str(cfg), "--out", str(out1))
        snapshot = out1 / "config_resolved.ini"
        assert load_config(snapshot) == MINI
        run("--config", str(snapshot), "--out", str(out2))
        for name in RUN_FILES:
            assert (out2 / name).read_bytes() == (out1 / name).read_bytes()

    def test_seed_override(self, tmp_path):
        cfg = write_mini(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run("--config", str(cfg), "--out", str(out1), "--seed", "99",
            "--schemes", "stripe_nlmmse")
        run("--config", str(cfg), "--out", str(out2),
            "--schemes", "stripe_nlmmse")
        assert (out1 / "se_stripe_nlmmse.csv").read_bytes() != \
            (out2 / "se_stripe_nlmmse.csv").read_bytes()

    def test_sweep_num_ues_layout(self, tmp_path):
        cfg = write_mini(tmp_path)
        out = tmp_path / "sweep"
        assert run("--config", str(cfg), "--out", str(out),
                   "--schemes", "stripe_nlmmse", "--sweep", "K=2,3") == 0
        manifest = json.loads((out / "sweep.json").read_text())
        assert manifest["variable"] == "num_ues"
        dirs = [run["dir"] for run in manifest["runs"]]
        assert dirs == ["num_ues_2", "num_ues_3"]
        for d in dirs:
            assert (out / d / "cdf_stripe_nlmmse.csv").exists()
            assert (out / d / "summary.json").exists()

    def test_sweep_correlation_model_layout(self, tmp_path):
        cfg = write_mini(tmp_path)
        out = tmp_path / "sweep"
        code = main([
            "run", "--config", str(cfg), "--out", str(out),
            "--schemes", "stripe_nlmmse",
            "--sweep", "correlation_model=GaussianLocalScattering,Uncorrelated",
        ])
        assert code == 0
        manifest = json.loads((out / "sweep.json").read_text())
        assert [r["value"] for r in manifest["runs"]] == [
            "gaussian_local_scattering", "uncorrelated",
        ]

    def test_sweep_worker_independence(self, tmp_path):
        # two values of one group each: --workers 2 runs them in one pool
        cfg = write_mini(tmp_path)
        outs = [tmp_path / f"w{w}" for w in (1, 2)]
        for w, out in zip((1, 2), outs):
            assert run("--config", str(cfg), "--out", str(out), "--sweep", "K=2,3",
                       workers=w) == 0
        trees = [read_tree(out) for out in outs]
        assert len(trees[0]) == 1 + 2 * len(RUN_FILES)
        assert trees[1] == trees[0]

    def test_failing_job_exits_1_naming_its_setups(self, tmp_path, monkeypatch, capsys):
        from stripesim import runner

        cfg = write_mini(tmp_path)
        out = tmp_path / "out"
        for error in (np.linalg.LinAlgError, ZeroDivisionError):

            def failing(config, setups, schemes):
                raise error("injected failure")

            monkeypatch.setattr(runner, "simulate_setup", failing)
            assert run("--config", str(cfg), "--out", str(out),
                       "--sweep", "K=2,3") == 1
            err = capsys.readouterr().err
            assert err.startswith("error: config ")
            assert "num_ues=2" in err and "setups 0-1" in err and "injected failure" in err
            assert "Traceback" not in err
            assert not out.exists()

    def test_non_finite_se_exits_1_naming_its_setups_and_writes_nothing(
            self, tmp_path, monkeypatch, capsys):
        # a NaN in the ghat that reaches the CPU, as the stripe's Schur
        # complement yields at an SINR near 1e16, fails the job before any
        # output is written
        honest = stripe.run_stripe

        def nan_for_ue_1(hhat, powers):
            ghat = honest(hhat, powers)
            ghat[..., 1, 1] = np.nan
            return ghat

        monkeypatch.setattr(stripe, "run_stripe", nan_for_ue_1)
        out = tmp_path / "out"
        assert run("--config", str(write_mini(tmp_path)), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config ") and err.count("\n") == 1
        assert err.endswith(", setups 0-1: stripe_nlmmse: UE 1 has a non-finite SE\n")
        assert not out.exists()

    def test_interrupt_exits_130_with_one_line(self, tmp_path, monkeypatch, capsys):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_experiment", interrupted)
        out = tmp_path / "out"
        assert run("--config", str(write_mini(tmp_path)), "--out", str(out)) == 130
        assert capsys.readouterr().err == "error: interrupted\n"
        assert not out.exists()

    def test_ctrl_c_on_a_pooled_run_exits_130_without_traceback(self, tmp_path):
        # SIGINT to the whole process group, as a terminal sends Ctrl-C, once
        # the pool has returned a first job: the workers must ignore it and
        # the parent alone report it
        path = tmp_path / "config.ini"
        save_config(replace(SimulationConfig(), num_setups=40, num_channel_realizations=200),
                    path)
        out = tmp_path / "out"
        proc = subprocess.Popen(
            [sys.executable, "-m", "stripesim.cli", "run", "--config", str(path),
             "--workers", "2", "--out", str(out)],
            env=fresh_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True)
        try:
            for line in proc.stdout:
                if line.startswith("  setup"):
                    break
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert proc.returncode == 130, err
        assert "Traceback" not in err
        assert err == "error: interrupted\n"
        assert not out.exists()
        with pytest.raises(ProcessLookupError):   # the terminated pool left no worker
            os.killpg(proc.pid, 0)

    def test_invalid_swept_config_names_its_value(self, tmp_path, capsys):
        # the per-UE powers fit the config's K=3 but not the swept K=2; the
        # error comes before any output, naming the value
        cfg = write_mini(tmp_path, ue_power_w=(0.05, 0.04, 0.03))
        out = tmp_path / "out"
        assert run("--config", str(cfg), "--out", str(out),
                   "--sweep", "K=3,2") == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: num_ues=2: ue_power_w must be scalar or length 2, got (3,)\n")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("sweep, repeat", [
        ("K=3,2,3", "num_ues=3"),
        ("correlation_model=uncorrelated,GaussianLocalScattering,Uncorrelated",
         "correlation_model=uncorrelated"),
    ])
    def test_repeated_sweep_value_exits_1(self, tmp_path, capsys, sweep, repeat):
        cfg = write_mini(tmp_path)
        out = tmp_path / "out"
        assert run("--config", str(cfg), "--out", str(out),
                   "--schemes", "stripe_nlmmse", "--sweep", sweep) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: sweep repeats {repeat}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_invalid_config_gives_nonzero_exit(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[network]\nnum_aps = 1\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize("text, error", [
        ("[radio]\nnoise_power_dbm = inf\n", "noise_power_w must be finite, got inf"),
        ("[geometry]\nstripe_length_m = inf\n", "stripe_length_m must be finite, got inf"),
        ("[network]\nnum_aps = 24.0\n", "[network] num_aps: '24.0' is not an integer"),
    ], ids=["noise_power_dbm", "stripe_length_m", "num_aps"])
    def test_bad_config_value_exits_1_naming_it(self, tmp_path, capsys, text, error):
        bad = tmp_path / "bad.ini"
        bad.write_text(text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(bad), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {error}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_unknown_scheme_gives_nonzero_exit(self, tmp_path):
        cfg = write_mini(tmp_path)
        assert run("--config", str(cfg), "--schemes", "zf",
                   "--out", str(tmp_path / "x")) == 1

    def test_repeated_scheme_exits_1(self, tmp_path, capsys):
        cfg = write_mini(tmp_path)
        out = tmp_path / "out"
        assert run("--config", str(cfg), "--out", str(out),
                   "--schemes", "stripe_nlmmse,stripe_nlmmse,mr_l2") == 1
        captured = capsys.readouterr()
        assert captured.err == "error: scheme list repeats stripe_nlmmse\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("sub", [(), ("sub",)], ids=["a_file", "under_a_file"])
    def test_out_exits_1_before_simulating(self, tmp_path, monkeypatch, capsys, sub):
        def never(*args, **kwargs):
            raise AssertionError("run_experiment called")

        monkeypatch.setattr(cli, "run_experiment", never)
        cfg = write_mini(tmp_path)
        afile = tmp_path / "afile"
        afile.write_text("keep\n")
        out = afile.joinpath(*sub)
        assert run("--config", str(cfg), "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --out {out}: {afile} is not a directory\n"
        assert "running" not in captured.out
        assert afile.read_text() == "keep\n"

    def test_sweep_directory_that_cannot_be_made_exits_1_before_simulating(
            self, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("run_experiment called")

        monkeypatch.setattr(cli, "run_experiment", never)
        cfg = write_mini(tmp_path)
        out = tmp_path / "d"
        out.mkdir()
        afile = out / "num_ues_3"
        afile.write_text("keep\n")
        assert run("--config", str(cfg), "--out", str(out), "--sweep", "K=2,3") == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --out {afile}: {afile} is not a directory\n"
        assert "running" not in captured.out
        assert not (out / "num_ues_2").exists()
        assert afile.read_text() == "keep\n"

    def test_bad_sweep_gives_nonzero_exit(self, tmp_path):
        cfg = write_mini(tmp_path)
        assert run("--config", str(cfg), "--sweep", "L=2,3",
                   "--out", str(tmp_path / "x")) == 1

    def test_unparseable_sweep_value_names_sweep_and_value(self, tmp_path, capsys):
        cfg = write_mini(tmp_path)
        out = tmp_path / "out"
        assert run("--config", str(cfg), "--out", str(out),
                   "--sweep", "K=5,ten") == 1
        captured = capsys.readouterr()
        assert captured.err == "error: sweep num_ues: 'ten' is not an integer\n"
        assert captured.out == ""
        assert not out.exists()

    def test_negative_worker_count_exits_1(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("--config", str(write_mini(tmp_path)), "--out", str(out), workers=-1) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: workers must be an integer >= 0, got -1\n"
        assert captured.out == ""      # checked before anything prints
        assert not out.exists()


class TestFronthaul:
    def test_reference_numbers(self, capsys):
        assert main(["fronthaul"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [
            "lmmse_l4: 38400 real scalars/block to CPU (1600 per segment)",
            "stripe_nlmmse: 3900 real scalars/block to CPU (3900 per segment)",
            "stripe reduces CPU-link load by 89.84%",
            '{"l4": 38400, "reduction": 0.8984375, "stripe": 3900}',
        ]
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload == {"l4": 38400, "stripe": 3900,
                           "reduction": pytest.approx(0.8984375)}

    def test_with_config_file(self, tmp_path, capsys):
        cfg = write_mini(tmp_path)
        assert main(["fronthaul", "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["l4"] == 2 * 2 * 4 * 40
        assert payload["stripe"] == 3 * 9 + 2 * 3 * 38


# What the `stripesim` console script runs, as the benchmark does.
ENTRY = "import sys; from stripesim.cli import main; sys.exit(main())"

# The job of K=10 SIGKILLs its pool worker, as the OOM killer would.
# Workers fork, so they see the patched simulate_setup.
KILLED_WORKER = """
import multiprocessing, os, signal, sys
from stripesim import runner
from stripesim.cli import main
simulate = runner.simulate_setup

def simulate_setup(config, setups, schemes):
    if config.num_ues == 10:
        os.kill(os.getpid(), signal.SIGKILL)
    return simulate(config, setups, schemes)

runner.simulate_setup = simulate_setup
runner.pool_context = lambda: multiprocessing.get_context("fork")
sys.exit(main())
"""

# atexit runs its handlers last in, first out, so this one, registered before
# stripesim.cli is imported, runs after the CLI's.
FREEZE_AT_EXIT = """
import atexit, gc, sys
atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0))
from stripesim.cli import main
sys.exit(main())
"""


def fresh_cli(*args, code=ENTRY, timeout=60):
    """Run code with args in a fresh interpreter in its own process group;
    its exit code, stdout and stderr. A process group still running at
    timeout is killed, and the test fails; so it does if a process of the
    group (a pool worker) outlives the interpreter."""
    proc = subprocess.Popen([sys.executable, "-c", code, *args], env=fresh_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    return proc.returncode, out, err


class TestFreshInterpreter:
    """The CLI as the console script and the benchmark run it: its own process."""

    def test_run_exits_0_with_the_in_process_tree(self, tmp_path):
        cfg = str(write_mini(tmp_path))
        out = tmp_path / "fresh"
        # two jobs at --workers 2: a pool, and multiprocessing's own exit handler
        code, stdout, err = fresh_cli("run", "--config", cfg, "--sweep", "K=2,3",
                                      "--workers", "2", "--out", str(out))
        assert (code, err) == (0, "")
        assert stdout.endswith("done\n")
        assert run("--config", cfg, "--sweep", "K=2,3", "--out", str(tmp_path / "here")) == 0
        assert read_tree(out) == read_tree(tmp_path / "here")

    def test_fronthaul_exits_0_with_the_json_last(self):
        code, stdout, err = fresh_cli("fronthaul")
        assert (code, err) == (0, "")
        assert json.loads(stdout.splitlines()[-1]) == {"l4": 38400, "stripe": 3900,
                                                       "reduction": 0.8984375}

    def test_missing_config_exits_1_with_one_error_line(self, tmp_path):
        code, stdout, err = fresh_cli("run", "--config", str(tmp_path / "absent.ini"),
                                      "--out", str(tmp_path / "out"))
        assert (code, stdout) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "absent.ini" in err
        assert not (tmp_path / "out").exists()

    def test_unknown_subcommand_exits_2(self):
        code, stdout, _ = fresh_cli("simulate")
        assert (code, stdout) == (2, "")

    @pytest.mark.parametrize("command", ["fronthaul", "selftest"])
    def test_heap_is_frozen_at_exit(self, command):
        code, stdout, _ = fresh_cli(command, code=FREEZE_AT_EXIT)
        assert code == 0
        assert stdout.splitlines()[-1] == "frozen at exit: True"

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    def test_killed_pool_worker_fails_the_run_instead_of_hanging(self, tmp_path):
        config = replace(SimulationConfig(), num_setups=2, num_channel_realizations=2)
        save_config(config, tmp_path / "tiny.ini")
        out = tmp_path / "out"
        code, stdout, err = fresh_cli("run", "--config", str(tmp_path / "tiny.ini"),
                                      "--sweep", "K=5,10", "--workers", "2",
                                      "--out", str(out), code=KILLED_WORKER, timeout=30)
        assert code == 1, (stdout, err)
        assert err.startswith("error: config ") and err.count("\n") == 1
        assert "(num_ues=10), setups 0-1: " in err and "pool worker died" in err
        assert not out.exists()


def selftest_checks(plant_nan):
    """Every selftest check on the selftest's first block, by name.

    The block is drawn as a run draws it, in the run's shapes: one block of
    one drop, (1, 1, ...) per-block arrays and (1, ...) statistics. With
    plant_nan, each check's input holds one NaN: an entry of the third
    AP's combiners, of the ghat forwarded by AP 2, of rtilde for UE 1 at AP
    3, or of the ghat that reaches the CPU, which alone then differs from
    the estimates replayed through the combiners.
    """
    cfg = selftest_config()
    sc, stats = draw_drops(cfg, range(1))
    _, hhat = draw_blocks(cfg, sc, stats, range(1), range(1))
    combiners, ghats = zip(*stripe.stages(hhat, cfg.ue_powers))

    def planted(array, index):
        out = array.copy()
        if plant_nan:
            out[index] = np.nan
        return out

    checks = [
        check_combiner_norms(
            [*combiners[:2], planted(combiners[2], (0, 0, 1, 0)), *combiners[3:]]),
        check_monotone_stage_sinr([ghats[0], planted(ghats[1], (0, 0, 0, 0)), *ghats[2:]],
                                  cfg.ue_powers),
        check_covariance_decomposition(
            sc, replace(stats, rtilde=planted(stats.rtilde, (0, 1, 2, 0, 0))), cfg),
        check_reconstruction(combiners, planted(ghats[-1], (0, 0, 0, 0)), hhat),
    ]
    return {check.name: check for check in checks}


SELFTEST_CHECKS = ("combiner_norms", "monotone_stage_sinr", "covariance_decomposition",
                   "reconstruction_identity")


class TestSelftest:
    @pytest.mark.parametrize("name", SELFTEST_CHECKS)
    def test_each_check_passes_valid_input_with_a_bool(self, name):
        assert selftest_checks(plant_nan=False)[name].passed is True

    @pytest.mark.parametrize("name", SELFTEST_CHECKS)
    def test_a_planted_nan_fails_each_check(self, name):
        assert selftest_checks(plant_nan=True)[name].passed is False

    def test_passes_on_fresh_build(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "FAIL" not in out

    def test_fault_injection_breaks_decomposition_check(self):
        # skipping the error-covariance symmetrization (simulated by a skew
        # perturbation) must trip the decomposition check
        cfg = selftest_config()
        sc, stats = draw_drops(cfg, range(1))
        assert check_covariance_decomposition(sc, stats, cfg).passed

        skew = np.zeros_like(stats.rtilde)
        skew[..., 0, -1] = 1e-6 * np.abs(stats.rtilde).max()
        stats.rtilde = stats.rtilde + skew
        assert not check_covariance_decomposition(sc, stats, cfg).passed

    def test_fault_injection_skewed_ghat_breaks_reconstruction_check(self, monkeypatch):
        # a forwarded ghat 1e-6 off the combiners' own must trip the replayed
        # reconstruction check, and only that check
        honest = stripe.stage_update

        def skewed(*args, **kwargs):
            return honest(*args, **kwargs) * (1 + 1e-6)

        monkeypatch.setattr(stripe, "stage_update", skewed)
        passed = {check.name: check.passed for check in run_selftest(0)}
        assert passed == {"covariance_decomposition": True, "combiner_norms": True,
                          "reconstruction_identity": False, "monotone_stage_sinr": True}
