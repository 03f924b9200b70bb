import json
from dataclasses import replace

import numpy as np
import pytest

from oracles import estimate
from stripesim import stripe
from stripesim.channel import draw_channels
from stripesim.cli import main
from stripesim.config import SimulationConfig, load_config, save_config
from stripesim.runner import rng_stream
from stripesim.scenario import build_scenario
from stripesim.selftest import check_covariance_decomposition, run_selftest, selftest_config

MINI = replace(
    SimulationConfig(),
    num_aps=4, antennas_per_ap=2, num_ues=3, coherence_block=40,
    pilot_length=2, num_setups=2, num_channel_realizations=4,
    rng_seed=7, num_workers=1,
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


def read_all(out_dir, names):
    return {name: (out_dir / name).read_bytes() for name in names}


class TestRun:
    def test_writes_all_artifacts(self, tmp_path):
        cfg = write_mini(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        for name in RUN_FILES:
            assert (out / name).exists(), name

    def test_csv_layout(self, tmp_path):
        cfg = write_mini(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out),
              "--schemes", "stripe_nlmmse"])
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
        main(["run", "--config", str(cfg), "--out", str(out)])
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

    def test_byte_identical_reruns_and_worker_independence(self, tmp_path):
        cfg = write_mini(tmp_path)
        outs = [tmp_path / f"out{i}" for i in range(3)]
        main(["run", "--config", str(cfg), "--out", str(outs[0])])
        main(["run", "--config", str(cfg), "--out", str(outs[1])])
        main(["run", "--config", str(cfg), "--out", str(outs[2]),
              "--workers", "2"])
        ref = read_all(outs[0], RUN_FILES)
        for out in outs[1:]:
            got = read_all(out, RUN_FILES)
            for name in RUN_FILES:
                if name == "config_resolved.ini" and out is outs[2]:
                    continue  # worker count is recorded in the snapshot
                assert got[name] == ref[name], name

    def test_resolved_config_round_trip(self, tmp_path):
        cfg = write_mini(tmp_path)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        main(["run", "--config", str(cfg), "--out", str(out1)])
        snapshot = out1 / "config_resolved.ini"
        assert load_config(snapshot) == MINI
        main(["run", "--config", str(snapshot), "--out", str(out2)])
        for name in RUN_FILES:
            assert (out2 / name).read_bytes() == (out1 / name).read_bytes()

    def test_seed_override(self, tmp_path):
        cfg = write_mini(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(cfg), "--out", str(out1), "--seed", "99",
              "--schemes", "stripe_nlmmse"])
        main(["run", "--config", str(cfg), "--out", str(out2),
              "--schemes", "stripe_nlmmse"])
        assert (out1 / "se_stripe_nlmmse.csv").read_bytes() != \
            (out2 / "se_stripe_nlmmse.csv").read_bytes()

    def test_sweep_num_ues_layout(self, tmp_path):
        cfg = write_mini(tmp_path)
        out = tmp_path / "sweep"
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--schemes", "stripe_nlmmse", "--sweep", "K=2,3"]) == 0
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
            assert main(["run", "--config", str(cfg), "--out", str(out),
                         "--sweep", "K=2,3", "--workers", str(w)]) == 0
        files = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
        assert len(files) == 1 + 2 * len(RUN_FILES)
        for name in files:
            a, b = (out / name for out in outs)
            if name.name == "config_resolved.ini":
                assert load_config(a) == replace(load_config(b), num_workers=1)
            else:
                assert a.read_bytes() == b.read_bytes(), name

    def test_failing_job_exits_1_naming_its_setups(self, tmp_path, monkeypatch, capsys):
        from stripesim import runner

        def failing(config, setups, schemes):
            raise np.linalg.LinAlgError("injected failure")

        monkeypatch.setattr(runner, "simulate_setup", failing)
        cfg = write_mini(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--sweep", "K=2,3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config ")
        assert "num_ues=2" in err and "setups 0-1" in err and "injected failure" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_invalid_swept_config_names_its_value(self, tmp_path, capsys):
        # the per-UE powers fit the config's K=3 but not the swept K=2; the
        # error comes before any output, naming the value
        cfg = write_mini(tmp_path, ue_power_w=(0.05, 0.04, 0.03))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--sweep", "K=3,2"]) == 1
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
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--schemes", "stripe_nlmmse", "--sweep", sweep]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: sweep repeats {repeat}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_invalid_config_gives_nonzero_exit(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[network]\nnum_aps = 1\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1

    def test_unknown_scheme_gives_nonzero_exit(self, tmp_path):
        cfg = write_mini(tmp_path)
        assert main(["run", "--config", str(cfg), "--schemes", "zf",
                     "--out", str(tmp_path / "x")]) == 1

    def test_bad_sweep_gives_nonzero_exit(self, tmp_path):
        cfg = write_mini(tmp_path)
        assert main(["run", "--config", str(cfg), "--sweep", "L=2,3",
                     "--out", str(tmp_path / "x")]) == 1

    def test_unparseable_sweep_value_names_sweep_and_value(self, tmp_path, capsys):
        cfg = write_mini(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--sweep", "K=5,ten"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: sweep num_ues: 'ten' is not an integer\n"
        assert captured.out == ""
        assert not out.exists()


class TestFronthaul:
    def test_reference_numbers(self, capsys):
        assert main(["fronthaul"]) == 0
        out = capsys.readouterr().out
        assert "38400" in out and "3900" in out
        assert "89.84%" in out
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload == {"l4": 38400, "stripe": 3900,
                           "reduction": pytest.approx(0.8984375)}

    def test_with_config_file(self, tmp_path, capsys):
        cfg = write_mini(tmp_path)
        assert main(["fronthaul", "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["l4"] == 2 * 2 * 4 * 40
        assert payload["stripe"] == 3 * 9 + 2 * 3 * 38


class TestSelftest:
    def test_passes_on_fresh_build(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "FAIL" not in out

    def test_fault_injection_breaks_decomposition_check(self, rng):
        # skipping the error-covariance symmetrization (simulated by a skew
        # perturbation) must trip the decomposition check
        cfg = selftest_config()
        sc = build_scenario(cfg, rng_stream(0, 0, 0))
        h_rng = rng_stream(0, 0, 1, 0)
        h = draw_channels(sc, h_rng)
        est = estimate(sc, h, cfg, h_rng)
        assert check_covariance_decomposition(sc, est, cfg).passed

        skew = np.zeros_like(est.rtilde)
        skew[..., 0, -1] = 1e-6 * np.abs(est.rtilde).max()
        est.rtilde = est.rtilde + skew
        assert not check_covariance_decomposition(sc, est, cfg).passed

    def test_fault_injection_skewed_ghat_breaks_reconstruction_check(self, monkeypatch):
        # a forwarded ghat 1e-6 off the combiners' own must trip the replayed
        # reconstruction check, and only that check
        honest = stripe.stage_update

        def skewed(*args, **kwargs):
            state = honest(*args, **kwargs)
            return replace(state, ghat=state.ghat * (1 + 1e-6))

        monkeypatch.setattr(stripe, "stage_update", skewed)
        passed = {check.name: check.passed for check in run_selftest(0)}
        assert passed == {"covariance_decomposition": True, "combiner_norms": True,
                          "reconstruction_identity": False, "monotone_stage_sinr": True}
