import json
import math
import re
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stripesim import metrics
from stripesim.config import (
    CorrelationModel, SimulationConfig, config_from_ini, config_to_ini,
)
from stripesim.runner import config_fingerprint

POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])
BAD_POSITIVE = st.floats(max_value=0.0) | NON_FINITE
# values of the wrong type for every field: none takes None, a bool, a string
# or a list
WRONG_TYPE = st.none() | st.booleans() | st.text() | st.lists(POSITIVE, min_size=1)


@st.composite
def configs(draw):
    """A random valid config: every field drawn, powers scalar or per UE."""
    num_ues = draw(st.integers(1, 12))
    coherence_block = draw(st.integers(1, 10_000))
    per_ue = st.lists(POSITIVE, min_size=num_ues, max_size=num_ues).map(tuple)
    return SimulationConfig(
        num_aps=draw(st.integers(2, 1_000)),
        antennas_per_ap=draw(st.integers(1, 64)),
        num_ues=num_ues,
        coherence_block=coherence_block,
        pilot_length=draw(st.integers(1, coherence_block)),
        ue_power_w=draw(POSITIVE | per_ue),
        noise_power_w=draw(POSITIVE),
        stripe_length_m=draw(POSITIVE),
        ap_ue_height_gap_m=draw(POSITIVE),
        correlation_model=draw(st.sampled_from(CorrelationModel)),
        angular_std_dev_rad=draw(POSITIVE),
        num_setups=draw(st.integers(1, 10_000)),
        num_channel_realizations=draw(st.integers(1, 10_000)),
        rng_seed=draw(st.integers(0, 2 ** 32 - 1)),
    )


def bad_values(cfg):
    """field -> values out of range or non-finite for that field of cfg."""
    one_bad_power = st.tuples(st.integers(0, cfg.num_ues - 1), BAD_POSITIVE).map(
        lambda bad: tuple(bad[1] if k == bad[0] else 0.05 for k in range(cfg.num_ues)))
    return {
        "num_aps": st.integers(max_value=1),
        "antennas_per_ap": st.integers(max_value=0),
        "num_ues": st.integers(max_value=0),
        "coherence_block": st.integers(max_value=cfg.pilot_length - 1),
        "pilot_length": st.integers(max_value=0) | st.integers(min_value=cfg.coherence_block + 1),
        "ue_power_w": BAD_POSITIVE | one_bad_power,
        "noise_power_w": BAD_POSITIVE,
        "stripe_length_m": BAD_POSITIVE,
        "ap_ue_height_gap_m": BAD_POSITIVE,
        "angular_std_dev_rad": BAD_POSITIVE,
        "num_setups": st.integers(max_value=0),
        "num_channel_realizations": st.integers(max_value=0),
        "rng_seed": st.integers(max_value=-1) | st.integers(min_value=2 ** 32),
        "correlation_model": st.sampled_from([m.value for m in CorrelationModel]),
    }


def test_defaults_match_reference_setup():
    cfg = SimulationConfig()
    assert cfg.num_aps == 24
    assert cfg.antennas_per_ap == 4
    assert cfg.num_ues == 10
    assert cfg.coherence_block == 200
    assert cfg.pilot_length == 20
    assert cfg.ue_power_w == pytest.approx(0.05)          # 50 mW
    assert cfg.noise_power_w == pytest.approx(10 ** (-12.2))  # -92 dBm
    assert cfg.stripe_length_m == 500.0
    assert cfg.square_side_m == 125.0
    assert cfg.ap_ue_height_gap_m == 5.0
    assert cfg.correlation_model is CorrelationModel.GAUSSIAN_LOCAL_SCATTERING


def test_ini_round_trip_is_exact():
    cfg = replace(
        SimulationConfig(),
        num_ues=7, ue_power_w=(0.05, 0.04, 0.03, 0.05, 0.06, 0.02, 0.01),
        noise_power_w=3.17e-13, angular_std_dev_rad=0.31, rng_seed=987654321,
    )
    again = config_from_ini(config_to_ini(cfg))
    assert again == cfg
    # and once more through the rendered form of the parsed config
    assert config_to_ini(again) == config_to_ini(cfg)


@settings(deadline=None)
@given(configs())
@example(replace(SimulationConfig(), num_ues=1, ue_power_w=(0.05,)))  # a list of one
def test_ini_round_trip_of_any_valid_config(cfg):
    again = config_from_ini(config_to_ini(cfg))
    assert again == cfg
    assert config_fingerprint(again) == config_fingerprint(cfg)


@settings(deadline=None)
@given(st.data())
def test_any_out_of_range_or_non_finite_value_rejected(data):
    cfg = data.draw(configs())
    bad = bad_values(cfg)
    name = data.draw(st.sampled_from(sorted(bad)))
    wrong = WRONG_TYPE
    if type(getattr(cfg, name)) is int:  # an integral float is no integer
        wrong |= st.integers(-10 ** 6, 10 ** 6).map(float)
    with pytest.raises(ValueError, match=name):
        replace(cfg, **{name: data.draw(bad[name] | wrong, label=name)})


def test_conventional_unit_keys():
    text = """
[network]
num_ues = 3
[radio]
ue_power_mw = 50
noise_power_dbm = -92
[channel_model]
angular_std_dev_deg = 15
"""
    cfg = config_from_ini(text)
    assert cfg.ue_power_w == pytest.approx(0.05, abs=0.0)
    assert cfg.noise_power_w == 10.0 ** (-12.2)
    assert cfg.angular_std_dev_rad == math.radians(15.0)


def test_per_ue_power_vector():
    cfg = config_from_ini("[network]\nnum_ues = 3\n[radio]\nue_power_mw = 50, 40, 30\n")
    assert cfg.ue_power_w == (0.05, 0.04, 0.03)
    assert cfg.ue_powers.shape == (3,)


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown config key"):
        config_from_ini("[network]\nnum_apps = 24\n")
    # the worker count belongs to the run, and nothing reads a carrier or bandwidth
    for section, key in (("radio", "carrier_freq_hz"), ("radio", "bandwidth_hz"),
                         ("montecarlo", "num_workers")):
        with pytest.raises(ValueError, match=re.escape(f"unknown config key [{section}] {key}")):
            config_from_ini(f"[{section}]\n{key} = 0\n")


@pytest.mark.parametrize("beside", ["", "[network]\nnum_ues = 3\n", "[radio]\nue_power_mw = 50\n"],
                         ids=["alone", "network", "radio"])
def test_default_section_rejected_like_any_unknown_section(beside):
    # configparser would otherwise fold [DEFAULT] into every other section:
    # dropped when there is none, applied or misreported when there is
    with pytest.raises(ValueError, match=re.escape("unknown config key [DEFAULT] num_aps")):
        config_from_ini("[DEFAULT]\nnum_aps = 8\n" + beside)


def test_readme_example_is_the_default_config():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    (example_ini,) = re.findall(r"^```ini\n(.*?)^```", readme, re.S | re.M)
    assert config_from_ini(example_ini) == SimulationConfig()


def test_duplicate_unit_spellings_rejected():
    with pytest.raises(ValueError, match="twice"):
        config_from_ini("[radio]\nue_power_w = 0.05\nue_power_mw = 50\n")


@pytest.mark.parametrize(
    "patch",
    [
        {"num_aps": 1},
        {"num_ues": 0},
        {"pilot_length": 0},
        {"pilot_length": 300},
        {"ue_power_w": -0.05},
        {"noise_power_w": 0.0},
        {"stripe_length_m": 0.0},
        {"ap_ue_height_gap_m": -1.0},
        {"angular_std_dev_rad": 0.0},
        {"num_setups": 0},
        {"rng_seed": -1},
        {"rng_seed": 2 ** 32},  # a second key word would repeat a smaller seed's streams
        {"ue_power_w": (0.05, 0.04)},  # wrong vector length for K=10
        {"stripe_length_m": math.inf},
        {"noise_power_w": math.nan},
        {"ue_power_w": (0.05,) * 9 + (math.inf,)},
        {"num_ues": 3.0},
        {"num_aps": True},
        {"antennas_per_ap": True},  # True == 1 would pass the range check
        {"correlation_model": "uncorrelated"},
    ],
)
def test_invalid_configs_rejected(patch):
    (name,) = patch
    with pytest.raises(ValueError, match=name):
        replace(SimulationConfig(), **patch)


def test_numpy_numbers_accepted():
    cfg = replace(SimulationConfig(), num_ues=np.int64(3), num_aps=np.int32(8),
                  ue_power_w=np.float32(0.05), noise_power_w=np.float64(1e-13))
    assert cfg.ue_powers.shape == (3,)
    assert cfg == replace(SimulationConfig(), num_ues=3, num_aps=8,
                          ue_power_w=float(np.float32(0.05)), noise_power_w=1e-13)
    # stored as the Python numbers they equal, per-UE powers too
    assert [type(v) for v in (cfg.num_ues, cfg.num_aps, cfg.ue_power_w, cfg.noise_power_w)] \
        == [int, int, float, float]
    per_ue = replace(cfg, ue_power_w=(np.float32(0.05), np.float64(0.1), 0.2))
    assert per_ue.ue_power_w == (float(np.float32(0.05)), 0.1, 0.2)
    assert [type(v) for v in per_ue.ue_power_w] == [float, float, float]
    load = metrics.fronthaul_load(cfg)
    assert json.loads(json.dumps(load)) == load


def test_config_is_frozen():
    cfg = SimulationConfig()
    with pytest.raises(FrozenInstanceError):
        cfg.num_ues = 3


@pytest.mark.parametrize("text, message", [
    ("[radio]\nnoise_power_w = -92 dBm\n", "[radio] noise_power_w: could not convert"),
    ("[radio]\nnoise_power_dbm = 4000\n", "[radio] noise_power_dbm: "),
    ("[radio]\nue_power_mw = 50, x\n", "[radio] ue_power_mw: could not convert"),
    ("[channel_model]\ncorrelation_model = rician\n",
     "[channel_model] correlation_model: unknown correlation model 'rician'"),
], ids=["float", "overflow", "power_list", "enum"])
def test_unparseable_value_names_its_key(text, message):
    with pytest.raises(ValueError) as info:
        config_from_ini(text)
    assert str(info.value).startswith(message)


def test_correlation_model_spelling_variants():
    for text in ("uncorrelated", "Uncorrelated", "UNCORRELATED"):
        assert CorrelationModel.from_string(text) is CorrelationModel.UNCORRELATED
    for text in ("gaussian_local_scattering", "GaussianLocalScattering",
                 "gaussian-local-scattering"):
        assert (CorrelationModel.from_string(text)
                is CorrelationModel.GAUSSIAN_LOCAL_SCATTERING)
    with pytest.raises(ValueError):
        CorrelationModel.from_string("rician")
