"""Simulation parameters: a config checked when it is built, and its INI round trip.

Building a SimulationConfig, also by dataclasses.replace, checks the type and
range of every value and raises ValueError naming the field. This module
alone knows where each field sits in the config file and how its value is
parsed and written.

All power quantities are stored internally in watts. The config file
additionally accepts the conventional units (mW for UE power, dBm for noise
power, degrees for the angular spread); values are converted on load.
"""

from __future__ import annotations

import configparser
import enum
import io
import math
import numbers
import typing
from dataclasses import dataclass

import numpy as np


class CorrelationModel(enum.Enum):
    """Spatial correlation model applied to every AP-UE channel."""

    GAUSSIAN_LOCAL_SCATTERING = "gaussian_local_scattering"
    UNCORRELATED = "uncorrelated"

    @classmethod
    def from_string(cls, text: str) -> "CorrelationModel":
        key = text.strip().lower().replace("_", "").replace("-", "")
        for member in cls:
            if member.value.replace("_", "") == key:
                return member
        valid = ", ".join(m.value for m in cls)
        raise ValueError(f"unknown correlation model {text!r} (valid: {valid})")


@dataclass(frozen=True)
class SimulationConfig:
    """Immutable simulation parameters; building an invalid one raises ValueError."""

    # Network size
    num_aps: int = 24                  # L, APs daisy-chained along the stripe
    antennas_per_ap: int = 4           # N
    num_ues: int = 10                  # K, single-antenna terminals

    # Radio frame and powers
    coherence_block: int = 200         # tau_c, channel uses per block
    pilot_length: int = 20             # tau_p, channel uses spent on pilots
    ue_power_w: float | tuple[float, ...] = 0.05   # per-UE transmit power (50 mW); tuple = per-UE values
    noise_power_w: float = 10.0 ** (-12.2)         # -92 dBm

    # Geometry: stripe wrapped around a square perimeter, UEs inside
    stripe_length_m: float = 500.0
    ap_ue_height_gap_m: float = 5.0

    # Channel model
    correlation_model: CorrelationModel = CorrelationModel.GAUSSIAN_LOCAL_SCATTERING
    angular_std_dev_rad: float = math.radians(15.0)

    # Monte Carlo
    num_setups: int = 50
    num_channel_realizations: int = 200
    rng_seed: int = 1

    @property
    def square_side_m(self) -> float:
        """Side of the served square; the stripe covers its full perimeter."""
        return self.stripe_length_m / 4.0

    @property
    def ue_powers(self) -> np.ndarray:
        """Transmit powers as a length-K vector in watts."""
        if isinstance(self.ue_power_w, tuple):
            return np.asarray(self.ue_power_w, dtype=float)
        return np.full(self.num_ues, float(self.ue_power_w))

    def __post_init__(self) -> None:
        for name, kind in _TYPES.items():
            value = getattr(self, name)
            if not _has_type(value, kind):
                raise ValueError(f"{name} must be {getattr(kind, '__name__', kind)}, got {value!r}")
            value = tuple(map(_plain, value)) if isinstance(value, tuple) else _plain(value)
            object.__setattr__(self, name, value)
            if kind not in (int, CorrelationModel) and not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {value!r}")
            low = _LOWER.get(name)
            if kind is int and low is not None and not value >= low:
                raise ValueError(f"{name} must be >= {low}, got {value!r}")
            if kind is not int and low is not None and not np.all(np.asarray(value) > low):
                raise ValueError(f"{name} must be > {low}, got {value!r}")
        if self.pilot_length > self.coherence_block:
            raise ValueError("pilot_length must not exceed coherence_block")
        powers = self.ue_powers
        if powers.shape != (self.num_ues,):
            raise ValueError(
                f"ue_power_w must be scalar or length {self.num_ues}, got {powers.shape}"
            )
        if self.rng_seed >= 2 ** 64:
            raise ValueError("rng_seed must fit in an unsigned 64-bit integer")


def _plain(value):
    """A numpy number as the Python number it equals; anything else unchanged."""
    return value.item() if isinstance(value, np.generic) else value


def _has_type(value, kind) -> bool:
    """Whether value has the declared type kind; numpy numbers count, bools do not."""
    if kind is CorrelationModel:
        return isinstance(value, CorrelationModel)
    if isinstance(value, tuple) and kind not in (int, float):  # per-UE powers
        return all(_has_type(v, float) for v in value)
    number = numbers.Integral if kind is int else numbers.Real
    return isinstance(value, number) and not isinstance(value, bool)


# field -> lower bound: an integer field may equal it, a real one (each
# per-UE power too) must exceed it
_LOWER = {
    "num_aps": 2, "antennas_per_ap": 1, "num_ues": 1, "coherence_block": 1,
    "pilot_length": 1, "num_setups": 1, "num_channel_realizations": 1,
    "rng_seed": 0, "ue_power_w": 0.0, "noise_power_w": 0.0,
    "stripe_length_m": 0.0, "ap_ue_height_gap_m": 0.0, "angular_std_dev_rad": 0.0,
}


# section -> its keys, which are the field names, in the order config_to_ini()
# writes them; they round-trip exactly via Python float repr.
_SECTIONS = {
    "network": ("num_aps", "antennas_per_ap", "num_ues"),
    "radio": ("coherence_block", "pilot_length", "ue_power_w", "noise_power_w"),
    "geometry": ("stripe_length_m", "ap_ue_height_gap_m"),
    "channel_model": ("correlation_model", "angular_std_dev_rad"),
    "montecarlo": ("num_setups", "num_channel_realizations", "rng_seed"),
}

_TYPES = typing.get_type_hints(SimulationConfig)  # field name -> declared type

# Convenience keys in conventional units -> (unit suffix of the field they set,
# converter to that unit); the field is the key with its unit suffix swapped.
_UNIT_KEYS = {
    ("radio", "ue_power_mw"): ("_w", lambda v: _parse_power_list(v, 1e-3)),
    ("radio", "noise_power_dbm"): ("_w", lambda v: 10.0 ** ((float(v) - 30.0) / 10.0)),
    ("channel_model", "angular_std_dev_deg"): ("_rad", lambda v: math.radians(float(v))),
}


def _parse_power_list(text: str, scale: float = 1.0) -> float | tuple[float, ...]:
    """One number, or a tuple of the numbers of a list ("0.05," is a list of one)."""
    values = tuple(float(p) * scale for p in text.replace(",", " ").split())
    return values[0] if len(values) == 1 and "," not in text else values


def parse_value(name: str, raw: str):
    """Field `name` from its text in a config file or a sweep; its declared type decides."""
    kind = _TYPES[name]
    if kind is CorrelationModel:
        return CorrelationModel.from_string(raw)
    if kind is int:
        try:
            return int(raw)
        except ValueError:
            raise ValueError(f"{raw.strip()!r} is not an integer") from None
    if kind is float:
        return float(raw)
    return _parse_power_list(raw)  # a number, or a comma list of per-UE values


def format_value(value) -> str:
    """A field value as config_to_ini() writes it; parse_value() reads it back."""
    if isinstance(value, CorrelationModel):
        return value.value
    if isinstance(value, tuple):
        return ", ".join(repr(float(v)) for v in value) + ("," if len(value) == 1 else "")
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def config_from_ini(text: str) -> SimulationConfig:
    """Parse a config from INI text; unknown keys and unparseable values name their key."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"malformed config file: {exc}") from exc

    values: dict[str, object] = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            unit = _UNIT_KEYS.get((section, key))
            if unit is not None:
                name = key[:key.rindex("_")] + unit[0]
            elif key in _SECTIONS.get(section, ()):
                name = key
            else:
                raise ValueError(f"unknown config key [{section}] {key}")
            if name in values:
                raise ValueError(f"config key [{section}] {key} sets {name} twice")
            try:
                values[name] = unit[1](raw) if unit else parse_value(name, raw)
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"[{section}] {key}: {exc}") from exc
    return SimulationConfig(**values)


def load_config(path) -> SimulationConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_ini(fh.read())


def config_to_ini(config: SimulationConfig) -> str:
    """Render the resolved config; parsing the result reproduces it exactly."""
    parser = configparser.ConfigParser()
    for section, names in _SECTIONS.items():
        parser[section] = {name: format_value(getattr(config, name)) for name in names}
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def save_config(config: SimulationConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(config_to_ini(config))
