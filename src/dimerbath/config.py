"""Physical parameters and unit conventions.

All energies are angular frequencies in ps^-1 (hbar = 1).  Temperatures are
converted to an inverse energy beta in ps via beta = (hbar/k_B)/T, so the
Boltzmann exponent is beta*E with E in ps^-1.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import dataclass, field

# hbar / k_B in ps*K (CODATA 2018: hbar = 1.054571817e-34 J s,
# k_B = 1.380649e-23 J/K).  Sets the scale of beta for kelvin inputs.
HBAR_OVER_KB_PS_K = 1.054571817e-34 / 1.380649e-23 * 1e12


class ConfigValidationError(ValueError):
    """Raised when a configuration violates one or more invariants."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def _is_number(value) -> bool:
    """An int or float, not a bool (bool subclasses int; JSON true is no number)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def beta_from_kelvin(temperature_kelvin: float) -> float:
    """Inverse temperature in ps for a temperature in K."""
    if not (_is_number(temperature_kelvin)
            and math.isfinite(temperature_kelvin) and temperature_kelvin > 0):
        raise ConfigValidationError(
            [f"temperature must be positive and finite, got {temperature_kelvin!r}"])
    return HBAR_OVER_KB_PS_K / temperature_kelvin


def kelvin_from_beta(beta: float) -> float:
    """Inverse of beta_from_kelvin."""
    if not (math.isfinite(beta) and beta > 0):
        raise ConfigValidationError([f"beta must be positive and finite, got {beta!r}"])
    return HBAR_OVER_KB_PS_K / beta


@dataclass(frozen=True)
class DimerParams:
    """On-site energies and tunneling amplitude of the two-level system."""
    epsilon1: float
    epsilon2: float
    J: float


@dataclass(frozen=True)
class BathParams:
    """One spin-star bath: N spins 1/2, level splitting alpha, coupling gamma."""
    N: int
    alpha: float
    gamma: float


@dataclass(frozen=True)
class CorrelationParams:
    """Ising S1z*S2z coupling between the two baths."""
    q: float = 0.0


@dataclass(frozen=True)
class ThermalSpec:
    """Bath temperature: kelvin, an explicit beta (ps), or exact zero temperature.

    Zero temperature is a tag, never a saturated float, so the exact
    zero-T formulas can be selected analytically.
    """
    temperature_kelvin: float | None = None
    beta_ps: float | None = None
    zero_temperature: bool = False

    @classmethod
    def kelvin(cls, T: float) -> "ThermalSpec":
        return cls(temperature_kelvin=T)

    @classmethod
    def from_beta(cls, beta: float) -> "ThermalSpec":
        return cls(beta_ps=beta)

    @classmethod
    def zero(cls) -> "ThermalSpec":
        return cls(zero_temperature=True)

    @property
    def is_zero_temperature(self) -> bool:
        return self.zero_temperature

    @property
    def beta(self) -> float:
        if self.zero_temperature:
            raise ValueError("zero-temperature spec has no finite beta")
        if self.beta_ps is not None:
            return self.beta_ps
        return beta_from_kelvin(self.temperature_kelvin)


@dataclass(frozen=True)
class SystemConfig:
    """Full parameter set: dimer + two baths + correlation + temperature."""
    dimer: DimerParams
    bath1: BathParams
    bath2: BathParams
    correlation: CorrelationParams = field(default_factory=CorrelationParams)
    thermal: ThermalSpec = field(default_factory=ThermalSpec.zero)

    @property
    def gap(self) -> float:
        """Half the level splitting, (epsilon2 - epsilon1)/2."""
        return (self.dimer.epsilon2 - self.dimer.epsilon1) / 2.0


def _check_finite(errors, name, value):
    if not (_is_number(value) and math.isfinite(value)):
        errors.append(f"{name} must be a finite number, got {value!r}")
        return False
    return True


def _exponent_errors(N1: int, alpha1: float, N2: int, alpha2: float, q: float,
                    beta: float | None) -> list[str]:
    """Why the Boltzmann exponent beta E over the (m1, m2) grid overflows, if it does.

    E = alpha1 m1 + alpha2 m2 + q m1 m2 is bilinear, so its extremes lie at
    the four corners m1 = +-N1/2, m2 = +-N2/2, each written as the weight
    rows write it; a finite corner bounds every sector's E and its partial
    sums.  beta times the corner spread then bounds every difference of two
    exponents; beta None (zero temperature) checks E alone.
    """
    corners = [alpha1 * m1 + alpha2 * m2 + q * m1 * m2
               for m1 in (-N1 / 2.0, N1 / 2.0) for m2 in (-N2 / 2.0, N2 / 2.0)]
    if not all(math.isfinite(e) for e in corners):
        return [f"bath energy alpha1 m1 + alpha2 m2 + q m1 m2 overflows at q = {q!r}"]
    if beta is not None and not math.isfinite(beta * (max(corners) - min(corners))):
        return [f"Boltzmann exponent overflows: beta = {beta!r} times the bath energy "
                f"spread {max(corners) - min(corners)!r} at q = {q!r} is not finite"]
    return []


def validate(config: SystemConfig) -> list[str]:
    """Collect every invariant violation (empty list means valid)."""
    errors: list[str] = []
    d = config.dimer
    _check_finite(errors, "epsilon1", d.epsilon1)
    _check_finite(errors, "epsilon2", d.epsilon2)
    if _check_finite(errors, "J", d.J) and d.J == 0:
        errors.append("J must be nonzero")
    for label, bath in (("bath1", config.bath1), ("bath2", config.bath2)):
        if not (isinstance(bath.N, int) and not isinstance(bath.N, bool) and bath.N >= 1):
            errors.append(f"{label}.N must be a positive integer, got {bath.N!r}")
        _check_finite(errors, f"{label}.alpha", bath.alpha)
        _check_finite(errors, f"{label}.gamma", bath.gamma)
    _check_finite(errors, "q", config.correlation.q)
    th = config.thermal
    n_set = sum([th.temperature_kelvin is not None,
                 th.beta_ps is not None,
                 bool(th.zero_temperature)])
    if n_set != 1:
        errors.append("exactly one of temperature_kelvin, beta, zero_temperature must be set")
    if not isinstance(th.zero_temperature, bool):
        errors.append(f"zero_temperature must be true or false, got {th.zero_temperature!r}")
    for label, value in (("temperature", th.temperature_kelvin), ("beta", th.beta_ps)):
        if value is not None and not (_is_number(value) and math.isfinite(value) and value > 0):
            errors.append(f"{label} must be positive, got {value!r}")
    if not errors:
        b1, b2 = config.bath1, config.bath2
        errors += _exponent_errors(b1.N, b1.alpha, b2.N, b2.alpha, config.correlation.q,
                                   None if th.is_zero_temperature else th.beta)
    return errors


def validated(config: SystemConfig) -> SystemConfig:
    """Return config unchanged if valid, else raise with the full error list."""
    errors = validate(config)
    if errors:
        raise ConfigValidationError(errors)
    return config


# each flat JSON key's place in SystemConfig, as (part, field); q is the one
# optional key, and exactly one of _THERMAL_KEYS gives the ThermalSpec
_KEYS = {
    "epsilon1": ("dimer", "epsilon1"), "epsilon2": ("dimer", "epsilon2"),
    "J": ("dimer", "J"),
    "N1": ("bath1", "N"), "alpha1": ("bath1", "alpha"), "gamma1": ("bath1", "gamma"),
    "N2": ("bath2", "N"), "alpha2": ("bath2", "alpha"), "gamma2": ("bath2", "gamma"),
    "q": ("correlation", "q"),
}
_THERMAL_KEYS = ("temperature_kelvin", "beta", "zero_temperature")
# the dataclass of each part, read off SystemConfig's annotations
_PART_TYPES = typing.get_type_hints(SystemConfig)


def config_from_dict(data: dict) -> SystemConfig:
    """Build and validate a SystemConfig from the flat JSON key set.

    Unknown keys are a hard error to guard against silent typos.
    """
    errors = []
    unknown = set(data) - set(_KEYS) - set(_THERMAL_KEYS)
    if unknown:
        errors.append(f"unknown config keys: {', '.join(sorted(unknown))}")
    missing = set(_KEYS) - {"q"} - set(data)
    if missing:
        errors.append(f"missing config keys: {', '.join(sorted(missing))}")
    # null leaves a thermal key unset, and false the zero-temperature tag;
    # any other value is given, and validate checks it
    thermal_keys = [k for k in _THERMAL_KEYS if data.get(k) is not None]
    if data.get("zero_temperature") is False:
        thermal_keys.remove("zero_temperature")
    if len(thermal_keys) != 1:
        errors.append("exactly one of temperature_kelvin, beta, zero_temperature:true "
                      "must be given")
    if errors:
        raise ConfigValidationError(errors)

    if "temperature_kelvin" in thermal_keys:
        thermal = ThermalSpec.kelvin(data["temperature_kelvin"])
    elif "beta" in thermal_keys:
        thermal = ThermalSpec.from_beta(data["beta"])
    else:
        thermal = ThermalSpec(zero_temperature=data["zero_temperature"])

    parts = {}
    for key, (part, name) in _KEYS.items():
        if key in data:
            parts.setdefault(part, {})[name] = data[key]
    config = SystemConfig(thermal=thermal,
                          **{part: _PART_TYPES[part](**kwargs)
                             for part, kwargs in parts.items()})
    return validated(config)


def config_to_dict(config: SystemConfig) -> dict:
    """Flat JSON representation, inverse of config_from_dict."""
    data = {key: getattr(getattr(config, part), name)
            for key, (part, name) in _KEYS.items()}
    th = config.thermal
    if th.zero_temperature:
        data["zero_temperature"] = True
    elif th.temperature_kelvin is not None:
        data["temperature_kelvin"] = th.temperature_kelvin
    else:
        data["beta"] = th.beta_ps
    return data


def load_config(path: str) -> SystemConfig:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigValidationError(["config file must contain a JSON object"])
    return config_from_dict(data)
