import math
from dataclasses import replace

import pytest

from dimerbath import (ConfigValidationError, ThermalSpec, beta_from_kelvin,
                       config_from_dict, config_to_dict, kelvin_from_beta,
                       validate, validated)
from conftest import make_config

# independent recomputation of hbar/k_B in ps*K from the defining constants
HBAR = 1.054571817e-34
KB = 1.380649e-23
REF = HBAR / KB * 1e12


def test_beta_at_77K():
    beta = beta_from_kelvin(77.0)
    assert beta == pytest.approx(REF / 77.0, rel=1e-15)
    assert beta == pytest.approx(0.09920, abs=5e-5)
    assert beta * 250.0 == pytest.approx(24.80, abs=5e-2)


def test_beta_at_300K():
    assert beta_from_kelvin(300.0) == pytest.approx(0.025461, abs=2e-6)


def test_beta_infinite_temperature_limit():
    assert beta_from_kelvin(1e12) < 1e-11


def test_beta_ratio_independent_of_constant():
    assert beta_from_kelvin(77.0) / beta_from_kelvin(300.0) == \
        pytest.approx(300.0 / 77.0, rel=1e-15)


def test_beta_monotone_decreasing():
    temps = [1.0, 4.2, 77.0, 300.0, 1000.0]
    betas = [beta_from_kelvin(T) for T in temps]
    assert betas == sorted(betas, reverse=True)


@pytest.mark.parametrize("T", [1e-3, 0.5, 77.0, 300.0, 1e6])
def test_kelvin_beta_round_trip(T):
    assert kelvin_from_beta(beta_from_kelvin(T)) == pytest.approx(T, rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, -5.0, float("nan"), float("inf")])
def test_beta_rejects_nonpositive(bad):
    with pytest.raises(ConfigValidationError):
        beta_from_kelvin(bad)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
def test_kelvin_rejects_a_beta_that_is_not_positive_and_finite(bad):
    with pytest.raises(ConfigValidationError, match="beta must be positive and finite"):
        kelvin_from_beta(bad)


def test_validate_accepts_good_config():
    cfg = make_config(J=10.0)
    assert validate(cfg) == []
    assert validated(cfg) is cfg


def test_validate_rejects_zero_J():
    errors = validate(make_config(J=0.0))
    assert any("J" in e for e in errors)


def test_validate_rejects_negative_temperature():
    cfg = make_config(thermal=ThermalSpec.kelvin(-5.0))
    errors = validate(cfg)
    assert any("temperature must be positive" in e for e in errors)


def test_validate_collects_all_errors():
    cfg = make_config(J=0.0, eps1=float("nan"),
                      thermal=ThermalSpec.kelvin(-5.0))
    errors = validate(cfg)
    assert len(errors) >= 3


def test_validate_rejects_bad_bath_size():
    cfg = make_config(N2=0)
    assert any("bath2.N" in e for e in validate(cfg))


def test_gamma_may_be_zero_or_negative():
    assert validate(make_config(gamma1=-3.0, gamma2=0.0)) == []


def test_thermal_spec_exclusivity():
    bad = ThermalSpec(temperature_kelvin=77.0, zero_temperature=True)
    assert any("exactly one" in e for e in validate(make_config(thermal=bad)))


def test_zero_temperature_has_no_beta():
    with pytest.raises(ValueError):
        ThermalSpec.zero().beta


def test_gap_accessor():
    assert make_config(eps1=0.0, eps2=20.0).gap == 10.0
    assert make_config(eps1=5.0, eps2=-5.0).gap == -5.0


FULL = {
    "epsilon1": 0.0, "epsilon2": 20.0, "J": 10.0,
    "N1": 1, "alpha1": 250.0, "gamma1": 0.0,
    "N2": 20, "alpha2": 250.0, "gamma2": 2.0,
    "q": 0.0, "temperature_kelvin": 77.0,
}


THERMAL = {"temperature_kelvin": (77.0, ThermalSpec.kelvin(77.0)),
           "beta": (0.1, ThermalSpec.from_beta(0.1)),
           "zero_temperature": (True, ThermalSpec.zero())}


@pytest.mark.parametrize("key", list(THERMAL))
def test_config_from_dict_round_trip(key):
    value, thermal = THERMAL[key]
    # distinct values, so a key read into the wrong field shows
    data = dict(FULL, epsilon1=0.5, gamma1=0.25, alpha2=240.0, q=3.0)
    del data["temperature_kelvin"]
    data[key] = value
    cfg = config_from_dict(data)
    assert cfg == make_config(eps1=0.5, eps2=20.0, J=10.0, N1=1, alpha1=250.0,
                              gamma1=0.25, N2=20, alpha2=240.0, gamma2=2.0,
                              q=3.0, thermal=thermal)
    assert config_to_dict(cfg) == data
    del data["q"]
    assert config_to_dict(config_from_dict(data)) == dict(data, q=0.0)


def test_config_from_dict_reports_every_key_error_in_order():
    data = dict(FULL, gama2=2.0, beta=0.1)
    del data["alpha1"]
    with pytest.raises(ConfigValidationError) as exc:
        config_from_dict(data)
    assert exc.value.errors == [
        "unknown config keys: gama2",
        "missing config keys: alpha1",
        "exactly one of temperature_kelvin, beta, zero_temperature:true must be given",
    ]


def test_config_from_dict_rejects_unknown_keys():
    data = dict(FULL, gama2=2.0)
    with pytest.raises(ConfigValidationError, match="unknown config keys"):
        config_from_dict(data)


def test_config_from_dict_rejects_missing_keys():
    data = dict(FULL)
    del data["alpha1"]
    with pytest.raises(ConfigValidationError, match="missing config keys"):
        config_from_dict(data)


def test_config_from_dict_requires_one_thermal_key():
    data = dict(FULL, beta=0.1)
    with pytest.raises(ConfigValidationError, match="exactly one"):
        config_from_dict(data)
    data = dict(FULL)
    del data["temperature_kelvin"]
    with pytest.raises(ConfigValidationError, match="exactly one"):
        config_from_dict(data)


def test_config_from_dict_zero_temperature_tag():
    data = dict(FULL)
    del data["temperature_kelvin"]
    data["zero_temperature"] = True
    cfg = config_from_dict(data)
    assert cfg.thermal.is_zero_temperature


# the name each key's validation error starts with
FIELDS = {"epsilon1": "epsilon1", "epsilon2": "epsilon2", "J": "J",
          "N1": "bath1.N", "alpha1": "bath1.alpha", "gamma1": "bath1.gamma",
          "N2": "bath2.N", "alpha2": "bath2.alpha", "gamma2": "bath2.gamma",
          "q": "q", "temperature_kelvin": "temperature", "beta": "beta",
          "zero_temperature": "zero_temperature"}


@pytest.mark.parametrize("key, value", [*((key, True) for key in FIELDS
                                          if key != "zero_temperature"),
                                        ("zero_temperature", 1)])
def test_config_from_dict_takes_no_bool_as_a_number_and_no_number_as_the_tag(key, value):
    # bool subclasses int, so JSON true passed as the number 1, and any
    # truthy value passed as the zero-temperature tag
    data = dict(FULL)
    if key in THERMAL:
        del data["temperature_kelvin"]
    data[key] = value
    with pytest.raises(ConfigValidationError) as exc:
        config_from_dict(data)
    [error] = exc.value.errors
    assert error.startswith(f"{FIELDS[key]} must ") and error.endswith(f"got {value!r}")


@pytest.mark.parametrize("q, thermal, message", [
    (5.0, ThermalSpec.from_beta(1e305), "Boltzmann exponent overflows: beta = 1e+305"),
    (1e307, ThermalSpec.kelvin(77.0), "bath energy alpha1 m1 + alpha2 m2 + q m1 m2 overflows"),
    (1e307, ThermalSpec.zero(), "bath energy alpha1 m1 + alpha2 m2 + q m1 m2 overflows"),
    (-1e307, ThermalSpec.kelvin(300.0), "bath energy alpha1 m1 + alpha2 m2 + q m1 m2 overflows"),
])
def test_an_overflowing_boltzmann_exponent_is_rejected(q, thermal, message):
    # the weight rows would exponentiate inf - inf: P = nan with a warning
    cfg = make_config(N1=22, alpha1=250.0, gamma1=1.0, N2=20, gamma2=1.0, q=q,
                      thermal=thermal)
    [error] = validate(cfg)
    assert error.startswith(message)
    with pytest.raises(ConfigValidationError, match="overflows"):
        validated(cfg)


def test_the_largest_finite_boltzmann_exponent_is_accepted():
    # beta times the corner spread 12100 just below the largest double
    cfg = make_config(N1=22, alpha1=250.0, gamma1=1.0, N2=20, gamma2=1.0, q=30.0,
                      thermal=ThermalSpec.from_beta(1.79e308 / 12100))
    assert validate(cfg) == []
    [error] = validate(replace(cfg, thermal=ThermalSpec.from_beta(2 * (1.79e308 / 12100))))
    assert error.startswith("Boltzmann exponent overflows")
