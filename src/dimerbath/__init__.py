"""Exact dynamics of a dimer decoherently coupled to spin-star baths."""

__version__ = "0.1.0"

from .config import (BathParams, ConfigValidationError, CorrelationParams,
                     DimerParams, SystemConfig, ThermalSpec, beta_from_kelvin,
                     config_from_dict, config_to_dict, kelvin_from_beta,
                     load_config, validate, validated)
from .combinatorics import (MultiplicityTable, ThermalWeights,
                            log_partition_function, magnetization_counts,
                            multiplicity, multiplicity_table, thermal_weights)
from .dynamics import (AssistanceReport, GroundStateBranch, ResonanceSolution,
                       assistance_condition, correlated_ground_state,
                       delta0_correlated, p12, p12_correlated_zero_temp,
                       p12_thermal, p12_thermal_jm, p12_zero_temp, q_threshold,
                       rabi_probability, resonance_gamma)
from .oracle import (OracleSizeError, brute_force_bath_ground,
                     build_hamiltonian, evolve_probability, thermal_ensemble)
from .sweeps import (AssistanceGain, SweepGrid, TimeWindow, assistance_gain,
                     max_over_time, sweep)
