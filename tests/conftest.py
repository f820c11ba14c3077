import threading

import numpy as np
import pytest

from dimerbath import (BathParams, CorrelationParams, DimerParams,
                       SystemConfig, ThermalSpec)


def make_config(eps1=0.0, eps2=20.0, J=10.0,
                N1=1, alpha1=250.0, gamma1=0.0,
                N2=20, alpha2=250.0, gamma2=0.0,
                q=0.0, thermal=None):
    return SystemConfig(
        dimer=DimerParams(epsilon1=eps1, epsilon2=eps2, J=J),
        bath1=BathParams(N=N1, alpha=alpha1, gamma=gamma1),
        bath2=BathParams(N=N2, alpha=alpha2, gamma=gamma2),
        correlation=CorrelationParams(q=q),
        thermal=thermal if thermal is not None else ThermalSpec.zero())


def random_config(rng, n_max=5, zero_temp=False, q_zero=False):
    thermal = (ThermalSpec.zero() if zero_temp
               else ThermalSpec.from_beta(float(rng.uniform(1e-4, 0.2))))
    return make_config(
        eps1=float(rng.uniform(-30, 30)), eps2=float(rng.uniform(-30, 30)),
        J=float(rng.uniform(0.5, 30)),
        N1=int(rng.integers(1, n_max + 1)), alpha1=float(rng.uniform(1, 300)),
        gamma1=float(rng.uniform(-5, 5)),
        N2=int(rng.integers(1, n_max + 1)), alpha2=float(rng.uniform(1, 300)),
        gamma2=float(rng.uniform(-5, 5)),
        q=0.0 if q_zero else float(rng.uniform(-20, 40)),
        thermal=thermal)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail any test that leaves alive a thread it started."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"threads still alive after the test: {left}")
