import itertools
import math
import threading
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from dimerbath import (BathParams, CorrelationParams, DimerParams,
                       SystemConfig, ThermalSpec, multiplicity)


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


def shift_levels(config, c):
    """The config with c added to both dimer levels: H + c*I, since the two
    level projectors sum to the identity."""
    d = config.dimer
    return replace(config, dimer=replace(d, epsilon1=d.epsilon1 + c,
                                         epsilon2=d.epsilon2 + c))


def _log_sinh(x):
    # log sinh(x) for x > 0 without overflow
    return x - math.log(2.0) + math.log(-math.expm1(-2.0 * x))


def log_z_sinh_form(N, alpha, beta):
    """log Z of one bath in the total-spin form, for beta*alpha != 0:
    Z = sum_j nu(N, j) sinh(b(j+1/2)) / sinh(b/2), b = |beta*alpha|."""
    b = abs(beta * alpha)
    terms = [math.log(multiplicity(N, two_j / 2.0))
             + _log_sinh(b * (two_j + 1) / 2.0) - _log_sinh(b / 2.0)
             for two_j in range(N, -1, -2)]
    top = max(terms)
    return top + math.log(sum(math.exp(x - top) for x in terms))


def exact_class_merge(config, weights):
    """(detunings, merged weights) of a finite-temperature config's sectors,
    merged by exact detuning, written with fractions.

    weights are the flat sector weights (m1 the slower index).  Sectors of
    exactly equal gap + (gamma2 m2 - gamma1 m1)/2 form a class, which takes
    its first sector's float detuning; classes of equal float merge, and a
    merged weight is the sum of its sectors' weights in sector order.
    """
    b1, b2 = config.bath1, config.bath2
    m1s = [(2 * k - b1.N) / 2 for k in range(b1.N + 1)]
    m2s = [(2 * k - b2.N) / 2 for k in range(b2.N + 1)]
    first, sums = {}, {}
    for (m1, m2), w in zip(itertools.product(m1s, m2s), weights.tolist()):
        exact = Fraction(b2.gamma) * Fraction(m2) - Fraction(b1.gamma) * Fraction(m1)
        d = first.setdefault(exact, config.gap + (b2.gamma * m2 - b1.gamma * m1) / 2.0)
        sums[d] = sums.get(d, 0.0) + w
    detunings = sorted(sums)
    return np.array(detunings), np.array([sums[d] for d in detunings])


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
