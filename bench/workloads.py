"""The four benchmark workloads: seeded inputs, the timed call, and its check.

Each workload turns a seed into a list of call specs, runs one spec per
top-level call through the package's public entry points only, and checks
the call's output against a reference that does not share the code under
test.  One call holds one or more ops (grid cells, verified configs or
curve points); ``ops_per_s`` counts ops, the latency metrics count calls.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

import dimerbath as db
from dimerbath import cli

# Tolerances of the independent checks.
P_TOL = 1e-12        # p* against p12_thermal_jm, fine scan, zero-T Rabi peak, CSV rows
ORACLE_TOL = 1e-8    # analytic curve against dense diagonalisation
FINE_FACTOR = 10     # the independent fine scan is this many times denser than the coarse scan


def _config(e2, J, n1, n2, alpha1, alpha2, gamma, q, thermal):
    return db.SystemConfig(
        dimer=db.DimerParams(epsilon1=0.0, epsilon2=e2, J=J),
        bath1=db.BathParams(N=n1, alpha=alpha1, gamma=gamma),
        bath2=db.BathParams(N=n2, alpha=alpha2, gamma=gamma),
        correlation=db.CorrelationParams(q=q),
        thermal=thermal)


def _at(config, gamma_both, q):
    return replace(config,
                   bath1=replace(config.bath1, gamma=gamma_both),
                   bath2=replace(config.bath2, gamma=gamma_both),
                   correlation=replace(config.correlation, q=q))


def _jitter(rng, value, frac):
    return float(value * (1.0 + frac * rng.uniform(-1.0, 1.0)))


# --- independent references -------------------------------------------------

def reference_curve(config, ts):
    """Finite-T P(t) from binomial degeneracies, with equal detunings merged.

    Written from the physics alone (g(m) = C(N, N/2 - m), weights
    g1 g2 exp(-beta E)), so it shares no code with the package's thermal path.
    """
    b1, b2 = config.bath1, config.bath2
    m1 = np.arange(-b1.N, b1.N + 1, 2) / 2.0
    m2 = np.arange(-b2.N, b2.N + 1, 2) / 2.0
    lg1 = np.array([math.log(math.comb(b1.N, int(b1.N / 2 - m))) for m in m1])
    lg2 = np.array([math.log(math.comb(b2.N, int(b2.N / 2 - m))) for m in m2])
    energy = (b1.alpha * m1[:, None] + b2.alpha * m2[None, :]
              + config.correlation.q * m1[:, None] * m2[None, :])
    lw = lg1[:, None] + lg2[None, :] - config.thermal.beta * energy
    w = np.exp(lw - lw.max())
    w /= w.sum()
    gap = (config.dimer.epsilon2 - config.dimer.epsilon1) / 2.0
    delta = gap + (b2.gamma * m2[None, :] - b1.gamma * m1[:, None]) / 2.0
    dvals, inverse = np.unique(delta.ravel(), return_inverse=True)
    wu = np.bincount(inverse.ravel(), weights=w.ravel())
    J = config.dimer.J
    omega = np.sqrt(J * J + dvals * dvals)
    amp = J * J / (omega * omega)
    ts = np.asarray(ts, dtype=float)
    out = np.empty(ts.shape)
    for lo in range(0, ts.size, 4096):
        chunk = ts[lo:lo + 4096]
        out[lo:lo + 4096] = (amp * np.sin(np.multiply.outer(chunk, omega)) ** 2) @ wu
    return out


def rabi_curve(config, m1, m2, ts):
    """P(t) with both baths frozen at (m1, m2): the zero-T curve of a unique ground state."""
    J = config.dimer.J
    delta = config.gap + (config.bath2.gamma * m2 - config.bath1.gamma * m1) / 2.0
    omega = math.sqrt(J * J + delta * delta)
    return J * J / (omega * omega) * np.sin(omega * np.asarray(ts, dtype=float)) ** 2


def sector_counts(config):
    """(sectors, distinct detunings) of a config's (m1, m2) grid, from its inputs."""
    b1, b2 = config.bath1, config.bath2
    m1 = np.arange(-b1.N, b1.N + 1, 2) / 2.0
    m2 = np.arange(-b2.N, b2.N + 1, 2) / 2.0
    delta = config.gap + (b2.gamma * m2[None, :] - b1.gamma * m1[:, None]) / 2.0
    return (b1.N + 1) * (b2.N + 1), int(np.unique(delta).size)


def enumerated_branch(minimisers, n1, n2):
    """Branch label implied by the brute-force minimiser set."""
    if len(minimisers) != 1:
        return "degenerate_superposition"
    return {(-n1 / 2, -n2 / 2): "both_down",
            (-n1 / 2, n2 / 2): "bath2_up",
            (n1 / 2, -n2 / 2): "bath1_up"}.get(minimisers[0], "interior")


# signs of (m1, m2) at the corner each package label stands for; at theta = 0
# the degenerate superposition takes the detuning of bath2_up
LABEL_CORNER = {"both_down": (-1, -1), "bath2_up": (-1, 1), "bath1_up": (1, -1),
                "degenerate_superposition": (-1, 1)}


def ground_state_cases(config, q):
    """(enumerated minimisers, package label, known defect) at coupling q.

    The known defects are the two the ROADMAP lists for the zero-T ground
    state: the branch classifier (a label that enumeration contradicts) and
    the degenerate branch (tied minimisers, whose exact answer is a mixture).
    """
    b1, b2 = config.bath1, config.bath2
    minimisers = db.brute_force_bath_ground(b1.alpha, b2.alpha, q, b1.N, b2.N)
    label = db.correlated_ground_state(b1.alpha, b2.alpha, q, b1.N, b2.N).branch
    defect = len(minimisers) != 1 or label != enumerated_branch(minimisers, b1.N, b2.N)
    return minimisers, label, defect


@dataclass
class CheckResult:
    """Outcome of checking one call.

    failed counts the ops that failed their check.  wrong_value is set when
    a failure is not explained by a known ROADMAP defect of the package.
    """
    failed: int = 0
    wrong_value: bool = False
    notes: dict = field(default_factory=dict)


# --- workloads --------------------------------------------------------------

class Workload:
    name = ""
    why = ""
    n_specs = 64          # call specs generated per seed; the run cycles through them
    cycle = 1             # a timed run ends only on a multiple of this many calls
    nominal_call_s = 1.0  # sizes the fixed call count of a traced run
    checked_calls = None  # calls checked per process; None checks every call

    def make_specs(self, rng):
        return [self.make_spec(rng, i) for i in range(self.n_specs)]

    def make_spec(self, rng, i):
        raise NotImplementedError

    def warmup(self, workdir):
        """One tiny call through the same entry points."""
        raise NotImplementedError

    def ops(self, spec):
        raise NotImplementedError

    def call(self, spec):
        raise NotImplementedError

    def check(self, spec, out) -> CheckResult:
        raise NotImplementedError

    def input_stats(self, spec):
        """Work counts computed from the inputs: sectors, detunings, dimension."""
        return {}

    def prepare(self, specs, workdir):
        """Write any files the calls read; runs inside set-up."""

    def trace_calls(self, seconds):
        n = max(1, math.ceil(seconds / 2.0 / self.nominal_call_s))
        return self.cycle * math.ceil(n / self.cycle)


@dataclass
class GridSpec:
    config: object
    gammas: np.ndarray
    qs: np.ndarray


class ThermalGrid(Workload):
    name = "thermal-grid"
    why = ("paper headline: finite-T sweep of gamma_both x q across q0 at N=22/20, "
           "time spent in the coarse time scan")
    n_gamma, n_q = 2, 8
    nominal_call_s = 0.5
    checked_calls = 2    # ~40 ms of checking per cell

    def make_spec(self, rng, i):
        T = 77.0 if rng.random() < 0.5 else 300.0
        config = _config(_jitter(rng, 20.0, 0.05), _jitter(rng, 10.0, 0.05),
                         22, 20, 250.0, 250.0, 0.0, 0.0, db.ThermalSpec.kelvin(T))
        gammas = np.sort(rng.uniform(0.2, 4.0, self.n_gamma))
        # q0 = 2*250/22 ~ 22.7 lies inside every q range
        qs = np.linspace(rng.uniform(5.0, 15.0), rng.uniform(30.0, 40.0), self.n_q)
        return GridSpec(config, gammas, qs)

    def warmup(self, workdir):
        spec = self.make_spec(np.random.default_rng(0), 0)
        db.sweep(spec.config, [("gamma_both", spec.gammas[:1]), ("q", spec.qs[:1])])

    def ops(self, spec):
        return spec.gammas.size * spec.qs.size

    def call(self, spec):
        return db.sweep(spec.config, [("gamma_both", spec.gammas), ("q", spec.qs)])

    def _cells(self, spec):
        for i, g in enumerate(spec.gammas):
            for j, q in enumerate(spec.qs):
                yield (i, j), _at(spec.config, float(g), float(q))

    def check(self, spec, out):
        res = CheckResult(notes={"value_fail": 0, "max_shortfall": 0.0})
        window = db.TimeWindow()
        fine = np.linspace(window.t_min, window.t_max,
                           FINE_FACTOR * (window.coarse_steps - 1) + 1)
        for idx, cfg in self._cells(spec):
            p_star, t_star = float(out.values[idx]), float(out.t_star[idx])
            value_ok = abs(p_star - float(db.p12_thermal_jm(cfg, t_star))) <= P_TOL
            shortfall = float(reference_curve(cfg, fine).max()) - p_star
            res.notes["max_shortfall"] = max(res.notes["max_shortfall"], shortfall)
            if not value_ok:
                res.notes["value_fail"] += 1
                res.wrong_value = True
            if not value_ok or shortfall > P_TOL:
                res.failed += 1
        return res

    def input_stats(self, spec):
        sectors = detunings = 0
        for _, cfg in self._cells(spec):
            s, d = sector_counts(cfg)
            sectors += s
            detunings += d
        return {"sectors": sectors, "detunings": detunings}


class ZeroTempGrid(Workload):
    name = "zero-temp-grid"
    why = ("zero-T sweep with thousands of cells: no time scan, all config "
           "replacement, validation and ground-state classification; alpha and N in both orders")
    # calls of about half a second, so a call's latency averages over the
    # VM's short fast/slow swings instead of landing in one of them
    n_gamma, n_q = 100, 100
    nominal_call_s = 0.6
    checked_calls = 6

    def make_spec(self, rng, i):
        # every four specs pair each truly flipped bath with each label the
        # package can give it above q0.  The label follows alpha1 > alpha2,
        # the truth alpha1*N1 > alpha2*N2 (ROADMAP, known defects); the alpha
        # ratio stays below the N ratio, so the two disagree exactly when the
        # orderings of alpha and N do, in two specs of every four.
        n_lo, n_hi = (int(n) for n in np.sort(rng.choice(np.arange(20, 25), 2, replace=False)))
        a_lo = rng.uniform(200.0, 300.0)
        a_hi = a_lo * (1.0 + (n_hi / n_lo - 1.0) * rng.uniform(0.1, 0.9))
        alpha1, alpha2 = (a_hi, a_lo) if i % 2 else (a_lo, a_hi)
        n1, n2 = (n_hi, n_lo) if (i // 2) % 2 else (n_lo, n_hi)
        config = _config(_jitter(rng, 20.0, 0.05), _jitter(rng, 10.0, 0.05),
                         n1, n2, float(alpha1), float(alpha2), 0.0, 0.0,
                         db.ThermalSpec.zero())
        q0 = db.q_threshold(alpha1, alpha2, n1, n2)
        gammas = np.linspace(0.0, rng.uniform(3.0, 5.0), self.n_gamma)
        qs = np.linspace(0.0, 2.0 * q0 * rng.uniform(0.9, 1.1), self.n_q)
        return GridSpec(config, gammas, qs)

    def warmup(self, workdir):
        spec = self.make_spec(np.random.default_rng(0), 0)
        db.sweep(spec.config, [("gamma_both", spec.gammas[:2]), ("q", spec.qs[:2])])

    def ops(self, spec):
        return spec.gammas.size * spec.qs.size

    def call(self, spec):
        return db.sweep(spec.config, [("gamma_both", spec.gammas), ("q", spec.qs)])

    def check(self, spec, out):
        """Cells with a unique enumerated minimiser must sit at its Rabi peak.

        A failing cell is a known defect when the package's label disagrees
        with enumeration and p* is the Rabi peak at the label's own corner.
        """
        c = spec.config
        n1, n2, J = c.bath1.N, c.bath2.N, c.dimer.J

        def peak(m1, m2):
            delta = c.gap + spec.gammas * (m2 - m1) / 2.0
            return J * J / (J * J + delta * delta)

        res = CheckResult(notes={"unchecked": 0, "label_mismatch": 0, "known_defect": 0})
        for j, q in enumerate(spec.qs):
            minimisers, label, defect = ground_state_cases(c, float(q))
            if len(minimisers) != 1:
                res.notes["unchecked"] += spec.gammas.size
                continue
            if defect:
                res.notes["label_mismatch"] += spec.gammas.size
            values = out.values[:, j]
            bad = np.abs(values - peak(*minimisers[0])) > P_TOL
            if not bad.any():
                continue
            if defect:
                s1, s2 = LABEL_CORNER[label]
                known = bad & (np.abs(values - peak(s1 * n1 / 2, s2 * n2 / 2)) <= P_TOL)
            else:
                known = np.zeros_like(bad)
            res.failed += int(bad.sum())
            res.notes["known_defect"] += int(known.sum())
            res.wrong_value |= bool((bad & ~known).any())
        return res


@dataclass
class OracleSpec:
    config: object
    ts: np.ndarray


class OracleCheck(Workload):
    name = "oracle-check"
    why = ("dense H build and eigh at N1+N2 = 8 and 10 against the analytic "
           "curve, at 77 K, 300 K and zero T, with q below and above q0")
    # one 10-spin call, then eight 8-spin calls; a timed run holds whole cycles.
    # Every call has q != 0, so the 8-spin calls build near-equal numbers of
    # terms and the median call is one of them whatever the seed.
    cycle = 9
    n_specs = 9 * 4
    checked_calls = 9     # one cycle; a run holds one or two
    nominal_call_s = 1.5
    # (N1, N2, regime, q/q0 range, alpha1 > alpha2 or None for either).  The
    # zero-T calls above q0 take each ordering of alpha and N once; where the
    # orderings of alpha and alpha*N disagree (two of the four) the package's
    # branch classifier is wrong, a known ROADMAP defect the check reports.
    _small = [(4, 4, "77K", (0.1, 2.0), None), (5, 3, "300K", (0.1, 2.0), None),
              (3, 5, "77K", (0.1, 2.0), None), (4, 4, "zero", (0.1, 0.9), None),
              (5, 3, "zero", (1.1, 2.0), True), (5, 3, "zero", (1.1, 2.0), False),
              (3, 5, "zero", (1.1, 2.0), True), (3, 5, "zero", (1.1, 2.0), False)]

    def make_spec(self, rng, i):
        k = i % self.cycle
        if k == 0:
            n1, n2, regime, q_range, first_larger = (
                5, 5, rng.choice(["77K", "300K", "zero"]), (0.1, 2.0), None)
        else:
            n1, n2, regime, q_range, first_larger = self._small[k - 1]
        alpha1, alpha2 = rng.uniform(200.0, 300.0, 2)
        if first_larger is not None and (alpha1 > alpha2) != first_larger:
            alpha1, alpha2 = alpha2, alpha1
        thermal = (db.ThermalSpec.zero() if regime == "zero"
                   else db.ThermalSpec.kelvin(77.0 if regime == "77K" else 300.0))
        q = rng.uniform(*q_range) * db.q_threshold(alpha1, alpha2, n1, n2)
        config = _config(_jitter(rng, 20.0, 0.05), _jitter(rng, 10.0, 0.05), n1, n2,
                         float(alpha1), float(alpha2), rng.uniform(0.5, 4.0), q, thermal)
        return OracleSpec(config, np.linspace(0.0, 2.0, 50))

    def warmup(self, workdir):
        config = _config(20.0, 10.0, 1, 1, 250.0, 250.0, 2.0, 0.0,
                         db.ThermalSpec.kelvin(300.0))
        self.call(OracleSpec(config, np.linspace(0.0, 2.0, 5)))

    def ops(self, spec):
        return 1

    def call(self, spec):
        c = spec.config
        if c.thermal.is_zero_temperature:
            analytic = db.p12_correlated_zero_temp(c, spec.ts)
        else:
            analytic = db.p12_thermal(c, spec.ts)
        return np.asarray(analytic), np.asarray(db.evolve_probability(c, spec.ts))

    def check(self, spec, out):
        analytic, numeric = out
        dev = float(np.abs(analytic - numeric).max())
        bad = not dev <= ORACLE_TOL
        known = bad and self._known_defect(spec, analytic, numeric)
        return CheckResult(failed=int(bad), wrong_value=bad and not known,
                           notes={"max_dev": dev, "known_defect": int(known)})

    @staticmethod
    def _known_defect(spec, analytic, numeric):
        """A zero-T mismatch from the branch classifier: the oracle gives the
        Rabi curve of the enumerated minimiser, the analytic side the curve of
        the corner the package's label stands for."""
        c = spec.config
        if not c.thermal.is_zero_temperature:
            return False
        minimisers, label, defect = ground_state_cases(c, c.correlation.q)
        if not defect or len(minimisers) != 1:
            return False
        s1, s2 = LABEL_CORNER[label]
        corner = (s1 * c.bath1.N / 2, s2 * c.bath2.N / 2)
        return (np.abs(numeric - rabi_curve(c, *minimisers[0], spec.ts)).max() <= ORACLE_TOL
                and np.abs(analytic - rabi_curve(c, *corner, spec.ts)).max() <= ORACLE_TOL)

    def input_stats(self, spec):
        c = spec.config
        stats = {"dimension": 2 ** (1 + c.bath1.N + c.bath2.N)}
        if not c.thermal.is_zero_temperature:
            stats["sectors"], stats["detunings"] = sector_counts(c)
        return stats


@dataclass
class CurveSpec:
    config: object
    config_path: str
    t_max: float
    steps: int


class CliCurve(Workload):
    name = "cli-curve"
    why = ("in-process `dimer thermal` with 1e5 time points at N=22/20: one "
           "config over a long time axis, plus CSV and manifest output")
    steps = 100_000
    n_specs = 8
    nominal_call_s = 2.3
    checked_calls = 2
    sample_rows = 32

    def make_spec(self, rng, i):
        T = 77.0 if rng.random() < 0.5 else 300.0
        config = _config(_jitter(rng, 20.0, 0.05), _jitter(rng, 10.0, 0.05),
                         22, 20, 250.0, 250.0, rng.uniform(0.5, 4.0),
                         rng.uniform(0.0, 40.0), db.ThermalSpec.kelvin(T))
        return CurveSpec(config, "", float(rng.uniform(5.0, 20.0)), self.steps)

    def prepare(self, specs, workdir):
        for i, spec in enumerate(specs):
            spec.config_path = os.path.join(workdir, f"config{i}.json")
            with open(spec.config_path, "w") as fh:
                json.dump(db.config_to_dict(spec.config), fh)
        self._workdir = workdir
        self._calls = 0

    def warmup(self, workdir):
        path = os.path.join(workdir, "warmup.json")
        config = _config(20.0, 10.0, 22, 20, 250.0, 250.0, 2.0, 0.0,
                         db.ThermalSpec.kelvin(300.0))
        with open(path, "w") as fh:
            json.dump(db.config_to_dict(config), fh)
        code = cli.main(["thermal", "--config", path, "--steps", "100",
                         "--out", os.path.join(workdir, "warmup.csv")])
        if code != 0:
            raise RuntimeError(f"warm-up cli call exited with {code}")

    def ops(self, spec):
        return spec.steps

    def call(self, spec):
        # each call writes its own file so every output can be checked afterwards
        self._calls += 1
        out = os.path.join(self._workdir, f"curve{self._calls}.csv")
        code = cli.main(["thermal", "--config", spec.config_path,
                         "--t-max", repr(spec.t_max), "--steps", str(spec.steps),
                         "--out", out])
        if code != 0:
            raise RuntimeError(f"cli exited with {code}")
        return out

    def check(self, spec, out):
        """Sampled rows re-read within P_TOL of the explicit double sum."""
        with open(out) as fh:
            header = fh.readline().strip()
            rows = fh.read().splitlines()
        ok = header == "t_ps,p12" and len(rows) == spec.steps
        with open(out + ".manifest.json") as fh:
            ok = ok and json.load(fh)["summary"]["points"] == spec.steps
        if ok:
            picks = np.random.default_rng(len(rows)).choice(
                len(rows), self.sample_rows, replace=False)
            tp = np.array([[float(x) for x in rows[k].split(",")] for k in picks])
            ts = np.linspace(0.0, spec.t_max, spec.steps)[picks]
            ok = (np.array_equal(tp[:, 0], ts) and np.abs(
                tp[:, 1] - db.p12_thermal_jm(spec.config, tp[:, 0])).max() <= P_TOL)
        return CheckResult(failed=0 if ok else spec.steps, wrong_value=not ok)

    def input_stats(self, spec):
        sectors, detunings = sector_counts(spec.config)
        return {"sectors": sectors, "detunings": detunings}


WORKLOADS = {w.name: w for w in (ThermalGrid, ZeroTempGrid, OracleCheck, CliCurve)}
