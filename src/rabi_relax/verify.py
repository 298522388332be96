"""Analytic-vs-numeric verification suite.

Each check pits an independent closed-form result from the analytic module
against the numerical machinery (diagonalization or integration), or asserts
a structural conservation law. Checks take the user's model parameters where
that makes sense and pin the couplings to a solvable limit where it does not.
All failures, including deliberate truncation aborts, are captured in the
report rather than raised.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import analytic, dynamics, spectra
from .hilbert import (EVEN, FULL, GROUND, ODD, BareState, build_parity_chain,
                      parity_of, parity_operator)
from .model import DEFAULT_CUTOFF, DensityMatrix, ModelParams


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


DEFAULT_PARAMS = ModelParams(delta=0.8, g1=0.1, g2=0.05, kappa=0.02, omega=1.0,
                             cutoff=DEFAULT_CUTOFF)


def _expected_chain_levels(params: ModelParams, parity, flavor: str) -> np.ndarray:
    """Closed-form eigenvalues of one chain in a decoupled-flavor limit.

    The chain splits into 2x2 doublet blocks plus one unpaired edge state;
    which photon numbers pair up depends on the chain and the flavor.
    """
    cut = params.cutoff
    bits = build_parity_chain(parity, cut).excitation_bits()
    vals = []
    k = 0
    while k < cut.dim:
        paired = k + 1 < cut.dim and ((flavor == analytic.JC and bits[k] == 1)
                                      or (flavor == analytic.AJC and bits[k] == 0))
        if paired:
            sol = (analytic.jc_doublet(k, params) if flavor == analytic.JC
                   else analytic.ajc_doublet(k, params))
            vals += [sol.E_plus, sol.E_minus]
            k += 2
        else:
            vals.append(analytic.decoupled_eigenvalue(k, 1 if bits[k] else -1, params))
            k += 1
    return np.array(sorted(vals, key=lambda z: (z.real, z.imag)))


def _check_limit_spectrum(name: str, params: ModelParams, flavor: str) -> CheckResult:
    worst = 0.0
    for parity in (EVEN, ODD):
        w, _ = spectra.complex_spectrum(params, parity)
        expected = _expected_chain_levels(params, parity, flavor)
        worst = max(worst, float(np.abs(w - expected).max()))
    passed = worst <= 1e-8 * params.omega
    return CheckResult(name, passed,
                       f"max |numeric - closed form| = {worst:.3e} (tol 1e-08)")


def check_jc_spectrum(params: ModelParams) -> CheckResult:
    return _check_limit_spectrum("jc-spectrum", dataclasses.replace(params, g2=0.0),
                                 analytic.JC)


def check_ajc_spectrum(params: ModelParams) -> CheckResult:
    return _check_limit_spectrum("ajc-spectrum", dataclasses.replace(params, g1=0.0),
                                 analytic.AJC)


def check_doublet_dynamics(params: ModelParams) -> CheckResult:
    """Exact doublet transfer population vs the package integrator.

    At g2 = 0 the state launched from |2,g> stays inside the n=1 doublet, so
    the raw (unrenormalized) excited-qubit weight is exactly the transfer
    population into |1,e>; same story on the other flavor from |1,g>.
    """
    t_tc = np.linspace(0.0, 10.0, 21)[1:]
    t_abs = t_tc * math.pi / params.omega
    worst = 0.0
    for flavor, limit, state, parity, n in (
            (analytic.JC, dataclasses.replace(params, g2=0.0), BareState(2, GROUND), EVEN, 1),
            (analytic.AJC, dataclasses.replace(params, g1=0.0), BareState(1, GROUND), ODD, 1)):
        psi0 = dynamics.StateVector.from_bare(limit.cutoff, state, parity)
        traj = dynamics.evolve_effective(psi0, limit, t_tc, renormalize=False)
        exact = np.array([
            analytic.jc_population(n, t, limit) if flavor == analytic.JC
            else analytic.ajc_population(n, t, limit) for t in t_abs])
        worst = max(worst, float(np.abs(traj.qubit_excitation - exact).max()))
    passed = worst <= 1e-8
    return CheckResult("doublet-dynamics", passed,
                       f"max |integrated - closed form| = {worst:.3e} (tol 1e-08)")


def check_conservation(params: ModelParams, initial: BareState) -> CheckResult:
    rho0 = DensityMatrix.from_bare(params.cutoff, initial, FULL)
    traj, rho_t = dynamics.evolve_master(rho0, params, np.linspace(0.0, 10.0, 21),
                                         store_states=True)
    trace_drift = float(np.abs(traj.trace - 1.0).max())
    purity_excess = float((traj.purity - 1.0).max())
    par_diag = np.diagonal(parity_operator(params.cutoff).entries).real
    par = np.array([np.diagonal(s).real @ par_diag for s in traj.states])
    parity_drift = float(np.abs(par - par[0]).max())
    wrong = par_diag != float(parity_of(initial))
    leakage = float(max(np.diagonal(s).real[wrong].sum() for s in traj.states))
    passed = (trace_drift <= 1e-8 and parity_drift <= 1e-10
              and leakage <= 1e-10 and purity_excess <= 1e-10)
    return CheckResult("conservation", passed,
                       f"trace drift {trace_drift:.3e}, parity drift {parity_drift:.3e}, "
                       f"cross-sector leakage {leakage:.3e}, purity excess {purity_excess:.3e}")


def check_decoupled_decay(params: ModelParams) -> CheckResult:
    """g1 = g2 = 0: |2,g> empties by pair emission at rate 2*kappa*n*(n-1)."""
    bare = dataclasses.replace(params, g1=0.0, g2=0.0)
    t_tc = np.linspace(0.0, 30.0, 16)
    rho0 = DensityMatrix.from_bare(bare.cutoff, BareState(2, GROUND), EVEN)
    traj, _ = dynamics.evolve_master(rho0, bare, t_tc)
    expected = 2.0 * np.exp(-4.0 * bare.kappa * t_tc * math.pi / bare.omega)
    worst = float(np.abs(traj.mean_photon - expected).max())
    passed = worst <= 1e-8
    return CheckResult("decoupled-decay", passed,
                       f"max |<n> - 2 exp(-4 kappa t)| = {worst:.3e} (tol 1e-08)")


def check_exceptional_point(params: ModelParams) -> CheckResult:
    resonant = dataclasses.replace(params, delta=params.omega, g2=0.0,
                                   g1=0.01 * params.omega)
    if params.kappa == 0.0:
        event = spectra.find_exceptional_point(resonant, 1)
        passed = event is None
        return CheckResult("exceptional-point", passed,
                           "kappa = 0: no exceptional point expected"
                           + ("" if passed else f", but one was found at {event.value:g}"))
    event = spectra.find_exceptional_point(resonant, 1)
    predicted = analytic.ep_position(1, resonant) * resonant.omega
    if event is None:
        return CheckResult("exceptional-point", False,
                           f"no closure found; analytic value g1 = {predicted:.9g}")
    err = abs(event.value - predicted)
    return CheckResult("exceptional-point", err <= 1e-6,
                       f"measured g1/omega = {event.value / resonant.omega:.9f}, "
                       f"analytic {predicted / resonant.omega:.9f}, |diff| = {err:.3e}")


def _nearest_pair_event(events, target: float):
    pair0 = [ev for ev in events if ev.levels == (0, 1)]
    if not pair0:
        return None
    return min(pair0, key=lambda ev: abs(ev.value - target))


def check_peak_positions(params: ModelParams) -> CheckResult:
    details = []
    ok = True
    # even sector: lowest level pair closes in on the first predicted peak
    g2_probe = params.g2 if params.g2 > 0 else 0.15 * params.omega
    even_base = dataclasses.replace(params, g2=g2_probe)
    target = analytic.even_peak_position(1, params) * params.omega
    grid = np.linspace(target - 0.25, target + 0.25, 51)
    sweep = spectra.sweep_spectrum(even_base, EVEN, "g1", grid)
    event = _nearest_pair_event(spectra.find_avoided_crossings(sweep, gap_threshold=0.4),
                                target)
    if event is None or abs(event.value - target) > 0.02:
        ok = False
        got = "none" if event is None else f"{event.value:.4f}"
        details.append(f"even: expected g1 ~ {target:.4f}, got {got}")
    else:
        details.append(f"even: g1 = {event.value:.4f} vs {target:.4f}")
    # odd sector, when the formula has a real root
    try:
        target_o = analytic.odd_peak_position(1, params) * params.omega
    except ValueError:
        details.append("odd: no real crossing for these detunings")
        target_o = None
    if target_o is not None:
        g1_probe = min(params.g1, 0.01 * params.omega) or 0.01 * params.omega
        odd_base = dataclasses.replace(params, g1=g1_probe)
        grid = np.linspace(max(target_o - 0.25, 1e-3), target_o + 0.25, 51)
        sweep = spectra.sweep_spectrum(odd_base, ODD, "g2", grid)
        event = _nearest_pair_event(spectra.find_avoided_crossings(sweep, gap_threshold=0.4),
                                    target_o)
        if event is None or abs(event.value - target_o) > 0.02:
            ok = False
            got = "none" if event is None else f"{event.value:.4f}"
            details.append(f"odd: expected g2 ~ {target_o:.4f}, got {got}")
        else:
            details.append(f"odd: g2 = {event.value:.4f} vs {target_o:.4f}")
    return CheckResult("peak-positions", ok, "; ".join(details))


def check_truncation(params: ModelParams, parity, initial: BareState | None) -> CheckResult:
    shift = dynamics.truncation_check(params, parity, 10.0, initial)
    passed = shift <= 1e-6
    return CheckResult("truncation", passed,
                       f"observable shift under cutoff doubling = {shift:.3e} (tol 1e-06)")


def run_all(params: ModelParams | None = None, parity=EVEN,
            initial: BareState | None = None) -> list:
    """Run every check, trapping failures (including truncation aborts)."""
    params = params if params is not None else DEFAULT_PARAMS
    state = initial if initial is not None else dynamics.canonical_initial_state(parity)
    plan = (
        ("jc-spectrum", lambda: check_jc_spectrum(params)),
        ("ajc-spectrum", lambda: check_ajc_spectrum(params)),
        ("doublet-dynamics", lambda: check_doublet_dynamics(params)),
        ("conservation", lambda: check_conservation(params, state)),
        ("decoupled-decay", lambda: check_decoupled_decay(params)),
        ("exceptional-point", lambda: check_exceptional_point(params)),
        ("peak-positions", lambda: check_peak_positions(params)),
        ("truncation", lambda: check_truncation(params, parity, state)),
    )
    results = []
    for name, run in plan:
        try:
            results.append(run())
        except Exception as exc:  # deliberate: the report absorbs all failures
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results
