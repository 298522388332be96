"""Acceptance gate: the quantitative claims the package is contracted to meet.

Each test prints a single [PASS]/[FAIL] line with the measured numbers so the
suite output doubles as a compliance report. Tolerances and wall-clock budgets
are asserted exactly as stated; run with `pytest -s tests/test_acceptance.py`
to see every line.
"""

import time

import numpy as np
from scipy.optimize import curve_fit

from rabi_relax.analytic import (ajc_doublet, even_peak_position, jc_doublet,
                                 jc_population, odd_peak_position)
from rabi_relax.dynamics import (StateVector, evolve_effective, evolve_master,
                                 steady_state, transient_snapshot)
from rabi_relax.hilbert import (EVEN, FULL, ODD, BareState, FockCutoff,
                                embed_full, parity_of)
from rabi_relax.model import DensityMatrix, ModelParams, bare_vector
from rabi_relax.spectra import complex_spectrum, find_exceptional_point

FIG3 = dict(delta=0.8, g1=0.1, g2=0.05, kappa=0.02)


def params(n_max=20, **overrides):
    base = dict(FIG3, cutoff=FockCutoff(n_max))
    base.update(overrides)
    return ModelParams(**base)


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def refined_extrema(x, y, kind="max"):
    """Positions of interior local extrema, sharpened by a parabolic fit."""
    y = np.asarray(y, dtype=float)
    if kind == "min":
        y = -y
    out = []
    for i in range(1, len(y) - 1):
        if y[i] > y[i - 1] and y[i] > y[i + 1]:
            denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
            shift = 0.0 if denom == 0.0 else 0.5 * (y[i - 1] - y[i + 1]) / denom
            out.append(x[i] + shift * (x[i + 1] - x[i]))
    return out


def test_criterion_01_chain_spectra_match_doublet_formulas():
    t0 = time.perf_counter()
    worst = 0.0
    for kind, p in (("rotating", params(g1=0.37, g2=0.0)),
                    ("counter", params(g1=0.0, g2=0.29))):
        spectra = {par: complex_spectrum(p, par)[0] for par in (EVEN, ODD)}
        for n in range(9):
            if kind == "rotating":
                sol = jc_doublet(n, p)
                host = parity_of(BareState(n, "e"))
            else:
                sol = ajc_doublet(n, p)
                host = parity_of(BareState(n, "g"))
            for value in (sol.E_plus, sol.E_minus):
                worst = max(worst, np.min(np.abs(spectra[host] - value)))
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1e-8 and elapsed < 1.0,
           f"doublet eigenvalue mismatch {worst:.3e} (tol 1e-8) for n <= 8 "
           f"in both coupling limits, {elapsed:.2f}s (budget 1s)")


def test_criterion_02_exceptional_point_of_the_lowest_doublet():
    t0 = time.perf_counter()
    p = params(delta=1.0, g2=0.0, g1=0.01)
    event = find_exceptional_point(p, 1)
    target = np.sqrt(2.0) * 1e-2
    loc_err = abs(event.value - target) if event is not None else np.inf
    # above the branch point both partners decay at the bare pair-loss rate
    above = p.with_coupling(g1=0.02)
    w, _ = complex_spectrum(above, EVEN)
    pair = w[np.argsort(np.abs(w.real - 1.5))[:2]]
    im_err = np.max(np.abs(pair.imag + above.kappa))
    elapsed = time.perf_counter() - t0
    report(2, loc_err <= 1e-6 and im_err <= 1e-9 and elapsed < 1.0,
           f"branch point at g1 = {getattr(event, 'value', np.nan):.9f} "
           f"(target {target:.9f}, err {loc_err:.2e} <= 1e-6); above it "
           f"max|Im E + kappa| = {im_err:.2e} <= 1e-9; {elapsed:.2f}s (budget 1s)")


def test_criterion_03_master_equation_conserves_structure():
    t0 = time.perf_counter()
    p = params()
    rho0 = DensityMatrix.from_bare(p.cutoff, BareState(2, "g"), basis=FULL)
    traj, _ = evolve_master(rho0, p, np.linspace(0.0, 60.0, 61), store_states=True)
    trace_drift = np.max(np.abs(traj.trace - 1.0))
    min_eig = min(np.min(np.linalg.eigvalsh(s)) for s in traj.states)
    emb = embed_full(p.cutoff)
    odd_idx = emb.chain_order[p.cutoff.dim:]
    leakage = max(np.sum(np.diagonal(s).real[odd_idx]) for s in traj.states)
    elapsed = time.perf_counter() - t0
    report(3, trace_drift <= 1e-8 and min_eig >= -1e-8 and leakage <= 1e-10
           and elapsed < 10.0,
           f"trace drift {trace_drift:.2e} <= 1e-8, min eigenvalue {min_eig:.2e} "
           f">= -1e-8, cross-sector leakage {leakage:.2e} <= 1e-10 over 60 T_c "
           f"in the full basis; {elapsed:.2f}s (budget 10s)")


def test_criterion_04_decoupled_cavity_decays_at_the_pair_rate():
    t0 = time.perf_counter()
    p = params(n_max=8, g1=0.0, g2=0.0)
    rho0 = DensityMatrix.from_bare(p.cutoff, BareState(2, "g"))
    horizon_tc = (100.0 / p.kappa) / np.pi  # 100/kappa in cavity half-periods
    grid = np.linspace(0.0, horizon_tc, 201)
    traj, _ = evolve_master(rho0, p, grid)
    expected = 2.0 * np.exp(-4.0 * p.kappa * (grid * np.pi / p.omega))
    err = np.max(np.abs(traj.mean_photon - expected))
    elapsed = time.perf_counter() - t0
    report(4, err <= 1e-6,
           f"max |<n>(t) - 2 exp(-4 kappa t)| = {err:.2e} <= 1e-6 out to "
           f"t = 100/kappa; {elapsed:.2f}s")


def test_criterion_05_three_routes_to_the_doublet_transfer():
    t0 = time.perf_counter()
    p = params(n_max=12, delta=1.0, g2=0.0)
    grid = np.linspace(0.0, 10.0, 81)
    t_abs = grid * np.pi / p.omega
    closed = jc_population(2, t_abs, p)
    rho0 = DensityMatrix.from_bare(p.cutoff, BareState(2, "e"))
    traj, _ = evolve_master(rho0, p, grid, store_states=True)
    master = np.array([s[3, 3].real for s in traj.states])
    psi0 = StateVector(ODD, bare_vector(p.cutoff, BareState(2, "e")))
    raw = evolve_effective(psi0, p, grid, renormalize=False)
    effective = raw.trace - raw.qubit_excitation
    worst = max(np.max(np.abs(master - closed)),
                np.max(np.abs(effective - closed)),
                np.max(np.abs(master - effective)))
    elapsed = time.perf_counter() - t0
    report(5, worst <= 1e-6 and elapsed < 5.0,
           f"closed form, master equation and pure-state decay agree on the "
           f"|2,e> -> |3,g> transfer to {worst:.2e} <= 1e-6 over 10 T_c; "
           f"{elapsed:.2f}s (budget 5s)")


def lineshape_center(x, y, peak, half_width=0.2):
    """Resonance position of a local maximum, deconvolved from its background.

    The raw curve maximum of a resonance sitting on a sloped background is
    displaced downhill; fitting a Lorentzian plus a linear floor recovers the
    underlying center. The window is anchored on the located maximum, never on
    any expected position.
    """
    sel = np.abs(x - peak) < half_width
    seed = (y[sel].max() - y[sel].min(), peak, 0.05, y[sel].min(), 0.0)
    popt, _ = curve_fit(
        lambda t, A, c, w, a, b: A * w ** 2 / ((t - c) ** 2 + w ** 2) + a + b * t,
        x[sel], y[sel], p0=seed, maxfev=20000)
    return popt[1]


def test_criterion_06_even_sector_steady_peak_series():
    t0 = time.perf_counter()
    p = params(g2=0.15)
    grid = np.linspace(0.5, 2.0, 150)
    photon = np.empty_like(grid)
    for i, g1 in enumerate(grid):
        rep = steady_state(p.with_coupling(g1=g1), EVEN, method="null_space")
        assert rep.converged
        photon[i] = rep.mean_photon
    peaks = [lineshape_center(grid, photon, pk)
             for pk in refined_extrema(grid, photon)]
    targets = [even_peak_position(1, p), even_peak_position(2, p)]
    errs = [min(abs(pk - t) for pk in peaks) if peaks else np.inf for t in targets]
    elapsed = time.perf_counter() - t0
    report(6, max(errs) <= 0.02 and elapsed < 600.0,
           f"steady photon maxima within {max(errs):.4f} <= 0.02 of "
           f"sqrt(1.8) = {targets[0]:.4f} and sqrt(3.8) = {targets[1]:.4f}; "
           f"{elapsed:.1f}s (budget 600s)")


def test_criterion_07_odd_sector_photon_peak_and_qubit_valley():
    t0 = time.perf_counter()
    p = params(g1=0.01)
    grid = np.linspace(0.2, 0.7, 101)
    photon = np.empty_like(grid)
    qubit = np.empty_like(grid)
    for i, g2 in enumerate(grid):
        rep = steady_state(p.with_coupling(g2=g2), ODD, method="null_space")
        photon[i] = rep.mean_photon
        qubit[i] = rep.qubit_excitation
    target = odd_peak_position(1, p)
    peak_err = min((abs(pk - target) for pk in refined_extrema(grid, photon)),
                   default=np.inf)
    valley_err = min((abs(v - target) for v in refined_extrema(grid, qubit, "min")),
                     default=np.inf)
    elapsed = time.perf_counter() - t0
    report(7, peak_err <= 0.03 and valley_err <= 0.03 and elapsed < 300.0,
           f"photon peak within {peak_err:.4f} and qubit valley within "
           f"{valley_err:.4f} of sqrt(0.2) = {target:.4f} (tol 0.03); "
           f"{elapsed:.1f}s (budget 300s)")


def test_criterion_08_transient_hump_drifts_left_and_dies_out():
    t0 = time.perf_counter()
    p = params()
    lam = 0.5
    grid = np.linspace(0.01, 0.2, 39)
    snap60, snap120 = transient_snapshot(grid, lam, p, EVEN, (60.0, 120.0))
    pos60 = refined_extrema(grid, snap60[:, 2])
    pos120 = refined_extrema(grid, snap120[:, 2])
    steady_q = np.array([
        steady_state(p.with_ratio(g1, lam), EVEN, method="null_space").qubit_excitation
        for g1 in grid])
    bump = any(steady_q[i] > steady_q[i - 1] + 1e-4 and
               steady_q[i] > steady_q[i + 1] + 1e-4
               for i in range(1, len(steady_q) - 1))
    inside = len(pos60) > 0 and 0.02 < pos60[0] < 0.10
    drifts = len(pos120) > 0 and inside and pos120[0] < pos60[0]
    elapsed = time.perf_counter() - t0
    report(8, inside and drifts and not bump and elapsed < 900.0,
           f"snapshot qubit maximum at g1 = {pos60[0] if pos60 else np.nan:.4f} "
           f"inside (0.02, 0.10), moves to {pos120[0] if pos120 else np.nan:.4f} "
           f"at the later snapshot, and no residual bump above 1e-4 survives in "
           f"the converged steady curve; {elapsed:.1f}s (budget 900s)")


def test_criterion_09_lossless_odd_manifold_never_relaxes():
    t0 = time.perf_counter()
    p = params(n_max=12, g2=0.0)
    rep = steady_state(p, ODD, method="long_time")
    total = rep.mean_photon + rep.qubit_excitation
    elapsed = time.perf_counter() - t0
    report(9, (not rep.converged) and abs(total - 1.0) <= 1e-3,
           f"no steady state reported (converged={rep.converged}) and the "
           f"time-averaged excitation number is {total:.6f} = 1 +/- 1e-3; "
           f"{elapsed:.1f}s")


def test_criterion_10_no_jump_trajectories_keep_beating():
    t0 = time.perf_counter()
    p = params(n_max=16, g2=0.15)
    grid = np.linspace(1.1, 1.6, 11)
    window = np.linspace(980.0, 1000.0, 81)
    var_master = np.empty_like(grid)
    var_eff = np.empty_like(grid)
    mean_master = np.empty_like(grid)
    mean_eff = np.empty_like(grid)
    psi0 = StateVector(EVEN, bare_vector(p.cutoff, BareState(2, "g")))
    for i, g1 in enumerate(grid):
        point = p.with_coupling(g1=g1)
        rep = steady_state(point, EVEN, method="long_time", obs_tol=0.0,
                           window_tc=20.0, cap_tc=1000.0, sample_dt_tc=2.5)
        var_master[i] = rep.window_variance
        mean_master[i] = rep.mean_photon
        traj = evolve_effective(psi0, point, window)
        var_eff[i] = np.var(traj.mean_photon)
        mean_eff[i] = np.mean(traj.mean_photon)
    ratio = np.mean(var_eff) / max(np.mean(var_master), 1e-300)
    step = grid[1] - grid[0]
    pos_gap = abs(grid[np.argmax(mean_master)] - grid[np.argmax(mean_eff)])
    elapsed = time.perf_counter() - t0
    report(10, ratio >= 10.0 and pos_gap <= step + 1e-12,
           f"at t = 1000 T_c the no-jump window variance exceeds the master "
           f"window variance {ratio:.1e}x (>= 10x) and the photon-peak "
           f"positions agree within one grid step ({pos_gap:.3f} <= {step:.3f}); "
           f"{elapsed:.1f}s")


def test_criterion_11_steady_state_forgets_the_initial_state():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260815)
    worst = 0.0
    pts = []
    for _ in range(3):
        g1, g2 = rng.uniform(0.4, 1.2, size=2)
        p = params(n_max=16, g1=g1, g2=g2)
        rep_a = steady_state(p, EVEN, method="long_time", initial=BareState(0, "g"))
        rep_b = steady_state(p, EVEN, method="long_time", initial=BareState(2, "g"))
        assert rep_a.converged and rep_b.converged
        worst = max(worst, abs(rep_a.mean_photon - rep_b.mean_photon),
                    abs(rep_a.qubit_excitation - rep_b.qubit_excitation))
        pts.append((float(g1), float(g2)))
    elapsed = time.perf_counter() - t0
    report(11, worst <= 1e-5,
           f"steady observables from vacuum and from |2,g> differ by at most "
           f"{worst:.2e} <= 1e-5 at three random couplings "
           f"{[(round(a, 3), round(b, 3)) for a, b in pts]}; {elapsed:.1f}s")
