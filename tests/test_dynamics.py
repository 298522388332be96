"""Master-equation and effective-Hamiltonian propagation.

Frozen observables come from an out-of-tree oracle that exponentiated the
vectorized generator with scipy.linalg.expm and solved the stationary kernel
by SVD on independently rebuilt matrices.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from rabi_relax.dynamics import (_PROP_SUPERDIM_MAX, SolverError, StateVector,
                                 TruncationError, _kernel_report, _svd_kernel,
                                 _TaylorPropagator,
                                 canonical_initial_state, evolve_effective,
                                 evolve_master, observables, steady_map,
                                 steady_state, transient_snapshot,
                                 truncation_check)
from rabi_relax.analytic import jc_population
from rabi_relax.hilbert import EVEN, FULL, ODD, BareState, FockCutoff, embed_full
from rabi_relax.model import (DensityMatrix, ModelParams, _liouvillian_sparse,
                              bare_vector, liouvillian_matrix)

FIG_PARAMS = dict(delta=0.8, g1=0.1, g2=0.05, kappa=0.02)


def params(n_max=12, **overrides):
    base = dict(FIG_PARAMS, cutoff=FockCutoff(n_max))
    base.update(overrides)
    return ModelParams(**base)


# -------------------------------------------------------------- master path

def test_master_observables_match_exponentiated_generator():
    # oracle: expm(L * 5 T_c) applied to |2,g><2,g| on the even chain
    p = params(n_max=12)
    rho0 = DensityMatrix.from_bare(p.cutoff, BareState(2, "g"))
    traj, _ = evolve_master(rho0, p, np.linspace(0.0, 5.0, 11))
    assert traj.mean_photon[-1] == pytest.approx(0.899088920866076, abs=1e-9)
    assert traj.qubit_excitation[-1] == pytest.approx(0.08730661321258383, abs=1e-9)
    assert traj.trace[-1] == pytest.approx(1.0, abs=1e-10)
    assert traj.purity[-1] == pytest.approx(0.498808427544725, abs=1e-9)


def test_master_keeps_physicality_over_long_runs():
    p = params(n_max=10)
    rho0 = DensityMatrix.from_bare(p.cutoff, BareState(2, "g"))
    traj, rho_end = evolve_master(rho0, p, np.linspace(0.0, 60.0, 61))
    assert np.max(np.abs(traj.trace - 1.0)) < 1e-12
    assert np.all(traj.purity <= 1.0 + 1e-12)
    assert np.all((traj.qubit_excitation >= -1e-12) & (traj.qubit_excitation <= 1.0 + 1e-12))
    assert np.min(np.linalg.eigvalsh(rho_end.entries)) > -1e-10


@pytest.mark.parametrize("n_max", [8, 20])
def test_chain_and_full_basis_propagation_agree(n_max):
    # at n_max 20 the full basis (superoperator dim 1764) takes the sparse
    # Taylor kernel while the chain keeps the dense RK4 propagator
    p = params(n_max=n_max)
    chain_rho = DensityMatrix.from_bare(p.cutoff, BareState(2, "g"))
    full_rho = DensityMatrix.from_bare(p.cutoff, BareState(2, "g"), basis=FULL)
    grid = np.linspace(0.0, 7.0, 15)
    t_chain, _ = evolve_master(chain_rho, p, grid)
    t_full, rho_full = evolve_master(full_rho, p, grid)
    assert np.max(np.abs(t_chain.mean_photon - t_full.mean_photon)) < 1e-10
    assert np.max(np.abs(t_chain.qubit_excitation - t_full.qubit_excitation)) < 1e-10
    # the full propagation never leaks into the odd sector
    emb = embed_full(p.cutoff)
    arr = rho_full.entries[np.ix_(emb.chain_order, emb.chain_order)]
    d = p.cutoff.dim
    assert np.max(np.abs(arr[:d, d:])) < 1e-12
    assert np.max(np.abs(np.diagonal(arr[d:, d:]))) < 1e-12


def test_store_states_returns_snapshots_on_the_grid():
    p = params(n_max=6)
    rho0 = DensityMatrix.from_bare(p.cutoff, BareState(2, "g"))
    grid = np.array([0.0, 1.5, 3.0])
    traj, rho_end = evolve_master(rho0, p, grid, store_states=True)
    assert len(traj.states) == 3
    assert np.array_equal(traj.states[0], rho0.entries)
    assert np.array_equal(traj.states[-1], rho_end.entries)
    photon, qubit, trace, _ = observables(DensityMatrix(EVEN, traj.states[1]))
    assert photon == pytest.approx(traj.mean_photon[1], abs=1e-12)
    assert qubit == pytest.approx(traj.qubit_excitation[1], abs=1e-12)
    assert trace == pytest.approx(traj.trace[1], abs=1e-13)


def test_zero_length_and_singleton_grids():
    p = params(n_max=6)
    rho0 = DensityMatrix.from_bare(p.cutoff, BareState(2, "g"))
    traj, rho_end = evolve_master(rho0, p, [0.0])
    assert traj.times.shape == (1,)
    assert traj.mean_photon[0] == pytest.approx(2.0, abs=1e-14)
    assert np.array_equal(rho_end.entries, rho0.entries)


def test_grid_validation():
    p = params(n_max=6)
    rho0 = DensityMatrix.from_bare(p.cutoff, BareState(2, "g"))
    with pytest.raises(ValueError):
        evolve_master(rho0, p, [1.0, 0.5])
    with pytest.raises(ValueError):
        evolve_master(rho0, p, [-1.0, 0.5])
    with pytest.raises(ValueError):
        evolve_master(rho0, p, [])


def test_initial_support_near_the_cutoff_is_rejected():
    p = params(n_max=6)
    rho0 = DensityMatrix.from_bare(p.cutoff, BareState(5, "e"))
    with pytest.raises(TruncationError, match="n_max"):
        evolve_master(rho0, p, [0.0, 1.0])


@pytest.mark.parametrize("solver", ["master", "effective"])
def test_population_reaching_the_cutoff_aborts_evolution(solver):
    # |2,g> starts two levels below a cutoff of 4, but at g = 2 the coupling
    # pushes 0.1-0.2 of the population into n = 3, 4 by the first sample (1 T_c)
    p = params(n_max=4, g1=2.0, g2=2.0)
    grid = np.linspace(0.0, 60.0, 61)
    with pytest.raises(TruncationError, match=r"n_max=4 .*\(raise n_max\)"):
        if solver == "master":
            evolve_master(DensityMatrix.from_bare(p.cutoff, BareState(2, "g")), p, grid)
        else:
            evolve_effective(StateVector.from_bare(p.cutoff, BareState(2, "g")), p, grid)


# ------------------------------------------------------ sparse Taylor kernel

@pytest.mark.parametrize("t_tc", [0.0, 0.3, 60.0])
def test_taylor_kernel_matches_dense_exponential(t_tc):
    p = params(n_max=8)
    lsp = _liouvillian_sparse(p, EVEN)
    psi = bare_vector(p.cutoff, BareState(2, "g")) + bare_vector(p.cutoff, BareState(1, "e"))
    v = np.outer(psi, psi.conj()).reshape(-1) / 2.0
    dt = t_tc * np.pi / p.omega
    got = _TaylorPropagator(lsp).apply(v, dt)
    assert np.max(np.abs(got - expm(lsp.toarray() * dt) @ v)) < 1e-12


def test_fig3_dynamics_above_the_size_switch_match_dense_exponential():
    # n_max 40 takes the sparse Taylor kernel (dim^2 = 1681) without building
    # the dense Liouvillian; the reference applies expm(L * 1 T_c) repeatedly
    p = params(n_max=40)
    assert p.cutoff.dim ** 2 > _PROP_SUPERDIM_MAX
    rho0 = DensityMatrix.from_bare(p.cutoff, BareState(2, "g"))
    misses = liouvillian_matrix.cache_info().misses
    traj, _ = evolve_master(rho0, p, np.linspace(0.0, 60.0, 601), store_states=True)
    assert liouvillian_matrix.cache_info().misses == misses
    step = expm(_liouvillian_sparse(p, EVEN).toarray() * (np.pi / p.omega))
    v = rho0.entries.reshape(-1).astype(complex)
    for k in range(1, 61):
        v = step @ v
        if k in (1, 7, 30, 60):
            assert np.max(np.abs(traj.states[10 * k].reshape(-1) - v)) < 1e-12


# ----------------------------------------------------------- effective path

def test_effective_norm_decay_tracks_renormalization():
    p = params(n_max=10, g2=0.0)
    psi0 = StateVector(EVEN, bare_vector(p.cutoff, BareState(2, "g")))
    grid = np.linspace(0.0, 10.0, 21)
    raw = evolve_effective(psi0, p, grid, renormalize=False)
    ren = evolve_effective(psi0, p, grid, renormalize=True)
    # trace column carries the squared norm, which only decays
    assert raw.trace[0] == pytest.approx(1.0, abs=1e-13)
    assert np.all(np.diff(raw.trace) <= 1e-13)
    assert np.all(raw.trace[1:] < 1.0)
    # renormalized observables are the raw ones divided by the norm
    assert np.allclose(ren.mean_photon, raw.mean_photon / raw.trace, atol=1e-11)
    assert np.allclose(ren.qubit_excitation, raw.qubit_excitation / raw.trace, atol=1e-11)
    assert np.all(ren.purity == 1.0)


def test_effective_raw_population_matches_closed_form():
    # lower doublet transfer |2,e> -> |3,g> against the analytic amplitude
    p = params(n_max=12, g2=0.0, delta=1.0)
    psi0 = StateVector(ODD, bare_vector(p.cutoff, BareState(2, "e")))
    grid = np.linspace(0.0, 8.0, 33)
    raw = evolve_effective(psi0, p, grid, renormalize=False)
    transfer = raw.trace - raw.qubit_excitation
    ref = jc_population(2, grid * np.pi / p.omega, p)
    # bounded by the fixed-step discretization error, far below the 1e-6
    # agreement the solver advertises
    assert np.max(np.abs(transfer - ref)) < 3e-8


def test_effective_rejects_unnormalized_claims():
    p = params(n_max=6)
    with pytest.raises(ValueError):
        StateVector(EVEN, np.array([2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        StateVector(EVEN, 2.0 * bare_vector(p.cutoff, BareState(2, "g")))
    unnorm = StateVector(EVEN, 2.0 * bare_vector(p.cutoff, BareState(2, "g")),
                         normalized=False)
    assert unnorm.amplitudes[2] == 2.0


# ------------------------------------------------------------- steady state

def test_steady_state_dual_route_against_frozen_kernel():
    p = params(n_max=14, g1=0.4, g2=0.2)
    direct = steady_state(p, EVEN, method="null_space")
    assert direct.converged
    assert direct.mean_photon == pytest.approx(0.01656966221388195, abs=1e-9)
    assert direct.qubit_excitation == pytest.approx(0.014246630952893068, abs=1e-9)
    relaxed = steady_state(p, EVEN, method="long_time")
    assert relaxed.converged
    assert relaxed.mean_photon == pytest.approx(direct.mean_photon, abs=1e-5)
    assert relaxed.qubit_excitation == pytest.approx(direct.qubit_excitation, abs=1e-5)
    assert relaxed.residual <= 1e-6


def test_steady_state_routes_see_the_same_density_matrix():
    p = params(n_max=10, g1=0.3, g2=0.12)
    direct = steady_state(p, EVEN, method="null_space")
    relaxed = steady_state(p, EVEN, method="long_time")
    assert np.max(np.abs(direct.rho_ss.entries - relaxed.rho_ss.entries)) < 1e-5


def test_decoupled_kernel_is_degenerate():
    p = params(n_max=8, g1=0.0, g2=0.0)
    rep = steady_state(p, EVEN, method="null_space")
    assert not rep.converged
    assert "degenerate" in rep.note
    # any reported representative must still be a valid stationary state
    assert rep.residual < 1e-10


# couplings down the near-degenerate ladder g1 = g2 -> 0, where the kernel
# turns two-dimensional below about 1e-4, plus the lossless odd doublet
@pytest.mark.parametrize("parity", [EVEN, ODD])
@pytest.mark.parametrize("g1, g2", [(0.4, 0.2), (1e-1, 1e-1), (1e-3, 1e-3), (1e-4, 1e-4),
                                    (1e-5, 1e-5), (1e-6, 1e-6), (1e-8, 1e-8), (0.1, 0.0)])
def test_direct_kernel_matches_the_svd_oracle(parity, g1, g2):
    p = params(n_max=8, g1=g1, g2=g2)
    direct = steady_state(p, parity, method="null_space")
    oracle = _kernel_report(p, parity, _liouvillian_sparse(p, parity), _svd_kernel(p, parity),
                            1e-6)
    assert (direct.converged, direct.note) == (oracle.converged, oracle.note)
    # the oracle's own error grows as eps * sigma_max / sigma_2 of L: 2.5e-12
    # at g = 1e-3 in the odd sector, where the direct solve is exact to 1e-20
    assert direct.mean_photon == pytest.approx(oracle.mean_photon, abs=5e-12)
    assert direct.qubit_excitation == pytest.approx(oracle.qubit_excitation, abs=5e-12)


def test_direct_kernel_is_exact_where_the_svd_is_ill_conditioned():
    # 40-digit mpmath solve of the same trace-bordered system (sigma_max /
    # sigma_2 of L is 2.4e8); the SVD oracle is off by 2.5e-12 here
    p = params(n_max=8, g1=1e-3, g2=1e-3)
    rep = steady_state(p, ODD, method="null_space")
    assert rep.converged
    assert rep.mean_photon == pytest.approx(2.4998668464741900473e-05, abs=1e-17)


def test_unique_kernel_needs_no_dense_liouvillian():
    p = params(n_max=9, g1=0.37, g2=0.11)
    misses = liouvillian_matrix.cache_info().misses
    rep = steady_state(p, ODD, method="null_space")
    assert rep.converged
    assert liouvillian_matrix.cache_info().misses == misses


def test_long_time_above_the_size_switch_needs_no_dense_liouvillian():
    p = params(n_max=40)
    misses = liouvillian_matrix.cache_info().misses
    rep = steady_state(p, EVEN, method="long_time", window_tc=1.0, cap_tc=2.0)
    assert liouvillian_matrix.cache_info().misses == misses
    assert np.isfinite(rep.residual)


@pytest.mark.parametrize("method", ["null_space", "long_time"])
def test_steady_state_population_at_the_cutoff_is_flagged(method):
    # at g = 2 a cutoff of 4 leaves 0.31 of the steady population in n = 3, 4
    p = params(n_max=4, g1=2.0, g2=2.0)
    rep = steady_state(p, EVEN, method=method)
    assert not rep.converged
    assert "n_max=4" in rep.note
    assert steady_state(params(n_max=14, g1=0.4, g2=0.2), EVEN, method=method).converged


def test_lossless_cascade_never_converges():
    # pure two-level recurrence in the odd sector: |0,e> <-> |1,g> keeps
    # oscillating because the pair-loss operator annihilates both states
    p = params(n_max=8, g2=0.0)
    rep = steady_state(p, ODD, method="long_time", cap_tc=120.0, window_tc=10.0)
    assert not rep.converged
    assert "no convergence" in rep.note
    assert rep.window_variance > 1e-6
    total = rep.mean_photon + rep.qubit_excitation
    assert total == pytest.approx(1.0, abs=1e-3)


def test_steady_map_preserves_point_order():
    p = params(n_max=8)
    pts = [(0.05, 0.0), (0.1, 0.05), (0.2, 0.1)]
    rows = steady_map(pts, p, EVEN, method="null_space")
    assert [(g1, g2) for g1, g2, _ in rows] == pts
    singles = [steady_state(p.with_coupling(g1=g1, g2=g2), EVEN, method="null_space")
               for g1, g2 in pts]
    for (_, _, rep), ref in zip(rows, singles):
        assert rep.mean_photon == pytest.approx(ref.mean_photon, abs=1e-12)


# ------------------------------------------------------ snapshots and guards

def test_transient_snapshot_matches_direct_evolution():
    p = params(n_max=10)
    lam = 0.5
    g1_values = np.array([0.05, 0.1])
    out = transient_snapshot(g1_values, lam, p, EVEN, (5.0, 12.0))
    assert out.shape == (2, 2, 3)
    point = p.with_ratio(0.1, lam)
    rho0 = DensityMatrix.from_bare(p.cutoff, canonical_initial_state(EVEN))
    traj, _ = evolve_master(rho0, point, np.linspace(0.0, 12.0, 13))
    for block, k in zip(out, (5, 12)):
        assert block[1, 0] == pytest.approx(0.1, abs=0)
        assert block[1, 1] == pytest.approx(traj.mean_photon[k], abs=1e-9)
        assert block[1, 2] == pytest.approx(traj.qubit_excitation[k], abs=1e-9)


def test_truncation_check_is_small_when_cutoff_is_generous():
    p = params(n_max=8)
    assert truncation_check(p, EVEN, 5.0) < 1e-6


def test_canonical_initial_states():
    assert canonical_initial_state(EVEN) == BareState(2, "g")
    assert canonical_initial_state(ODD) == BareState(3, "g")
    with pytest.raises(ValueError):
        canonical_initial_state(0)


def test_observables_dispatch_on_state_kind():
    p = params(n_max=6)
    psi = StateVector(EVEN, bare_vector(p.cutoff, BareState(2, "g")))
    photon, qubit, norm2, purity = observables(psi)
    assert (photon, qubit, norm2, purity) == (2.0, 0.0, 1.0, 1.0)
    rho = DensityMatrix.from_bare(p.cutoff, BareState(1, "e"))
    photon, qubit, trace, purity = observables(rho)
    assert (photon, qubit, trace, purity) == (1.0, 1.0, 1.0, 1.0)
