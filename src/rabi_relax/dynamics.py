"""Time evolution and steady states.

Two solvers: the full Lindblad master equation (trace preserving) and the
no-jump Schrodinger equation under the non-Hermitian effective Hamiltonian
(norm decaying, optionally renormalized observables). For a linear
time-independent generator the fixed-step classical RK4 step is the degree-4
Taylor polynomial of h*G, so we precompute that one-step matrix and apply
cached matrix powers per sample interval.

Every master-equation propagation (evolve_master and the long_time steady
state) takes its propagator from one size switch. While the vectorized
Liouvillian is small (dim^2 <= 1600) it is the cached dense RK4 matrix; above
that it is the truncated Taylor series of the sparse Liouvillian (Al-Mohy &
Higham, SIAM J. Sci. Comput. 33, 488 (2011)), applied to the state without a
trace shift, with its degree and substep count chosen once per interval
length. The two differ by the RK4 truncation error, about 1e-10 in the
observables; the dense Liouvillian is never built above the switch.

Steady states come from long-time relaxation or from the Liouvillian kernel,
solved with one sparse LU of the trace-bordered Liouvillian; a dense SVD of
the Liouvillian stays as the audit oracle and resolves degenerate kernels.
scipy.sparse.linalg is imported inside that solve, so propagation never loads it.

User-facing times are in units of T_c = pi/omega; integration is in 1/omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .hilbert import (CHAIN_TAGS, EVEN, FULL, ODD, BareState, FockCutoff, GROUND, _frozen,
                      build_parity_chain, parity_of)
from .model import (
    DensityMatrix,
    ModelParams,
    _liouvillian_sparse,
    bare_vector,
    build_effective_hamiltonian,
    liouvillian_matrix,
)

# Largest vectorized-generator dimension (dim^2) propagated with the cached dense
# RK4 matrix. One dense matrix serves every sample interval of a run, but its
# dim^4 memory and matrix powers lose to the sparse Taylor kernel above this size.
_PROP_SUPERDIM_MAX = 1600

# theta_m of Al-Mohy & Higham (2011), double precision: the largest 1-norm of
# h*L for which the degree-m Taylor polynomial of exp(h*L) has backward error
# below 2^-53 (their table A.3 for m <= 30, table 3.1 above).
_TAYLOR_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3, 6: 9.07e-3,
    7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1, 11: 2.14e-1, 12: 3.00e-1,
    13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1, 16: 7.81e-1, 17: 9.31e-1, 18: 1.09,
    19: 1.26, 20: 1.44, 21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54, 35: 4.7, 40: 6.0,
    45: 7.2, 50: 8.5, 55: 9.9,
}

# Unit roundoff: a Taylor substep stops once its last two terms fall below
# this fraction of the partial sum (the early-termination test of the method).
_TAYLOR_TOL = 2.0 ** -53

_SUPPORT_TOL = 1e-12

# Per-sample evolution guard: the largest trace drift, density-matrix
# negativity and population in the top two Fock levels accepted at a sample.
_SAMPLE_TOL = 1e-6

# Liouvillian singular values below this fraction of the largest span the kernel.
_KERNEL_RTOL = 1e-10

# Steady-state population allowed in the top two Fock levels; above it the
# cutoff clips the state and the result is reported as not converged.
_CUTOFF_POP_MAX = 1e-8


class SolverError(RuntimeError):
    """Integration aborted (trace drift, negativity, or step instability)."""


class TruncationError(SolverError):
    """State support too close to the Fock cutoff for trustworthy evolution."""


@dataclass(frozen=True)
class StateVector:
    """Pure state on one chain (or the full basis) with norm bookkeeping."""

    basis_tag: object
    amplitudes: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        v = np.array(self.amplitudes, dtype=complex)
        if v.ndim != 1:
            raise ValueError("amplitudes must be a vector")
        if self.normalized and abs(np.vdot(v, v).real - 1.0) > 1e-10:
            raise ValueError("state flagged normalized but norm differs from 1")
        object.__setattr__(self, "amplitudes", _frozen(v))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @classmethod
    def from_bare(cls, cutoff: FockCutoff, state: BareState, basis=None) -> "StateVector":
        return cls(basis if basis is not None else parity_of(state), bare_vector(cutoff, state, basis))


@dataclass(frozen=True)
class Trajectory:
    """Sampled observables along one evolution; times in units of T_c = pi/omega."""

    times: np.ndarray
    mean_photon: np.ndarray
    qubit_excitation: np.ndarray
    trace: np.ndarray
    purity: np.ndarray
    states: tuple | None = None  # per-sample raw matrices/vectors when requested


@dataclass(frozen=True)
class SteadyReport:
    """Steady-state result; non-convergence is a first-class outcome.

    For a non-converged long-time run the observables are the time averages
    over the final window and window_variance their spread; residual is the
    Frobenius norm of the Liouvillian right-hand side at rho_ss.
    """

    converged: bool
    rho_ss: DensityMatrix
    mean_photon: float
    qubit_excitation: float
    residual: float
    window_variance: float
    note: str = ""


def canonical_initial_state(parity: int) -> BareState:
    """|2,g> for the even sector, |3,g> for the odd one."""
    if parity == EVEN:
        return BareState(2, GROUND)
    if parity == ODD:
        return BareState(3, GROUND)
    raise ValueError(f"parity must be +1 or -1, got {parity!r}")


def _observable_diags(basis_tag, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(photon number, excited-qubit indicator) diagonals for a basis."""
    if basis_tag in CHAIN_TAGS:
        cut = FockCutoff(dim - 1)
        return np.arange(dim, dtype=float), build_parity_chain(basis_tag, cut).excitation_bits().astype(float)
    if basis_tag == FULL:
        ns = np.repeat(np.arange(dim // 2, dtype=float), 2)
        bits = np.tile([0.0, 1.0], dim // 2)
        return ns, bits
    raise ValueError(f"observables need a chain or full basis, got {basis_tag!r}")


def observables(state, renormalize: bool = True) -> tuple[float, float, float, float]:
    """(mean_photon, qubit_excitation, trace_or_norm2, purity) of a state.

    Density matrices report raw traces (so drift is visible); state vectors
    report expectation values divided by the norm when renormalize is true,
    with the squared norm in the trace slot either way.
    """
    if isinstance(state, DensityMatrix):
        ns, bits = _observable_diags(state.basis_tag, state.dim)
        diag = np.diagonal(state.entries).real
        purity = float(np.vdot(state.entries, state.entries).real)
        return float(diag @ ns), float(diag @ bits), float(diag.sum()), purity
    if isinstance(state, StateVector):
        ns, bits = _observable_diags(state.basis_tag, state.dim)
        w = np.abs(state.amplitudes) ** 2
        norm2 = float(w.sum())
        scale = norm2 if (renormalize and norm2 > 0) else 1.0
        return float(w @ ns / scale), float(w @ bits / scale), norm2, 1.0
    raise TypeError(f"expected DensityMatrix or StateVector, got {type(state).__name__}")


def _omega_max(params: ModelParams) -> float:
    """Largest doublet frequency |Omega_n| representable in the truncated chain."""
    n_top = max(params.cutoff.n_max, 1)
    ns = np.arange(n_top, dtype=float)
    out = 0.0
    for det, g in ((params.omega - params.delta, params.g1), (params.omega + params.delta, params.g2)):
        a = det - 2j * params.kappa * ns
        b = 2.0 * g * np.sqrt(ns + 1.0)
        out = max(out, float(np.abs(np.sqrt(a * a + b * b)).max()))
    return out


def _step_bound(params: ModelParams) -> float:
    h = 0.01 / params.omega
    om = _omega_max(params)
    if om > 0:
        h = min(h, 0.1 / om)
    return h


def _time_grid(t_grid, omega: float) -> tuple[np.ndarray, np.ndarray]:
    """(times in T_c as given, physical interval lengths from t=0)."""
    t = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if t.size == 0:
        raise ValueError("time grid is empty")
    if t[0] < 0 or np.any(np.diff(t) < 0):
        raise ValueError("time grid must be non-negative and non-decreasing")
    t_phys = t * (math.pi / omega)
    dts = np.diff(np.concatenate(([0.0], t_phys)))
    return t, dts


def _rk4_step_matrix(gen: np.ndarray, h: float) -> np.ndarray:
    """One fixed-step RK4 update matrix for x' = gen x (degree-4 Taylor of h*gen)."""
    hg = h * gen
    out = np.eye(gen.shape[0], dtype=complex) + hg
    term = hg
    for k in (2.0, 3.0, 4.0):
        term = term @ hg / k
        out = out + term
    return out


class _Rk4Propagator:
    """Applies cached interval propagators P(dt) = rk4_step(dt/m)^m, keyed by dt.

    Interval lengths are quantized at 1e-12 before keying so the last-ulp
    jitter of linspace grids reuses one matrix; the time error introduced is
    far below every stated tolerance.
    """

    def __init__(self, gen: np.ndarray, h_bound: float):
        self.gen = np.ascontiguousarray(gen)
        self._h = float(h_bound)
        self._cache: dict[float, np.ndarray] = {}

    def apply(self, v: np.ndarray, dt: float) -> np.ndarray:
        key = round(float(dt), 12)
        mat = self._cache.get(key)
        if mat is None:
            m = max(1, math.ceil(key / self._h - 1e-12))
            mat = np.linalg.matrix_power(_rk4_step_matrix(self.gen, key / m), m)
            self._cache[key] = mat
        return mat @ v


class _TaylorPropagator:
    """Applies exp(dt*L) to a vector by the truncated Taylor series, keyed by dt.

    The method of Al-Mohy & Higham (2011), which scipy's expm_multiply also
    uses, without its trace shift: the shift is the mean diagonal of L, set
    by the stiff pair-loss rates kappa*n(n-1) of Fock levels the state never
    reaches, and nearly doubles the terms taken (92 against 51 matvecs per
    interval on the Fig. 3 run at n_max 40). The degree m and substep count
    s come once per interval from the exact 1-norm of dt*L and the theta_m
    table, minimizing m*s; each substep stops early once two successive terms
    fall below the unit roundoff of the partial sum. Keys are quantized at
    1e-12 like those of _Rk4Propagator.
    """

    def __init__(self, gen: sparse.csr_matrix):
        self.gen = gen
        self._norm = float(abs(gen).sum(axis=0).max())  # the 1-norm
        self._plans: dict[float, tuple[int, int, float]] = {}

    def _plan(self, dt: float) -> tuple[int, int, float]:
        key = round(float(dt), 12)
        plan = self._plans.get(key)
        if plan is None:
            norm = key * self._norm
            m, s = 0, 1
            if norm > 0:
                m, s = min(((deg, math.ceil(norm / theta))
                            for deg, theta in _TAYLOR_THETA.items()),
                           key=lambda ms: ms[0] * ms[1])
            plan = (m, s, key / s)
            self._plans[key] = plan
        return plan

    def apply(self, v: np.ndarray, dt: float) -> np.ndarray:
        m, s, h = self._plan(dt)
        gen = self.gen
        f = v
        for _ in range(s):
            term = f
            c1 = np.abs(term).max()
            for j in range(1, m + 1):
                term = gen @ term * (h / j)
                c2 = np.abs(term).max()
                f = f + term
                if c1 + c2 <= _TAYLOR_TOL * np.abs(f).max():
                    break
                c1 = c2
        return f


def _master_propagator(params: ModelParams, basis):
    """The one size switch of master-equation propagation.

    Dense cached RK4 while dim^2 <= _PROP_SUPERDIM_MAX, else the sparse Taylor
    kernel, which never builds the dense dim^4 Liouvillian.
    """
    dim = _expected_dim(params, basis)
    if dim * dim <= _PROP_SUPERDIM_MAX:
        return _Rk4Propagator(liouvillian_matrix(params, basis), _step_bound(params))
    return _TaylorPropagator(_liouvillian_sparse(params, basis))


def _expected_dim(params: ModelParams, basis) -> int:
    if basis in CHAIN_TAGS:
        return params.cutoff.dim
    if basis == FULL:
        return params.cutoff.full_dim
    raise ValueError(f"evolution needs a chain or full basis, got {basis!r}")


def _check_support(populations: np.ndarray, levels: np.ndarray, params: ModelParams):
    occupied = levels[populations > _SUPPORT_TOL]
    if occupied.size == 0:
        return
    top = int(occupied.max())
    if top > params.cutoff.n_max - 2:
        raise TruncationError(
            f"initial support reaches n={top}; need n_max >= {top + 2} for two levels of "
            f"headroom, got n_max={params.cutoff.n_max}")


def _guard_sample(rho: np.ndarray, t_tc: float):
    tr = np.trace(rho).real
    if abs(tr - 1.0) > _SAMPLE_TOL:
        raise SolverError(
            f"trace drifted to {tr:.9f} at t={t_tc:g} T_c; truncation too tight "
            "(raise n_max)")
    w_min = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0).min())
    if w_min < -_SAMPLE_TOL:
        raise SolverError(
            f"density matrix eigenvalue {w_min:.3e} at t={t_tc:g} T_c; truncation too tight "
            "(raise n_max)")


def _top_levels(ns: np.ndarray, params: ModelParams) -> np.ndarray:
    """Mask of the top two Fock levels, whose population the cutoff clips."""
    return ns >= params.cutoff.n_max - 1


def _guard_cutoff(top: float, params: ModelParams, t_tc: float):
    """Abort an evolution whose top two Fock levels hold more than _SAMPLE_TOL."""
    if top > _SAMPLE_TOL:
        raise TruncationError(
            f"population {top:.3e} in the top two Fock levels at t={t_tc:g} T_c; the cutoff "
            f"n_max={params.cutoff.n_max} is too tight (raise n_max)")


def evolve_master(rho0: DensityMatrix, params: ModelParams, t_grid,
                  store_states: bool = False) -> tuple[Trajectory, DensityMatrix]:
    """Integrate the master equation, sampling observables at t_grid (T_c units).

    The propagator comes from the one size switch of the module: the cached
    dense RK4 matrix while dim^2 <= _PROP_SUPERDIM_MAX, else the unshifted
    truncated Taylor series of the sparse Liouvillian, planned once per
    distinct sample interval; the two differ by the RK4 truncation error,
    about 1e-10. Returns the trajectory and the final density matrix. Aborts
    with a diagnostic if the trace drifts, negativity grows or the population
    in the top two Fock levels exceeds 1e-6 at a sample.
    """
    basis = rho0.basis_tag
    dim = _expected_dim(params, basis)
    if rho0.dim != dim:
        raise ValueError(f"rho0 dim {rho0.dim} does not match cutoff dim {dim}")
    rho0.validate()
    ns, bits = _observable_diags(basis, dim)
    _check_support(np.diagonal(rho0.entries).real, ns, params)
    top = _top_levels(ns, params)

    times, dts = _time_grid(t_grid, params.omega)
    prop = _master_propagator(params, basis)
    v = rho0.entries.reshape(-1).astype(complex)

    n_samp = times.size
    photon = np.empty(n_samp)
    qubit = np.empty(n_samp)
    trace = np.empty(n_samp)
    purity = np.empty(n_samp)
    kept = [] if store_states else None

    for i in range(n_samp):
        if dts[i] > 1e-15:
            v = prop.apply(v, dts[i])
        rho = v.reshape(dim, dim)
        _guard_sample(rho, times[i])
        diag = np.diagonal(rho).real
        _guard_cutoff(float(diag[top].sum()), params, times[i])
        photon[i] = diag @ ns
        qubit[i] = diag @ bits
        trace[i] = diag.sum()
        purity[i] = np.vdot(rho, rho).real
        if store_states:
            kept.append(rho.copy())

    traj = Trajectory(times, photon, qubit, trace, purity,
                      tuple(kept) if store_states else None)
    return traj, DensityMatrix(basis, v.reshape(dim, dim).copy())


def evolve_effective(psi0: StateVector, params: ModelParams, t_grid,
                     renormalize: bool = True) -> Trajectory:
    """Integrate i dpsi/dt = H_eff psi on one chain, sampling at t_grid (T_c).

    The trace slot carries the squared norm (monotonically non-increasing for
    kappa > 0); mean photon and qubit excitation are divided by it when
    renormalize is true. Purity is identically 1 for a pure state. Aborts
    when the norm grows, or when more than 1e-6 of the norm sits in the top
    two Fock levels at a sample.
    """
    basis = psi0.basis_tag
    if basis not in CHAIN_TAGS:
        raise ValueError("effective evolution expects a single-chain state")
    dim = _expected_dim(params, basis)
    if psi0.dim != dim:
        raise ValueError(f"psi0 dim {psi0.dim} does not match cutoff dim {dim}")
    ns, bits = _observable_diags(basis, dim)
    _check_support(np.abs(psi0.amplitudes) ** 2, ns, params)
    top = _top_levels(ns, params)

    times, dts = _time_grid(t_grid, params.omega)
    gen = -1j * build_effective_hamiltonian(params, basis).entries
    prop = _Rk4Propagator(gen, _step_bound(params))

    v = psi0.amplitudes.astype(complex)
    n_samp = times.size
    photon = np.empty(n_samp)
    qubit = np.empty(n_samp)
    norm2 = np.empty(n_samp)
    prev = float(np.vdot(v, v).real)

    for i in range(n_samp):
        if dts[i] > 1e-15:
            v = prop.apply(v, dts[i])
        w = np.abs(v) ** 2
        n2 = float(w.sum())
        if n2 > prev * (1.0 + 1e-9) + 1e-12:
            raise SolverError(
                f"norm grew from {prev:.12g} to {n2:.12g} at t={times[i]:g} T_c; "
                f"RK4 step unstable for this coupling at n_max={params.cutoff.n_max} "
                "(change n_max)")
        prev = n2
        _guard_cutoff(float(w[top].sum()) / n2 if n2 > 0 else 0.0, params, times[i])
        scale = n2 if (renormalize and n2 > 0) else 1.0
        photon[i] = w @ ns / scale
        qubit[i] = w @ bits / scale
        norm2[i] = n2

    return Trajectory(times, photon, qubit, norm2, np.ones(n_samp))


def transient_snapshot(g1_values, lam: float, params: ModelParams, parity: int,
                       t_snaps) -> np.ndarray:
    """Master-equation observables at snapshot times, swept over g1 with g2 = lam*g1.

    Starts each point from the canonical parity-definite initial state and
    evolves it once over the non-decreasing snapshot times t_snaps (T_c
    units), so equal gaps reuse one cached propagator. Returns an array of
    shape (len(t_snaps), len(g1_values), 3): one block of rows
    (g1, mean_photon, qubit_excitation) per snapshot time.
    """
    init = canonical_initial_state(parity)
    g1s = np.asarray(g1_values, dtype=float)
    times = np.atleast_1d(np.asarray(t_snaps, dtype=float))
    out = np.empty((times.size, g1s.size, 3))
    for i, g1 in enumerate(g1s):
        point = params.with_ratio(float(g1), lam)
        rho0 = DensityMatrix.from_bare(point.cutoff, init, parity)
        traj, _ = evolve_master(rho0, point, times)
        out[:, i, 0] = g1
        out[:, i, 1] = traj.mean_photon
        out[:, i, 2] = traj.qubit_excitation
    return out


def _initial_for(params: ModelParams, parity: int, initial: BareState | None) -> DensityMatrix:
    state = initial if initial is not None else canonical_initial_state(parity)
    if parity_of(state) != parity:
        raise ValueError(f"initial state {state} is not in the parity {parity:+d} sector")
    return DensityMatrix.from_bare(params.cutoff, state, parity)


def _steady_long_time(params: ModelParams, parity: int, initial, obs_tol: float,
                      residual_tol: float, window_tc: float, cap_tc: float,
                      sample_dt_tc: float) -> SteadyReport:
    dim = params.cutoff.dim
    rho0 = _initial_for(params, parity, initial)
    ns, bits = _observable_diags(parity, dim)
    _check_support(np.diagonal(rho0.entries).real, ns, params)

    prop = _master_propagator(params, parity)
    dt = sample_dt_tc * math.pi / params.omega

    per_window = max(2, int(round(window_tc / sample_dt_tc)))
    n_windows = max(1, int(math.ceil(cap_tc / window_tc)))
    diag_idx = np.arange(dim) * (dim + 1)

    v = rho0.entries.reshape(-1).astype(complex)
    t_tc = 0.0
    ph = np.empty(per_window)
    ex = np.empty(per_window)
    for _ in range(n_windows):
        v_sum = np.zeros_like(v)
        for s in range(per_window):
            v = prop.apply(v, dt)
            diag = v[diag_idx].real
            ph[s] = diag @ ns
            ex[s] = diag @ bits
            v_sum += v
        t_tc += window_tc
        _guard_sample(v.reshape(dim, dim), t_tc)
        spread = max(ph.max() - ph.min(), ex.max() - ex.min())
        if spread < obs_tol:
            residual = float(np.linalg.norm(prop.gen @ v))
            if residual <= residual_tol:
                rho = DensityMatrix(parity, v.reshape(dim, dim))
                note = _cutoff_note(v[diag_idx].real, ns, params)
                return SteadyReport(not note, rho, float(ph[-1]), float(ex[-1]), residual,
                                    float(max(ph.var(), ex.var())), note=note)
    v_avg = v_sum / per_window
    rho = DensityMatrix(parity, v_avg.reshape(dim, dim))
    residual = float(np.linalg.norm(prop.gen @ v_avg))
    return SteadyReport(False, rho, float(ph.mean()), float(ex.mean()), residual,
                        float(max(ph.var(), ex.var())),
                        note=f"no convergence by t={cap_tc:g} T_c (spread {spread:.3e})")


def _cutoff_note(diag: np.ndarray, ns: np.ndarray, params: ModelParams) -> str:
    """Non-empty when the steady populations reach the top two Fock levels."""
    top = float(diag[_top_levels(ns, params)].sum())
    if top > _CUTOFF_POP_MAX:
        return (f"population {top:.3e} in the top two Fock levels; the cutoff "
                f"n_max={params.cutoff.n_max} is too tight (raise n_max)")
    return ""


def _svd_kernel(params: ModelParams, parity: int) -> tuple[np.ndarray | None, int]:
    """Dense-SVD kernel of the Liouvillian: the audit oracle of the direct solve.

    Returns the kernel vector the trace functional projects onto (None when
    the kernel holds no trace-class state) and the kernel dimension.
    """
    dim = params.cutoff.dim
    _, svals, vh = np.linalg.svd(liouvillian_matrix(params, parity))
    tol = svals[0] * _KERNEL_RTOL if svals[0] > 0 else _KERNEL_RTOL
    kernel = vh[svals < tol].conj()
    k_dim = kernel.shape[0]
    if k_dim == 0:
        raise SolverError("Liouvillian kernel not resolved; singular values all above tolerance")
    traces = kernel[:, np.arange(dim) * (dim + 1)].sum(axis=1)
    tnorm = float(np.linalg.norm(traces))
    if tnorm < 1e-12:
        return None, k_dim
    return (traces.conj() / tnorm) @ kernel, k_dim


def _direct_kernel(params: ModelParams, parity: int,
                   lsp: sparse.csr_matrix) -> tuple[np.ndarray | None, int]:
    """Kernel vector by one sparse LU (the "direct" method, arXiv:1504.06768).

    Trace preservation makes the diagonal rows of L sum to zero, so the rho_00
    row is redundant; replacing it with the trace row leaves a matrix that is
    singular exactly when the kernel is degenerate or holds no trace-class
    state. Its 1-norm condition estimate follows sigma_max/sigma_2 of L, so a
    singular or ill-conditioned (above 1/_KERNEL_RTOL) matrix hands the point
    to the SVD oracle, which resolves the kernel dimension.
    """
    from scipy.sparse.linalg import LinearOperator, norm, onenormest, splu

    dim = params.cutoff.dim
    n = dim * dim
    trace_row = sparse.csr_matrix(
        (np.ones(dim), (np.zeros(dim, dtype=int), np.arange(dim) * (dim + 1))), shape=(1, n))
    bordered = sparse.vstack([trace_row, lsp[1:]], format="csc")
    try:
        lu = splu(bordered)
    except RuntimeError:  # exactly singular
        return _svd_kernel(params, parity)
    inverse = LinearOperator(bordered.shape, matvec=lu.solve, dtype=complex,
                             rmatvec=lambda x: lu.solve(x, trans="H"))
    # t=1 keeps the estimate deterministic: larger blocks draw random start
    # columns from numpy's global generator
    cond = norm(bordered, 1) * onenormest(inverse, t=1)
    if cond > 1.0 / _KERNEL_RTOL:
        return _svd_kernel(params, parity)
    e0 = np.zeros(n, dtype=complex)
    e0[0] = 1.0
    return lu.solve(e0), 1


def _kernel_report(params: ModelParams, parity: int, lsp: sparse.csr_matrix,
                   kernel: tuple[np.ndarray | None, int], residual_tol: float) -> SteadyReport:
    """SteadyReport of a kernel vector: hermitized, normalized and audited."""
    dim = params.cutoff.dim
    v, k_dim = kernel
    if v is None:
        rho = DensityMatrix(parity, np.eye(dim, dtype=complex) / dim)
        return SteadyReport(False, rho, float("nan"), float("nan"), float("nan"), 0.0,
                            note=f"kernel (dim {k_dim}) contains no trace-class state")
    rho = v.reshape(dim, dim)
    rho = (rho + rho.conj().T) / 2.0
    rho = rho / np.trace(rho).real
    ns, bits = _observable_diags(parity, dim)
    diag = np.diagonal(rho).real
    residual = float(np.linalg.norm(lsp @ rho.reshape(-1)))
    negativity = float(np.linalg.eigvalsh(rho).min())
    cutoff_note = _cutoff_note(diag, ns, params)

    note = ""
    converged = True
    if k_dim > 1:
        converged = False
        note = f"degenerate steady manifold: kernel dimension {k_dim}"
    elif cutoff_note:
        converged = False
        note = cutoff_note
    elif negativity < -1e-8:
        converged = False
        note = f"kernel state not positive (min eigenvalue {negativity:.3e})"
    elif residual > residual_tol:
        converged = False
        note = f"kernel residual {residual:.3e} above tolerance"
    return SteadyReport(converged, DensityMatrix(parity, rho), float(diag @ ns),
                        float(diag @ bits), residual, 0.0, note=note)


def _steady_null_space(params: ModelParams, parity: int, residual_tol: float) -> SteadyReport:
    lsp = _liouvillian_sparse(params, parity)
    return _kernel_report(params, parity, lsp, _direct_kernel(params, parity, lsp),
                          residual_tol)


def steady_state(params: ModelParams, parity: int, method: str = "long_time",
                 initial: BareState | None = None, obs_tol: float = 1e-6,
                 residual_tol: float = 1e-6, window_tc: float = 20.0,
                 cap_tc: float = 1000.0, sample_dt_tc: float = 0.25) -> SteadyReport:
    """Steady state of one parity sector.

    long_time evolves the canonical initial state until both observables vary
    by less than obs_tol over a window_tc window (and the Liouvillian residual
    is below residual_tol), capped at cap_tc; hitting the cap yields
    converged=False with window-averaged observables. It propagates with the
    same size switch as evolve_master (dense RK4 while dim^2 <= 1600, else
    the sparse Taylor kernel), so it builds no dense Liouvillian above the
    switch. null_space solves for the kernel of the vectorized Liouvillian
    directly: one sparse LU of the Liouvillian with its rho_00 row replaced
    by the trace row. Singular or ill-conditioned points fall back to a dense
    SVD of the Liouvillian, which reports a degenerate kernel
    (converged=False) with its dimension. Either route reports
    converged=False when more than 1e-8 of the population sits in the top
    two Fock levels, i.e. when the cutoff n_max is too tight.
    """
    if method == "long_time":
        return _steady_long_time(params, parity, initial, obs_tol, residual_tol,
                                 window_tc, cap_tc, sample_dt_tc)
    if method == "null_space":
        return _steady_null_space(params, parity, residual_tol)
    raise ValueError(f"method must be 'long_time' or 'null_space', got {method!r}")


def steady_map(points, params: ModelParams, parity: int, method: str = "long_time",
               **kwargs) -> list[tuple[float, float, SteadyReport]]:
    """steady_state over explicit (g1, g2) points; rows in input order."""
    out = []
    for g1, g2 in points:
        point = params.with_coupling(g1=float(g1), g2=float(g2))
        out.append((float(g1), float(g2), steady_state(point, parity, method, **kwargs)))
    return out


def truncation_check(params: ModelParams, parity: int, t_snap: float,
                     initial: BareState | None = None) -> float:
    """Largest observable change at t_snap when the Fock cutoff is doubled."""
    state = initial if initial is not None else canonical_initial_state(parity)
    doubled = ModelParams(delta=params.delta, g1=params.g1, g2=params.g2,
                          kappa=params.kappa, omega=params.omega,
                          cutoff=FockCutoff(2 * params.cutoff.n_max))
    base_traj, _ = evolve_master(DensityMatrix.from_bare(params.cutoff, state, parity),
                                 params, [t_snap])
    wide_traj, _ = evolve_master(DensityMatrix.from_bare(doubled.cutoff, state, parity),
                                 doubled, [t_snap])
    return float(max(abs(base_traj.mean_photon[-1] - wide_traj.mean_photon[-1]),
                     abs(base_traj.qubit_excitation[-1] - wide_traj.qubit_excitation[-1])))
