"""Anisotropic qubit-cavity Hamiltonian, its non-Hermitian effective form, and
the two-photon relaxation dissipator.

H = omega a^dag a + (delta/2) sigma_z
    + g1 (a sigma_+ + a^dag sigma_-)      rotating part, exchanges one excitation
    + g2 (a^dag sigma_+ + a sigma_-)      counter-rotating part, creates/destroys pairs

The only dissipation channel is paired photon loss with jump operator a^2:
    drho/dt = -i[H, rho] + 2 kappa a^2 rho (a^dag)^2 - kappa {(a^dag)^2 a^2, rho}
which splits into no-jump evolution under H_eff = H - i kappa (a^dag)^2 a^2
plus the jump feed 2 kappa a^2 rho (a^dag)^2. Everything commutes with the
combined parity, so all operators are block diagonal over the two chains.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy import sparse

from .hilbert import (
    EVEN,
    FULL,
    CHAIN_TAGS,
    BareState,
    FockCutoff,
    OperatorMatrix,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    _frozen,
    build_annihilation,
    build_parity_chain,
    full_index,
    parity_of,
    two_photon_lowering,
)

DEFAULT_CUTOFF = FockCutoff(20)


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of one simulation point.

    All quantities share the units of omega; kappa is the two-photon
    relaxation rate. g2 may be given directly or derived from the anisotropy
    ratio lambda = g2/g1 via `with_ratio`.
    """

    delta: float
    g1: float
    g2: float
    kappa: float
    omega: float = 1.0
    cutoff: FockCutoff = DEFAULT_CUTOFF

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.kappa < 0 or self.g1 < 0 or self.g2 < 0:
            raise ValueError("kappa, g1, g2 must be non-negative")
        if self.cutoff.n_max < 3:
            raise ValueError(f"simulations need n_max >= 3, got {self.cutoff.n_max}")

    @property
    def ratio(self) -> float:
        """lambda = g2/g1; defined only for g1 > 0."""
        if self.g1 == 0:
            raise ValueError("lambda = g2/g1 is undefined at g1 = 0")
        return self.g2 / self.g1

    def with_coupling(self, g1=None, g2=None) -> "ModelParams":
        kw = {}
        if g1 is not None:
            kw["g1"] = g1
        if g2 is not None:
            kw["g2"] = g2
        return replace(self, **kw)

    def with_ratio(self, g1: float, lam: float) -> "ModelParams":
        """Set g1 and derive g2 = lambda * g1."""
        return replace(self, g1=g1, g2=lam * g1)


class BasisMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class DensityMatrix:
    """Density matrix on a chain or full basis with validity bookkeeping."""

    basis_tag: object
    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {arr.shape}")
        object.__setattr__(self, "entries", _frozen(arr))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    def validate(self, herm_tol=1e-10, trace_tol=1e-8, eig_floor=-1e-8) -> "DensityMatrix":
        """Check Hermiticity, unit trace and positivity; return self."""
        arr = self.entries
        if np.max(np.abs(arr - arr.conj().T)) > herm_tol:
            raise ValueError("density matrix is not Hermitian within tolerance")
        if abs(np.trace(arr).real - 1.0) > trace_tol or abs(np.trace(arr).imag) > trace_tol:
            raise ValueError(f"density matrix trace {np.trace(arr):.3e} is not 1 within tolerance")
        if np.linalg.eigvalsh((arr + arr.conj().T) / 2).min() < eig_floor:
            raise ValueError("density matrix has a negative eigenvalue beyond tolerance")
        return self

    @classmethod
    def from_pure(cls, amplitudes: np.ndarray, basis_tag) -> "DensityMatrix":
        v = np.asarray(amplitudes, dtype=complex)
        return cls(basis_tag, np.outer(v, v.conj()))

    @classmethod
    def from_bare(cls, cutoff: FockCutoff, state: BareState, basis=None) -> "DensityMatrix":
        return cls.from_pure(bare_vector(cutoff, state, basis), basis if basis is not None else parity_of(state))


def bare_vector(cutoff: FockCutoff, state: BareState, basis=None) -> np.ndarray:
    """Amplitude vector of a bare state on its own chain (default) or the full basis."""
    if basis is None:
        basis = parity_of(state)
    if basis in CHAIN_TAGS:
        idx = build_parity_chain(basis, cutoff).index_of(state)
        v = np.zeros(cutoff.dim, dtype=complex)
    elif basis == FULL:
        if state.n > cutoff.n_max:
            raise ValueError(f"{state} lies above the cutoff n_max={cutoff.n_max}")
        idx = full_index(state)
        v = np.zeros(cutoff.full_dim, dtype=complex)
    else:
        raise ValueError(f"unknown basis tag {basis!r}")
    v[idx] = 1.0
    return v


@lru_cache(maxsize=256)
def build_hamiltonian(params: ModelParams, basis=EVEN) -> OperatorMatrix:
    """Full coupling Hamiltonian on the requested basis.

    On a chain the matrix is real tridiagonal: entry (k, k) is
    k*omega +- delta/2, and the (k, k+1) coupling is sqrt(k+1) times g1 when
    chain entry k carries the excited qubit (rotating transition
    |k,e> <-> |k+1,g>) and g2 otherwise (counter-rotating |k,g> <-> |k+1,e>).
    """
    cut = params.cutoff
    if basis in CHAIN_TAGS:
        chain = build_parity_chain(basis, cut)
        bits = chain.excitation_bits()
        ks = np.arange(cut.dim, dtype=float)
        diag = ks * params.omega + (2 * bits - 1) * params.delta / 2.0
        hop = np.sqrt(ks[1:]) * np.where(bits[:-1] == 1, params.g1, params.g2)
        h = np.diag(diag).astype(complex)
        h[np.arange(cut.dim - 1), np.arange(1, cut.dim)] = hop
        h[np.arange(1, cut.dim), np.arange(cut.dim - 1)] = hop
        return OperatorMatrix(cut.dim, h, basis)
    if basis == FULL:
        a = build_annihilation(cut).entries
        ad = a.conj().T
        eye = np.eye(cut.dim)
        h = (
            params.omega * np.kron(ad @ a, np.eye(2))
            + params.delta / 2.0 * np.kron(eye, SIGMA_Z)
            + params.g1 * (np.kron(a, SIGMA_PLUS) + np.kron(ad, SIGMA_MINUS))
            + params.g2 * (np.kron(ad, SIGMA_PLUS) + np.kron(a, SIGMA_MINUS))
        )
        return OperatorMatrix(cut.full_dim, h, FULL)
    raise ValueError(f"unknown basis tag {basis!r}")


def _pair_decay_diag(cutoff: FockCutoff, basis) -> np.ndarray:
    """Diagonal of (a^dag)^2 a^2, i.e. n(n-1) per basis state."""
    ns = np.arange(cutoff.dim, dtype=float)
    d = ns * (ns - 1)
    return d if basis in CHAIN_TAGS else np.repeat(d, 2)


@lru_cache(maxsize=256)
def build_effective_hamiltonian(params: ModelParams, basis=EVEN) -> OperatorMatrix:
    """H_eff = H - i kappa (a^dag)^2 a^2; the added diagonal is -i kappa n(n-1)."""
    h = build_hamiltonian(params, basis).entries.copy()
    h[np.diag_indices_from(h)] -= 1j * params.kappa * _pair_decay_diag(params.cutoff, basis)
    return OperatorMatrix(h.shape[0], h, basis)


def _lowering_for(params: ModelParams, basis) -> np.ndarray:
    return two_photon_lowering(params.cutoff, basis).entries


def apply_dissipator(params: ModelParams, rho: DensityMatrix) -> np.ndarray:
    """D[a^2] rho = 2k a^2 rho (a^dag)^2 - k {(a^dag)^2 a^2, rho}.

    Trace-free for any argument (the truncated jump operator still forms an
    exact Lindblad pair with its own anticommutator); what truncation costs is
    the missing feed from above n_max, not trace conservation.
    """
    return _dissipator_action(rho.entries, params.kappa, _lowering_for(params, rho.basis_tag),
                              _pair_decay_diag(params.cutoff, rho.basis_tag))


def _dissipator_action(arr: np.ndarray, kappa: float, a2: np.ndarray, kdiag: np.ndarray) -> np.ndarray:
    if kappa == 0.0:
        return np.zeros_like(arr)
    feed = 2.0 * kappa * (a2 @ arr @ a2.conj().T)
    # the anticommutator partner (a^dag)^2 a^2 is diagonal: scale rows and columns
    feed -= kappa * (kdiag[:, None] * arr + arr * kdiag[None, :])
    return feed


def liouvillian_rhs(params: ModelParams, H: OperatorMatrix, rho: DensityMatrix) -> np.ndarray:
    """-i[H, rho] + D[a^2] rho."""
    if H.basis_tag != rho.basis_tag or H.dim != rho.dim:
        raise BasisMismatchError(
            f"H on basis {H.basis_tag!r} (dim {H.dim}) does not match rho on "
            f"{rho.basis_tag!r} (dim {rho.dim})")
    h = H.entries
    arr = rho.entries
    return -1j * (h @ arr - arr @ h) + apply_dissipator(params, rho)


def split_jump(params: ModelParams, rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(-i(H_eff rho - rho H_eff^dag), 2k a^2 rho (a^dag)^2); sums to liouvillian_rhs."""
    heff = build_effective_hamiltonian(params, rho.basis_tag).entries
    arr = rho.entries
    effective = -1j * (heff @ arr - arr @ heff.conj().T)
    a2 = _lowering_for(params, rho.basis_tag)
    jump = 2.0 * params.kappa * (a2 @ arr @ a2.conj().T)
    return effective, jump


def _liouvillian_sparse(params: ModelParams, basis=EVEN) -> sparse.csr_matrix:
    """Sparse form of `liouvillian_matrix`; about 0.5% of its dim^4 entries are non-zero.

    Row-major vec convention, so vec(A rho B) = kron(A, B^T) vec(rho).
    """
    h = sparse.csr_matrix(build_hamiltonian(params, basis).entries)
    eye = sparse.identity(h.shape[0], format="csr")
    lmat = -1j * (sparse.kron(h, eye) - sparse.kron(eye, h.T))
    if params.kappa > 0:
        a2 = sparse.csr_matrix(_lowering_for(params, basis))
        kdiag = sparse.diags(_pair_decay_diag(params.cutoff, basis))
        lmat = lmat + 2.0 * params.kappa * sparse.kron(a2, a2.conj())
        lmat = lmat - params.kappa * (sparse.kron(kdiag, eye) + sparse.kron(eye, kdiag))
    return lmat.tocsr()


@lru_cache(maxsize=8)
def liouvillian_matrix(params: ModelParams, basis=EVEN) -> np.ndarray:
    """Vectorized Liouvillian: L @ rho.reshape(-1) == liouvillian_rhs(rho).reshape(-1).

    Dense copy of `_liouvillian_sparse`. The cache is small on purpose: one
    entry costs dim^4 complex numbers.
    """
    return _frozen(_liouvillian_sparse(params, basis).toarray())
