import numpy as np
import pytest
from scipy import sparse

from rabi_relax.hilbert import (EVEN, FULL, ODD, BareState, FockCutoff, build_parity_chain,
                                full_index, two_photon_lowering)
from rabi_relax.model import (DensityMatrix, ModelParams, _hermitian_basis,
                              _liouvillian_real, _liouvillian_sparse, _pair_decay_diag,
                              bare_vector, build_effective_hamiltonian, build_hamiltonian)

CUT3 = FockCutoff(3)
CUT5 = FockCutoff(5)
FIG3 = dict(delta=0.8, g1=0.1, g2=0.05, kappa=0.02)


# ------------------------------------------- matrix-free master equation
# The reference the vectorized generators are checked against: the Lindblad
# right-hand side written with matrix products, no vectorization.

def apply_dissipator(params: ModelParams, rho: DensityMatrix) -> np.ndarray:
    """D[a^2] rho = 2k a^2 rho (a^dag)^2 - k {(a^dag)^2 a^2, rho}.

    Trace-free for any argument (the truncated jump operator still forms an
    exact Lindblad pair with its own anticommutator); what truncation costs is
    the missing feed from above n_max, not trace conservation.
    """
    return _dissipator_action(rho.entries, params.kappa,
                              two_photon_lowering(params.cutoff, rho.basis_tag),
                              _pair_decay_diag(params.cutoff, rho.basis_tag))


def _dissipator_action(arr: np.ndarray, kappa: float, a2: np.ndarray, kdiag: np.ndarray) -> np.ndarray:
    if kappa == 0.0:
        return np.zeros_like(arr)
    feed = 2.0 * kappa * (a2 @ arr @ a2.conj().T)
    # the anticommutator partner (a^dag)^2 a^2 is diagonal: scale rows and columns
    feed -= kappa * (kdiag[:, None] * arr + arr * kdiag[None, :])
    return feed


def liouvillian_rhs(params: ModelParams, h: np.ndarray, rho: DensityMatrix) -> np.ndarray:
    """-i[H, rho] + D[a^2] rho for the Hamiltonian array h."""
    arr = rho.entries
    return -1j * (h @ arr - arr @ h) + apply_dissipator(params, rho)


def split_jump(params: ModelParams, rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(-i(H_eff rho - rho H_eff^dag), 2k a^2 rho (a^dag)^2); sums to liouvillian_rhs."""
    heff = build_effective_hamiltonian(params, rho.basis_tag)
    arr = rho.entries
    effective = -1j * (heff @ arr - arr @ heff.conj().T)
    a2 = two_photon_lowering(params.cutoff, rho.basis_tag)
    jump = 2.0 * params.kappa * (a2 @ arr @ a2.conj().T)
    return effective, jump


def small_params(**overrides):
    base = dict(delta=0.8, g1=0.1, g2=0.05, kappa=0.02, cutoff=CUT5)
    base.update(overrides)
    return ModelParams(**base)


def random_density(rng, dim, basis_tag):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = x @ x.conj().T
    return DensityMatrix(basis_tag, rho / np.trace(rho))


# ---------------------------------------------------------------- parameters

def test_params_reject_negative_rates():
    with pytest.raises(ValueError):
        ModelParams(delta=0.8, g1=-0.1, g2=0.0, kappa=0.02)
    with pytest.raises(ValueError):
        ModelParams(delta=0.8, g1=0.1, g2=0.0, kappa=-0.02)


def test_params_reject_nonpositive_frequency_and_tiny_cutoff():
    with pytest.raises(ValueError):
        ModelParams(delta=0.8, g1=0.1, g2=0.0, kappa=0.02, omega=0.0)
    with pytest.raises(ValueError):
        ModelParams(delta=0.8, g1=0.1, g2=0.0, kappa=0.02, cutoff=FockCutoff(2))


def test_coupling_ratio_helpers():
    p = small_params()
    assert p.ratio == pytest.approx(0.5)
    q = p.with_ratio(0.2, 0.5)
    assert (q.g1, q.g2) == (0.2, 0.1)
    r = p.with_coupling(g2=0.0)
    assert r.g1 == p.g1 and r.g2 == 0.0


# --------------------------------------------------------------- Hamiltonian

def test_even_chain_hamiltonian_matrix():
    p = small_params(cutoff=CUT3)
    H = build_hamiltonian(p, EVEN)
    # ladder |0,g>,|1,e>,|2,g>,|3,e>: counter-rotating hop off the ground
    # states, rotating hop off the excited ones
    expected = np.array([
        [-0.4, 0.05, 0.0, 0.0],
        [0.05, 1.4, 0.1 * np.sqrt(2.0), 0.0],
        [0.0, 0.1 * np.sqrt(2.0), 1.6, 0.05 * np.sqrt(3.0)],
        [0.0, 0.0, 0.05 * np.sqrt(3.0), 3.4]])
    assert np.allclose(H, expected, atol=1e-15)


def test_odd_chain_hamiltonian_matrix():
    p = small_params(cutoff=CUT3)
    H = build_hamiltonian(p, ODD)
    expected = np.array([
        [0.4, 0.1, 0.0, 0.0],
        [0.1, 0.6, 0.05 * np.sqrt(2.0), 0.0],
        [0.0, 0.05 * np.sqrt(2.0), 2.4, 0.1 * np.sqrt(3.0)],
        [0.0, 0.0, 0.1 * np.sqrt(3.0), 2.6]])
    assert np.allclose(H, expected, atol=1e-15)


def test_full_hamiltonian_is_block_diagonal_in_parity():
    p = small_params()
    order = [full_index(s) for s in build_parity_chain(EVEN, p.cutoff).states
             + build_parity_chain(ODD, p.cutoff).states]
    Hf = build_hamiltonian(p, FULL)
    permuted = Hf[np.ix_(order, order)]
    d = p.cutoff.dim
    assert np.allclose(permuted[:d, :d], build_hamiltonian(p, EVEN), atol=1e-14)
    assert np.allclose(permuted[d:, d:], build_hamiltonian(p, ODD), atol=1e-14)
    assert np.max(np.abs(permuted[:d, d:])) == 0.0


def test_effective_hamiltonian_adds_pair_decay_widths():
    p = small_params(cutoff=CUT3)
    H = build_hamiltonian(p, EVEN)
    Heff = build_effective_hamiltonian(p, EVEN)
    assert np.allclose(Heff.real, H.real, atol=0)
    widths = -np.diagonal(Heff).imag
    assert np.allclose(widths, 0.02 * np.array([0.0, 0.0, 2.0, 6.0]), atol=1e-16)
    assert np.max(np.abs((Heff - np.diag(np.diagonal(Heff))).imag)) == 0.0


# ---------------------------------------------------------------- dissipator

def test_dissipator_vanishes_without_relaxation():
    p = small_params(kappa=0.0)
    rho = random_density(np.random.default_rng(0), p.cutoff.dim, EVEN)
    assert np.max(np.abs(apply_dissipator(p, rho))) == 0.0


def test_dissipator_is_trace_free_and_hermiticity_preserving():
    p = small_params()
    rho = random_density(np.random.default_rng(1), p.cutoff.dim, EVEN)
    out = apply_dissipator(p, rho)
    assert abs(np.trace(out)) < 1e-14
    assert np.max(np.abs(out - out.conj().T)) < 1e-14


def test_diagonal_cascade_rates_without_coupling():
    # with the qubit decoupled the populations obey a closed two-photon
    # cascade: dp_n/dt = 2k(n+1)(n+2)p_{n+2} - 2k n(n-1)p_n
    p = small_params(g1=0.0, g2=0.0)
    dim = p.cutoff.dim
    pops = np.linspace(0.05, 0.3, dim)
    pops /= pops.sum()
    rho = DensityMatrix(EVEN, np.diag(pops).astype(complex))
    H = build_hamiltonian(p, EVEN)
    rate = np.diagonal(liouvillian_rhs(p, H, rho)).real
    k = p.kappa
    n = np.arange(dim, dtype=float)
    expected = -2.0 * k * n * (n - 1.0) * pops
    expected[:-2] += 2.0 * k * (n[:-2] + 1.0) * (n[:-2] + 2.0) * pops[2:]
    assert np.allclose(rate, expected, atol=1e-15)


def test_split_jump_parts_sum_to_the_full_rhs():
    p = small_params()
    rho = random_density(np.random.default_rng(2), p.cutoff.dim, ODD)
    H = build_hamiltonian(p, ODD)
    drift, jump = split_jump(p, rho)
    assert np.allclose(drift + jump, liouvillian_rhs(p, H, rho), atol=1e-15)
    # the jump term alone feeds population downward at a positive rate
    assert np.trace(jump).real > 0.0


# --------------------------------------------------------------- liouvillian

def test_rhs_matches_vectorized_generator():
    rng = np.random.default_rng(3)
    for basis in (EVEN, ODD, FULL):
        p = small_params()
        dim = p.cutoff.dim if basis != FULL else p.cutoff.full_dim
        rho = random_density(rng, dim, basis)
        H = build_hamiltonian(p, basis)
        direct = liouvillian_rhs(p, H, rho).reshape(-1)
        via_matrix = _liouvillian_sparse(p, basis).toarray() @ rho.entries.reshape(-1)
        assert np.max(np.abs(direct - via_matrix)) < 1e-13


@pytest.mark.parametrize("basis", [EVEN, ODD, FULL])
def test_real_generator_matches_matrix_free_rhs(basis):
    p = small_params()
    dim = p.cutoff.dim if basis != FULL else p.cutoff.full_dim
    rho = random_density(np.random.default_rng(5), dim, basis)
    u = _hermitian_basis(dim)
    rhs = u @ liouvillian_rhs(p, build_hamiltonian(p, basis), rho).reshape(-1)
    assert np.max(np.abs(rhs.imag)) < 1e-15
    got = _liouvillian_real(p, basis) @ (u @ rho.entries.reshape(-1)).real
    assert np.max(np.abs(got - rhs.real)) < 1e-13


def test_rhs_conserves_trace_and_hermiticity():
    p = small_params()
    rho = random_density(np.random.default_rng(4), p.cutoff.dim, EVEN)
    H = build_hamiltonian(p, EVEN)
    out = liouvillian_rhs(p, H, rho)
    assert abs(np.trace(out)) < 1e-14
    assert np.max(np.abs(out - out.conj().T)) < 1e-14


# ------------------------------------------------------------- density matrix

def test_density_matrix_constructors():
    dm = DensityMatrix.from_bare(CUT5, BareState(2, "g"))
    assert dm.basis_tag == EVEN and dm.dim == 6
    assert dm.entries[2, 2] == 1.0 and dm.trace() == pytest.approx(1.0)
    amps = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    dm2 = DensityMatrix.from_pure(np.concatenate([amps, np.zeros(4)]), ODD)
    assert dm2.entries[0, 1] == pytest.approx(-0.5j)


def test_validate_flags_bad_states():
    good = DensityMatrix.from_bare(CUT5, BareState(0, "g"))
    assert good.validate() is good
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(EVEN, 2.0 * good.entries).validate()
    skew = np.array(good.entries, copy=True)
    skew[0, 1] = 0.5
    with pytest.raises(ValueError, match="ermit"):
        DensityMatrix(EVEN, skew).validate()
    neg = np.zeros((6, 6), dtype=complex)
    neg[0, 0], neg[1, 1] = 1.5, -0.5
    with pytest.raises(ValueError, match="negative"):
        DensityMatrix(EVEN, neg).validate()


def test_bare_vector_infers_the_parity_chain():
    v = bare_vector(CUT5, BareState(3, "e"), basis=None)
    assert v.shape == (6,) and v[3] == 1.0
    with pytest.raises(ValueError):
        bare_vector(CUT5, BareState(3, "e"), basis=ODD)


# ------------------------------------------------- real Hermitian coordinates

@pytest.mark.parametrize("dim", [2, 9, 21, 42])
def test_hermitian_basis_is_unitary_with_two_entries_per_row(dim):
    u = _hermitian_basis(dim)
    assert u.shape == (dim * dim, dim * dim)
    assert np.diff(u.indptr).max() <= 2
    # 1/sqrt(2) squared rounds to 0.5 + 2^-53
    assert abs(u @ u.conj().T - sparse.identity(dim * dim)).max() < 1e-15
    assert abs(u.conj().T @ u - sparse.identity(dim * dim)).max() < 1e-15


@pytest.mark.parametrize("n_max, basis", [(8, EVEN), (8, ODD), (20, EVEN), (20, ODD),
                                          (20, FULL)])
def test_real_generator_is_the_rotated_liouvillian(n_max, basis):
    p = ModelParams(**FIG3, cutoff=FockCutoff(n_max))
    lmat = _liouvillian_sparse(p, basis)
    u = _hermitian_basis(build_hamiltonian(p, basis).shape[0])
    rotated = (u @ lmat @ u.conj().T).toarray()
    assert np.max(np.abs(rotated.imag)) == 0.0
    real = _liouvillian_real(p, basis)
    assert real.dtype == np.float64
    dense = (u @ _liouvillian_sparse(p, basis).toarray()) @ u.conj().T
    assert np.max(np.abs(real.toarray() - dense)) < 1e-14


@pytest.mark.parametrize("basis", [EVEN, FULL])
def test_hermitian_coordinates_round_trip(basis):
    p = small_params()
    dim = p.cutoff.dim if basis != FULL else p.cutoff.full_dim
    rho = random_density(np.random.default_rng(6), dim, basis).entries
    u = _hermitian_basis(dim)
    x = u @ rho.reshape(-1)
    assert np.max(np.abs(x.imag)) < 1e-15
    x = x.real
    assert np.array_equal(x[:dim], np.diagonal(rho).real)
    back = (u.conj().T @ x).reshape(dim, dim)
    assert np.max(np.abs(back - rho)) < 1e-15
    assert x @ x == pytest.approx(np.trace(rho @ rho).real, abs=1e-15)
