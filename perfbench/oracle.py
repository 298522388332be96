"""Reference computations the benchmark checks the program's outputs against.

Everything here is built from the model's defining formulas with numpy and
scipy alone; nothing imports the package under test, so a fault in the
package cannot hide in a shared helper.

    H     = omega a'a + (delta/2) sigma_z + g1 (a sigma+ + a' sigma-)
                                          + g2 (a' sigma+ + a sigma-)
    H_eff = H - i kappa a'^2 a^2
    drho/dt = -i[H, rho] + 2 kappa a^2 rho a'^2 - kappa {a'^2 a^2, rho}

Operators are assembled on the full tensor basis |n, q> -> 2n + bit(q)
(bit(g) = 0, bit(e) = 1) and then restricted to one parity chain: the states
with n + bit(q) even (parity +1) or odd (parity -1), ordered by n. The
Liouvillian acts on row-major vec(rho), so vec(A rho B) = kron(A, B^T) vec(rho).
Times given in units of T_c = pi/omega.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import spsolve


class OracleError(RuntimeError):
    """The reference computations disagree with a closed form."""


def chain_states(n_max: int, parity: int) -> np.ndarray:
    """Full-basis indices 2n + bit of one parity chain, ordered by photon number."""
    n = np.arange(n_max + 1)
    bit = n % 2 if parity == 1 else 1 - n % 2
    return 2 * n + bit


def _full_operators(n_max: int):
    a = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1)
    sigma_plus = np.array([[0.0, 0.0], [1.0, 0.0]])  # |e><g|
    sigma_z = np.diag([-1.0, 1.0])
    return a, sigma_plus, sigma_z


def _restrict(op: np.ndarray, n_max: int, parity: int) -> np.ndarray:
    idx = chain_states(n_max, parity)
    return op[np.ix_(idx, idx)].astype(complex)


def hamiltonian(p: dict, n_max: int, parity: int) -> np.ndarray:
    a, s_plus, s_z = _full_operators(n_max)
    ad, s_minus = a.T, s_plus.T
    eye = np.eye(n_max + 1)
    h = (p["omega"] * np.kron(ad @ a, np.eye(2)) + p["delta"] / 2.0 * np.kron(eye, s_z)
         + p["g1"] * (np.kron(a, s_plus) + np.kron(ad, s_minus))
         + p["g2"] * (np.kron(ad, s_plus) + np.kron(a, s_minus)))
    return _restrict(h, n_max, parity)


def pair_lowering(n_max: int, parity: int) -> np.ndarray:
    a, _, _ = _full_operators(n_max)
    return _restrict(np.kron(a @ a, np.eye(2)), n_max, parity)


def effective_hamiltonian(p: dict, n_max: int, parity: int) -> np.ndarray:
    a2 = pair_lowering(n_max, parity)
    return hamiltonian(p, n_max, parity) - 1j * p["kappa"] * (a2.conj().T @ a2)


def liouvillian(p: dict, n_max: int, parity: int) -> sp.csr_matrix:
    h = sp.csr_matrix(hamiltonian(p, n_max, parity))
    a2 = sp.csr_matrix(pair_lowering(n_max, parity))
    decay = a2.conj().T @ a2
    eye = sp.identity(n_max + 1, dtype=complex, format="csr")
    lmat = (-1j * (sp.kron(h, eye) - sp.kron(eye, h.T))
            + p["kappa"] * (2.0 * sp.kron(a2, a2.conj()) - sp.kron(decay, eye)
                            - sp.kron(eye, decay.T)))
    return sp.csr_matrix(lmat)


def _chain_observables(n_max: int, parity: int) -> tuple[np.ndarray, np.ndarray]:
    idx = chain_states(n_max, parity)
    return (idx // 2).astype(float), (idx % 2).astype(float)


def master_rows(p: dict, n_max: int, parity: int, n0: int, times_tc) -> np.ndarray:
    """(mean_photon, qubit_excitation, trace, purity) rows of expm(L t) vec(rho0)."""
    dim = n_max + 1
    lmat = liouvillian(p, n_max, parity).toarray()
    rho0 = np.zeros((dim, dim), dtype=complex)
    rho0[n0, n0] = 1.0  # chain position is the photon number
    ns, bits = _chain_observables(n_max, parity)
    rows = []
    for t in times_tc:
        rho = (expm(lmat * (t * math.pi / p["omega"])) @ rho0.reshape(-1)).reshape(dim, dim)
        diag = np.diagonal(rho).real
        rows.append((diag @ ns, diag @ bits, diag.sum(), np.vdot(rho, rho).real))
    return np.array(rows)


def effective_rows(p: dict, n_max: int, parity: int, n0: int, times_tc) -> np.ndarray:
    """Renormalized (mean_photon, qubit_excitation) and norm^2 of expm(-i H_eff t) psi0."""
    heff = effective_hamiltonian(p, n_max, parity)
    psi0 = np.zeros(n_max + 1, dtype=complex)
    psi0[n0] = 1.0
    ns, bits = _chain_observables(n_max, parity)
    rows = []
    for t in times_tc:
        w = np.abs(expm(-1j * heff * (t * math.pi / p["omega"])) @ psi0) ** 2
        norm2 = w.sum()
        rows.append((w @ ns / norm2, w @ bits / norm2, norm2))
    return np.array(rows)


def steady_observables(p: dict, n_max: int, parity: int) -> tuple[float, float]:
    """(mean_photon, qubit_excitation) of the steady state by a direct solve.

    The equation for rho_00 is replaced by the trace condition; trace
    preservation makes the dropped row a combination of the kept ones, so the
    system is regular whenever the steady state is unique.
    """
    dim = n_max + 1
    lmat = liouvillian(p, n_max, parity).tolil()
    lmat[0, :] = 0.0
    lmat[0, np.arange(dim) * (dim + 1)] = 1.0
    rhs = np.zeros(dim * dim, dtype=complex)
    rhs[0] = 1.0
    rho = spsolve(lmat.tocsc(), rhs).reshape(dim, dim)
    rho = (rho + rho.conj().T) / 2.0
    ns, bits = _chain_observables(n_max, parity)
    diag = np.diagonal(rho).real
    return float(diag @ ns), float(diag @ bits)


def _chain_bits(n_max: int, parity: int) -> np.ndarray:
    return (chain_states(n_max, parity) % 2).astype(float)


def heff_trace_moments(p: dict, n_max: int, parity: int) -> tuple[complex, complex]:
    """(Tr H_eff, Tr H_eff^2) from the chain diagonal and hoppings in closed form.

    H_eff is tridiagonal and complex symmetric on a chain, so
    Tr H_eff^2 = sum of squared diagonal entries + 2 * sum of squared hoppings.
    """
    k = np.arange(n_max + 1, dtype=float)
    bits = _chain_bits(n_max, parity)
    diag = (k * p["omega"] + (2.0 * bits - 1.0) * p["delta"] / 2.0
            - 1j * p["kappa"] * k * (k - 1.0))
    hop = np.sqrt(k[1:]) * np.where(bits[:-1] == 1.0, p["g1"], p["g2"])
    return complex(diag.sum()), complex((diag ** 2).sum() + 2.0 * (hop ** 2).sum())


def exceptional_point(p: dict, n: int) -> float:
    """g1/omega where the resonant doublet-n splitting closes: kappa n / sqrt(n + 1)."""
    return p["kappa"] / p["omega"] * n / math.sqrt(n + 1.0)


def jc_transfer(p: dict, n: int, t) -> np.ndarray:
    """No-jump population of |n+1,g> from |n,e> at g2 = 0 (t in 1/omega).

    |(B/Omega) sin(Omega t/2)|^2 exp(-2 kappa n^2 t), with A = (omega - delta)
    - 2i kappa n, B = 2 g1 sqrt(n+1) and Omega = sqrt(A^2 + B^2).
    """
    t = np.asarray(t, dtype=float)
    a_term = (p["omega"] - p["delta"]) - 2j * p["kappa"] * n
    b_term = 2.0 * p["g1"] * math.sqrt(n + 1.0)
    big = np.sqrt(complex(a_term * a_term + b_term * b_term))
    return np.abs(b_term / big * np.sin(big * t / 2.0)) ** 2 * np.exp(-2.0 * p["kappa"] * n * n * t)


def self_check():
    """Test the reference computations against closed forms; raise OracleError."""
    fig3 = {"omega": 1.0, "delta": 0.8, "g1": 0.1, "g2": 0.05, "kappa": 0.02}
    failures = []

    # the vectorized Liouvillian acts like the master-equation right-hand side
    n_max, parity = 6, 1
    rng = np.random.default_rng(0)
    rho = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    h = hamiltonian(fig3, n_max, parity)
    a2 = pair_lowering(n_max, parity)
    decay = a2.conj().T @ a2
    direct = (-1j * (h @ rho - rho @ h) + fig3["kappa"] * (
        2.0 * a2 @ rho @ a2.conj().T - decay @ rho - rho @ decay))
    err = np.abs(liouvillian(fig3, n_max, parity) @ rho.reshape(-1) - direct.reshape(-1)).max()
    if err > 1e-12:
        failures.append(f"Liouvillian action differs from the direct form by {err:.3e}")

    # decoupled cavity: |2,g> empties by pair emission, <n> = 2 exp(-4 kappa t)
    bare = dict(fig3, g1=0.0, g2=0.0)
    times = np.array([0.0, 3.0, 10.0, 30.0])
    got = master_rows(bare, 6, 1, 2, times)[:, 0]
    want = 2.0 * np.exp(-4.0 * bare["kappa"] * times * math.pi)
    err = np.abs(got - want).max()
    if err > 1e-10:
        failures.append(f"decoupled decay differs from 2 exp(-4 kappa t) by {err:.3e}")

    # g2 = 0 doublet transfer from |1,e> into |2,g> (even chain), no-jump evolution
    jc = dict(fig3, delta=1.0, g1=0.07, g2=0.0)
    heff = effective_hamiltonian(jc, 8, 1)
    psi0 = np.zeros(9, dtype=complex)
    psi0[1] = 1.0
    t_abs = np.array([0.5, 4.0, 17.0, 40.0])
    got = np.array([abs((expm(-1j * heff * t) @ psi0)[2]) ** 2 for t in t_abs])
    err = np.abs(got - jc_transfer(jc, 1, t_abs)).max()
    if err > 1e-10:
        failures.append(f"doublet transfer differs from the closed form by {err:.3e}")

    # closed-form trace moments match the assembled matrix
    heff = effective_hamiltonian(fig3, 9, -1)
    tr1, tr2 = heff_trace_moments(fig3, 9, -1)
    err = max(abs(np.trace(heff) - tr1), abs(np.trace(heff @ heff) - tr2))
    if err > 1e-10:
        failures.append(f"trace moments differ from the assembled H_eff by {err:.3e}")

    # the direct steady state is a fixed point of the dynamics
    ph_ss, ex_ss = steady_observables(fig3, 12, 1)
    late = master_rows(fig3, 12, 1, 2, [4000.0])[0]
    err = max(abs(late[0] - ph_ss), abs(late[1] - ex_ss))
    if err > 1e-8:
        failures.append(f"direct steady state differs from expm(L t) at late t by {err:.3e}")

    if failures:
        raise OracleError("; ".join(failures))
