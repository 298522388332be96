"""Truncated photon-qubit Hilbert space, ladder operators, and parity chains.

The joint space is span{|n> x |q>} with photon number n = 0..n_max and qubit
label q in {g, e}. The combined parity P = -sigma_z exp(i pi a^dag a) splits it
into two sectors. Each sector, ordered by photon number, forms a chain of bare
states with alternating qubit label; that chain ordering is the index space for
every chain-restricted matrix in this package (the Hamiltonian is tridiagonal
on it and two-photon lowering maps chain index k to k-2).

Full tensor-product indexing is |n,q> -> 2n + bit(q) with bit(g)=0, bit(e)=1,
i.e. qubit varies fastest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

EVEN = +1
ODD = -1
FULL = "full"

GROUND = "g"
EXCITED = "e"

# Qubit operators in the (|g>, |e>) ordering used by the full tensor basis.
SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]])
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]])   # |e><g|
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]])  # |g><e|

CHAIN_TAGS = (EVEN, ODD)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FockCutoff:
    """Highest retained Fock state; the photon space is n = 0..n_max.

    Basis construction accepts any n_max >= 0; simulation entry points
    (ModelParams) require n_max >= 3 so every canonical initial state fits.
    """

    n_max: int

    def __post_init__(self):
        if not isinstance(self.n_max, (int, np.integer)) or self.n_max < 0:
            raise ValueError(f"n_max must be a non-negative integer, got {self.n_max!r}")

    @property
    def dim(self) -> int:
        return self.n_max + 1

    @property
    def full_dim(self) -> int:
        return 2 * (self.n_max + 1)


@dataclass(frozen=True)
class BareState:
    """Product state |n, q> with q in {g, e}."""

    n: int
    qubit: str

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 0:
            raise ValueError(f"photon number must be a non-negative integer, got {self.n!r}")
        if self.qubit not in (GROUND, EXCITED):
            raise ValueError(f"qubit label must be 'g' or 'e', got {self.qubit!r}")

    @property
    def excitation(self) -> int:
        return 1 if self.qubit == EXCITED else 0

    def __str__(self):
        return f"|{self.n},{self.qubit}>"


def parity_of(state: BareState) -> int:
    """Eigenvalue of P = -sigma_z exp(i pi a^dag a): +1 iff n + bit(q) is even."""
    return EVEN if (state.n + state.excitation) % 2 == 0 else ODD


@dataclass(frozen=True)
class ParityChain:
    """Ordered bare basis of one parity sector; entry k has photon number k."""

    parity: int
    states: tuple[BareState, ...]

    def __len__(self):
        return len(self.states)

    def excitation_bits(self) -> np.ndarray:
        """0/1 array marking which chain entries carry the excited qubit."""
        return np.array([s.excitation for s in self.states])

    def index_of(self, state: BareState) -> int:
        if parity_of(state) != self.parity:
            raise ValueError(f"{state} does not belong to the parity {self.parity:+d} chain")
        if state.n >= len(self.states):
            raise ValueError(f"{state} lies above the cutoff n_max={len(self.states) - 1}")
        return state.n


@lru_cache(maxsize=None)
def build_parity_chain(parity: int, cutoff: FockCutoff) -> ParityChain:
    """The parity chain truncated at n_max.

    parity +1: |0,g>, |1,e>, |2,g>, ...; parity -1: |0,e>, |1,g>, |2,e>, ...
    """
    if parity not in CHAIN_TAGS:
        raise ValueError(f"parity must be +1 or -1, got {parity!r}")
    states = []
    for k in range(cutoff.dim):
        excited = (k % 2 == 1) if parity == EVEN else (k % 2 == 0)
        states.append(BareState(k, EXCITED if excited else GROUND))
    return ParityChain(parity, tuple(states))


def full_index(state: BareState) -> int:
    """Position of |n,q> in the tensor-product ordering (qubit varies fastest)."""
    return 2 * state.n + state.excitation


@lru_cache(maxsize=None)
def build_annihilation(cutoff: FockCutoff) -> np.ndarray:
    """Photon annihilation operator a on the truncated Fock space (read-only)."""
    a = np.zeros((cutoff.dim, cutoff.dim), dtype=complex)
    ns = np.arange(1, cutoff.dim)
    a[ns - 1, ns] = np.sqrt(ns)
    return _frozen(a)


@lru_cache(maxsize=None)
def two_photon_lowering(cutoff: FockCutoff, basis) -> np.ndarray:
    """a^2 on a parity chain or the full basis (read-only).

    On either chain the matrix is identical to the photon-space one: chain
    index equals photon number, the qubit label is untouched, and states two
    rungs apart share it, so a^2 stays inside the chain.
    """
    a = build_annihilation(cutoff)
    a2 = a @ a
    if basis in CHAIN_TAGS:
        return _frozen(a2)
    if basis == FULL:
        return _frozen(np.kron(a2, np.eye(2)))
    raise ValueError(f"unknown basis tag {basis!r}")


@lru_cache(maxsize=None)
def parity_operator(cutoff: FockCutoff) -> np.ndarray:
    """P = -sigma_z exp(i pi a^dag a) on the full basis, as its read-only +-1 diagonal."""
    diag = np.empty(cutoff.full_dim)
    for n in range(cutoff.dim):
        for bit in (0, 1):
            state = BareState(n, EXCITED if bit else GROUND)
            diag[full_index(state)] = parity_of(state)
    return _frozen(diag)
