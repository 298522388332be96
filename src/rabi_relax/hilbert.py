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
PHOTON = "photon"

GROUND = "g"
EXCITED = "e"

# Qubit operators in the (|g>, |e>) ordering used by the full tensor basis.
SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]])
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]])   # |e><g|
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]])  # |g><e|

CHAIN_TAGS = (EVEN, ODD)
BASIS_TAGS = (EVEN, ODD, FULL, PHOTON)


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


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense complex matrix together with the basis it is expressed in."""

    dim: int
    entries: np.ndarray
    basis_tag: object  # one of EVEN, ODD, FULL, PHOTON

    def __post_init__(self):
        if self.basis_tag not in BASIS_TAGS:
            raise ValueError(f"unknown basis tag {self.basis_tag!r}")
        arr = np.asarray(self.entries, dtype=complex)
        if arr.shape != (self.dim, self.dim):
            raise ValueError(f"entries must be {self.dim}x{self.dim}, got {arr.shape}")
        object.__setattr__(self, "entries", _frozen(arr))


def full_index(state: BareState) -> int:
    """Position of |n,q> in the tensor-product ordering (qubit varies fastest)."""
    return 2 * state.n + state.excitation


@lru_cache(maxsize=None)
def build_annihilation(cutoff: FockCutoff) -> OperatorMatrix:
    """Photon annihilation operator a on the truncated Fock space."""
    a = np.zeros((cutoff.dim, cutoff.dim), dtype=complex)
    ns = np.arange(1, cutoff.dim)
    a[ns - 1, ns] = np.sqrt(ns)
    return OperatorMatrix(cutoff.dim, a, PHOTON)


@lru_cache(maxsize=None)
def two_photon_lowering(cutoff: FockCutoff, basis=PHOTON) -> OperatorMatrix:
    """a^2 on the requested basis.

    On either chain the matrix is identical to the photon-space one: chain
    index equals photon number, the qubit label is untouched, and states two
    rungs apart share it, so a^2 stays inside the chain.
    """
    a = build_annihilation(cutoff).entries
    a2 = a @ a
    if basis in (PHOTON, EVEN, ODD):
        return OperatorMatrix(cutoff.dim, a2, basis)
    if basis == FULL:
        return OperatorMatrix(cutoff.full_dim, np.kron(a2, np.eye(2)), FULL)
    raise ValueError(f"unknown basis tag {basis!r}")


@lru_cache(maxsize=None)
def parity_operator(cutoff: FockCutoff) -> OperatorMatrix:
    """P = -sigma_z exp(i pi a^dag a) on the full basis (diagonal, entries +-1)."""
    diag = np.empty(cutoff.full_dim)
    for n in range(cutoff.dim):
        for bit in (0, 1):
            state = BareState(n, EXCITED if bit else GROUND)
            diag[full_index(state)] = parity_of(state)
    return OperatorMatrix(cutoff.full_dim, np.diag(diag).astype(complex), FULL)


@dataclass(frozen=True)
class ChainEmbedding:
    """Indexing of the full space as the disjoint union of the two chains.

    chain_order[j] is the full-basis index of the j-th state in the
    concatenated (even chain, odd chain) ordering; inverse_order undoes it:
    chain_order[inverse_order[i]] == i for every full index i.
    """

    cutoff: FockCutoff
    even: ParityChain
    odd: ParityChain
    chain_order: np.ndarray
    inverse_order: np.ndarray

    def chain_position(self, state: BareState) -> tuple[int, int]:
        """(parity, index within that chain) of a bare state."""
        return parity_of(state), state.n

    def concat_position(self, state: BareState) -> int:
        """Index in the concatenated [even | odd] ordering."""
        p, k = self.chain_position(state)
        return k if p == EVEN else self.cutoff.dim + k

    def to_chain_order(self, full_vector: np.ndarray) -> np.ndarray:
        return np.asarray(full_vector)[..., self.chain_order]

    def to_full_order(self, chain_vector: np.ndarray) -> np.ndarray:
        return np.asarray(chain_vector)[..., self.inverse_order]


@lru_cache(maxsize=None)
def embed_full(cutoff: FockCutoff) -> ChainEmbedding:
    """Basis map between full tensor-product order and chain order."""
    even = build_parity_chain(EVEN, cutoff)
    odd = build_parity_chain(ODD, cutoff)
    chain_order = np.array([full_index(s) for s in even.states + odd.states])
    inverse = np.empty_like(chain_order)
    inverse[chain_order] = np.arange(chain_order.size)
    return ChainEmbedding(cutoff, even, odd, _frozen(chain_order), _frozen(inverse))
