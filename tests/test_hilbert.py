import numpy as np
import pytest

from rabi_relax.dynamics import _observable_diags
from rabi_relax.hilbert import (EVEN, FULL, ODD, BareState, FockCutoff,
                                build_annihilation, build_parity_chain, embed_full,
                                full_index, parity_of, parity_operator,
                                two_photon_lowering)

CUT = FockCutoff(4)


def test_even_chain_interleaves_ground_and_excited():
    chain = build_parity_chain(EVEN, CUT)
    assert [(s.n, s.qubit) for s in chain.states] == [
        (0, "g"), (1, "e"), (2, "g"), (3, "e"), (4, "g")]


def test_odd_chain_interleaves_excited_and_ground():
    chain = build_parity_chain(ODD, CUT)
    assert [(s.n, s.qubit) for s in chain.states] == [
        (0, "e"), (1, "g"), (2, "e"), (3, "g"), (4, "e")]


def test_parity_of_matches_chain_membership():
    for parity in (EVEN, ODD):
        for state in build_parity_chain(parity, CUT).states:
            assert parity_of(state) == parity


def test_index_of_is_the_photon_number():
    chain = build_parity_chain(ODD, CUT)
    assert chain.index_of(BareState(3, "g")) == 3


def test_index_of_rejects_wrong_parity_and_overflow():
    chain = build_parity_chain(EVEN, CUT)
    with pytest.raises(ValueError):
        chain.index_of(BareState(0, "e"))
    with pytest.raises(ValueError):
        chain.index_of(BareState(5, "e"))


def test_cutoff_validation():
    with pytest.raises(ValueError):
        FockCutoff(-1)
    assert FockCutoff(0).dim == 1
    assert FockCutoff(4).full_dim == 10


def test_two_photon_lowering_on_chain():
    a2 = two_photon_lowering(CUT, EVEN).entries
    expected = np.zeros((5, 5))
    for k in range(2, 5):
        expected[k - 2, k] = np.sqrt(k * (k - 1))
    assert np.allclose(a2, expected, rtol=0, atol=1e-14)
    # both chains carry the same photon-pair matrix
    assert np.array_equal(a2, two_photon_lowering(CUT, ODD).entries)


def test_two_photon_lowering_full_basis_is_kron():
    a = build_annihilation(CUT).entries
    expected = np.kron(a @ a, np.eye(2))
    assert np.allclose(two_photon_lowering(CUT, FULL).entries, expected, atol=0, rtol=0)


def test_truncated_commutator_deviation_is_confined_to_the_corner():
    # [a, a+] = 1 everywhere except the top Fock level, an unavoidable
    # truncation artifact that motivates the support guard in dynamics
    a = build_annihilation(CUT).entries
    comm = a @ a.T - a.T @ a
    expected = np.eye(5)
    expected[-1, -1] = -CUT.n_max
    assert np.allclose(comm, expected, atol=1e-14)


def test_number_operator_and_projector_per_basis():
    # the photon-number and excited-qubit diagonals every observable reads
    ns, _ = _observable_diags(EVEN, CUT.dim)
    assert np.array_equal(ns, np.arange(5.0))
    _, bits = _observable_diags(ODD, CUT.dim)
    assert np.array_equal(bits, np.array([1.0, 0.0, 1.0, 0.0, 1.0]))
    _, bits_full = _observable_diags(FULL, CUT.full_dim)
    assert np.array_equal(bits_full, np.tile([0.0, 1.0], 5))


def test_full_index_interleaves_qubit_fastest():
    assert full_index(BareState(0, "g")) == 0
    assert full_index(BareState(0, "e")) == 1
    assert full_index(BareState(3, "e")) == 7


def test_parity_operator_signs():
    diag = np.diagonal(parity_operator(CUT).entries).real
    for n in range(5):
        for q in ("g", "e"):
            assert diag[full_index(BareState(n, q))] == parity_of(BareState(n, q))


def test_embedding_roundtrip():
    emb = embed_full(CUT)
    rng = np.random.default_rng(3)
    vec = rng.normal(size=10) + 1j * rng.normal(size=10)
    assert np.array_equal(emb.to_full_order(emb.to_chain_order(vec)), vec)
    # the even block comes first in chain ordering
    state = BareState(2, "g")
    parity, pos = emb.chain_position(state)
    assert parity == EVEN and pos == 2
    assert emb.chain_order[emb.concat_position(state)] == full_index(state)


def test_operator_entries_are_frozen():
    a = build_annihilation(CUT)
    assert not a.entries.flags.writeable
    with pytest.raises(ValueError):
        a.entries[0, 0] = 5.0
