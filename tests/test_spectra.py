import numpy as np
import pytest

from rabi_relax.analytic import ep_position, even_peak_position, odd_peak_position
from rabi_relax.hilbert import EVEN, ODD, BareState, FockCutoff
from rabi_relax.model import ModelParams, bare_vector, build_effective_hamiltonian
from rabi_relax.spectra import (complex_spectrum, find_avoided_crossings,
                                find_exceptional_point, map_initial_state,
                                sweep_spectrum)


def params(n_max=12, **overrides):
    base = dict(delta=0.8, g1=0.1, g2=0.05, kappa=0.02, cutoff=FockCutoff(n_max))
    base.update(overrides)
    return ModelParams(**base)


# ----------------------------------------------------------- single spectra

def test_spectrum_is_sorted_and_complete():
    p = params()
    w, vmat = complex_spectrum(p, EVEN)
    assert w.shape == (13,) and vmat.shape == (13, 13)
    order = np.lexsort((w.imag, w.real))
    assert np.array_equal(order, np.arange(13))


def test_eigenvalue_sum_equals_generator_trace():
    p = params(g1=0.23, g2=0.17)
    w, _ = complex_spectrum(p, ODD)
    heff = build_effective_hamiltonian(p, ODD).entries
    assert np.sum(w) == pytest.approx(np.trace(heff), abs=1e-10)


def test_decay_rates_are_never_negative():
    rng = np.random.default_rng(11)
    for _ in range(8):
        g1, g2 = rng.uniform(0.0, 1.2, size=2)
        w, _ = complex_spectrum(params(g1=g1, g2=g2), EVEN)
        assert np.max(w.imag) < 1e-10


def test_eigenpairs_satisfy_the_effective_hamiltonian():
    p = params(g1=0.3, g2=0.1)
    w, vmat = complex_spectrum(p, EVEN)
    heff = build_effective_hamiltonian(p, EVEN).entries
    assert np.max(np.abs(heff @ vmat - vmat * w)) < 1e-12


# ------------------------------------------------------------------- sweeps

def test_single_point_sweep_reproduces_the_spectrum():
    p = params()
    sweep = sweep_spectrum(p, EVEN, "g1", np.array([0.1]))
    w, _ = complex_spectrum(p, EVEN)
    assert sweep.eigenvalue_matrix().shape == (13, 1)
    assert np.allclose(sweep.eigenvalue_matrix()[:, 0], w, atol=1e-13)


def test_sweep_levels_are_branch_continuous():
    p = params()
    grid = np.linspace(0.02, 0.6, 80)
    sweep = sweep_spectrum(p, EVEN, "g1", grid)
    mat = sweep.eigenvalue_matrix()
    # continuation keeps steps small even where the sorted order reshuffles
    assert np.max(np.abs(np.diff(mat, axis=1))) < 0.08
    assert not any(level.weak_link.any() for level in sweep.levels)


def test_reversed_sweep_traces_the_same_branches():
    # labels are anchored at each sweep's own starting point, so compare the
    # two branch families as sets of curves rather than row by row
    p = params()
    grid = np.linspace(0.02, 0.5, 60)
    fwd = sweep_spectrum(p, EVEN, "g1", grid).eigenvalue_matrix()
    bwd = sweep_spectrum(p, EVEN, "g1", grid[::-1]).eigenvalue_matrix()[:, ::-1]
    for row in fwd:
        closest = np.min(np.max(np.abs(bwd - row[None, :]), axis=1))
        assert closest < 1e-9


def test_sweep_with_tied_ratio_moves_both_couplings():
    p = params()
    grid = np.linspace(0.05, 0.2, 4)
    sweep = sweep_spectrum(p, EVEN, "g1", grid, lam=0.5)
    ref = complex_spectrum(p.with_ratio(0.2, 0.5), EVEN)[0]
    assert np.allclose(np.sort(sweep.eigenvalue_matrix()[:, -1].real), np.sort(ref.real),
                       atol=1e-12)
    assert sweep.lam == 0.5


def test_sweep_grid_validation():
    p = params()
    with pytest.raises(ValueError):
        sweep_spectrum(p, EVEN, "g1", np.array([0.1, 0.1, 0.2]))
    with pytest.raises(ValueError):
        sweep_spectrum(p, EVEN, "phase", np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        sweep_spectrum(p, EVEN, "g2", np.array([0.1, 0.3, 0.2]))


# ---------------------------------------------------------------- crossings

def test_even_sweep_finds_the_first_avoided_crossing():
    p = params(n_max=14, g2=0.15)
    target = even_peak_position(1, p)
    grid = np.linspace(target - 0.25, target + 0.25, 51)
    sweep = sweep_spectrum(p, EVEN, "g1", grid)
    events = find_avoided_crossings(sweep)
    ours = [e for e in events if set(e.levels) == {0, 1}]
    assert ours and ours[0].kind == "avoided"
    assert abs(ours[0].value - target) < 0.02
    assert ours[0].gap > 1e-3


def test_rotating_only_sweep_degenerates_to_true_crossings():
    # with the counter-rotating drive off, the lowest level crosses the
    # descending doublet branch exactly; the gap closes to numerical zero
    p = params(n_max=14, g2=0.0)
    target = even_peak_position(1, p)
    grid = np.linspace(target - 0.25, target + 0.25, 51)
    sweep = sweep_spectrum(p, EVEN, "g1", grid)
    events = find_avoided_crossings(sweep, gap_threshold=0.2)
    ours = [e for e in events if set(e.levels) == {0, 1}]
    assert ours and ours[0].kind == "exceptional"
    assert ours[0].re_gap <= 1e-8
    # the crossing levels keep different widths, so this is no degeneracy
    assert ours[0].im_gap > 1e-8
    assert ours[0].degenerate is False
    assert abs(ours[0].value - target) < 0.02


def test_odd_sweep_locates_the_counter_rotating_crossing():
    p = params(n_max=14, g1=0.01)
    target = odd_peak_position(1, p)
    grid = np.linspace(0.2, 0.7, 101)
    sweep = sweep_spectrum(p, ODD, "g2", grid)
    events = find_avoided_crossings(sweep, gap_threshold=0.2)
    assert any(abs(e.value - target) < 0.02 for e in events)


def test_events_are_reported_in_sweep_order():
    p = params(n_max=14, g2=0.15)
    grid = np.linspace(0.5, 2.0, 120)
    events = find_avoided_crossings(sweep_spectrum(p, EVEN, "g1", grid),
                                    gap_threshold=0.3)
    values = [e.value for e in events]
    assert values == sorted(values)
    assert all(grid[0] <= v <= grid[-1] for v in values)


# ------------------------------------------------------- exceptional points

def test_exceptional_point_location_matches_closed_form():
    p = params(n_max=20, delta=1.0, g2=0.0, g1=0.01)
    event = find_exceptional_point(p, 1)
    assert event is not None
    assert event.kind == "exceptional" and event.degenerate
    assert abs(event.value - ep_position(1, p)) < 1e-9


def test_exceptional_point_absent_without_loss():
    p = params(n_max=20, delta=1.0, g2=0.0, g1=0.01, kappa=0.0)
    assert find_exceptional_point(p, 1) is None


def test_exceptional_point_requires_the_degenerate_regime():
    with pytest.raises(ValueError):
        find_exceptional_point(params(delta=0.8, g2=0.0), 1)
    with pytest.raises(ValueError):
        find_exceptional_point(params(delta=1.0, g2=0.05), 1)


# ------------------------------------------------------------ state mapping

def test_initial_state_weights_sum_to_one():
    p = params(g1=0.3, g2=0.1)
    psi0 = bare_vector(p.cutoff, BareState(2, "g"))
    result = map_initial_state(psi0, p, parity=EVEN)
    assert result.weights.shape == (13,)
    assert np.sum(result.weights) == pytest.approx(1.0, abs=1e-10)
    assert np.all(result.weights >= 0.0)
    assert result.condition >= 1.0


def test_eigenstate_maps_to_a_single_weight():
    p = params(g1=0.2)
    w, vmat = complex_spectrum(p, EVEN)
    result = map_initial_state(vmat[:, 4], p, parity=EVEN)
    assert result.weights[4] == pytest.approx(1.0, abs=1e-8)
    assert result.eigenvalues[4] == pytest.approx(w[4], abs=1e-13)


def test_flag_tracks_the_condition_number():
    p = params(g1=0.2)
    result = map_initial_state(bare_vector(p.cutoff, BareState(2, "g")), p, parity=EVEN)
    assert result.flagged == (result.condition > 1e8)
