"""Complex spectra of the effective Hamiltonian.

Point spectra per parity sector, branch tracking across parameter sweeps by
eigenvector overlap, detection of avoided crossings and genuine degeneracies,
bisection for the exceptional point of a resonant doublet, and eigenbasis
decomposition of initial states. Only the right eigenvectors are computed.

Eigenvalues are absolute (same units as omega); sweep axis values likewise.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, linear_sum_assignment

from .hilbert import CHAIN_TAGS, EVEN, ODD
from .model import ModelParams, build_effective_hamiltonian

SWEEP_AXES = ("g1", "g2", "delta", "kappa")

# tracking continuity: overlaps below this are flagged (EP neighborhoods)
_WEAK_OVERLAP = 0.5


class DiagonalizationError(RuntimeError):
    """Eigensolver failure, annotated with the parameter point."""


def _point_params(base: ModelParams, axis: str, value: float,
                  lam: float | None = None) -> ModelParams:
    value = float(value)
    if axis == "g1":
        g2 = lam * value if lam is not None else base.g2
        return dataclasses.replace(base, g1=value, g2=g2)
    if lam is not None:
        raise ValueError("a coupling ratio only applies to g1 sweeps")
    if axis in ("g2", "delta", "kappa"):
        return dataclasses.replace(base, **{axis: value})
    raise ValueError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")


def complex_spectrum(params: ModelParams, parity) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and right eigenvectors of the chain-restricted H_eff.

    Sorted by ascending real part (ties by imaginary part); each eigenvector
    column is normalized with its largest-modulus component made real and
    positive, so the output is deterministic.
    """
    if parity not in CHAIN_TAGS:
        raise ValueError(f"spectrum is defined per parity sector, got {parity!r}")
    heff = build_effective_hamiltonian(params, parity).entries
    try:
        w, vmat = np.linalg.eig(heff)
    except np.linalg.LinAlgError as exc:
        raise DiagonalizationError(
            f"eigensolver failed at delta={params.delta:g}, g1={params.g1:g}, "
            f"g2={params.g2:g}, kappa={params.kappa:g}, parity={parity:+d}") from exc
    order = np.lexsort((w.imag, w.real))
    w = w[order]
    vmat = vmat[:, order]
    lead = np.abs(vmat).argmax(axis=0)
    phases = vmat[lead, np.arange(vmat.shape[1])]
    vmat = vmat * np.exp(-1j * np.angle(phases))[None, :]
    return w, vmat


@dataclass(frozen=True)
class ComplexLevel:
    """One tracked branch: label (parity, index at sweep start), values per point."""

    label: tuple
    values: np.ndarray
    weak_link: np.ndarray  # True where the ancestry overlap dropped below 0.5


@dataclass(frozen=True)
class SpectrumSweep:
    axis: str
    values: np.ndarray
    parity: int
    levels: tuple
    base: ModelParams
    lam: float | None = None

    def eigenvalue_matrix(self) -> np.ndarray:
        """(n_levels, n_points) complex array in branch-label order."""
        return np.vstack([lvl.values for lvl in self.levels])


def _validate_grid(grid) -> np.ndarray:
    vals = np.atleast_1d(np.asarray(grid, dtype=float))
    if vals.size == 0:
        raise ValueError("sweep grid is empty")
    if vals.size > 1:
        d = np.diff(vals)
        if not (np.all(d > 0) or np.all(d < 0)):
            raise ValueError("sweep grid must be strictly monotone")
    return vals


def sweep_spectrum(params: ModelParams, parity, axis: str, grid,
                   lam: float | None = None) -> SpectrumSweep:
    """Track the sector spectrum across a monotone grid of one parameter.

    Branches start in ascending-real-part order at the first grid point and
    follow maximal eigenvector overlap afterwards (a rectangular assignment,
    so every eigenvalue is claimed by exactly one branch).
    """
    vals = _validate_grid(grid)
    eigensystems = (complex_spectrum(_point_params(params, axis, x, lam), parity)
                    for x in vals)

    w_prev, v_prev = next(eigensystems)
    dim = w_prev.size
    n_pts = vals.size
    values = np.empty((dim, n_pts), dtype=complex)
    weak = np.zeros((dim, n_pts), dtype=bool)
    values[:, 0] = w_prev

    for k in range(1, n_pts):
        w, vmat = next(eigensystems)
        overlap = np.abs(v_prev.conj().T @ vmat)
        row, col = linear_sum_assignment(-overlap)
        perm = col[np.argsort(row)]
        w_prev = w[perm]
        v_prev = vmat[:, perm]
        values[:, k] = w_prev
        weak[:, k] = overlap[np.arange(dim), perm] < _WEAK_OVERLAP

    levels = tuple(
        ComplexLevel(label=(parity, b), values=values[b].copy(), weak_link=weak[b].copy())
        for b in range(dim))
    return SpectrumSweep(axis=axis, values=vals, parity=parity, levels=levels,
                         base=params, lam=lam)


@dataclass(frozen=True)
class CrossingEvent:
    """A level-pair approach.

    kind is 'exceptional' where the real parts cross (re_gap at the floor) and
    'avoided' otherwise; the levels can still differ in imaginary part there.
    degenerate marks two coinciding complex levels: both gap components at
    the floor in find_avoided_crossings, the bisected closure (an exceptional
    point) in find_exceptional_point.
    """

    kind: str  # "avoided" | "exceptional"
    axis: str
    value: float
    levels: tuple  # the two branch indices
    gap: float  # |E_i - E_j| at the refined point
    re_gap: float
    im_gap: float
    degenerate: bool


def _pair_at(sweep: SpectrumSweep, x: float, b: int, k_ref: int) -> tuple[complex, complex]:
    """Eigenvalues of branches (b, b+1) at off-grid x, matched by proximity.

    Proximity is measured against the tracked values at grid index k_ref,
    which is close enough for the sub-grid refinement this supports.
    """
    w, _ = complex_spectrum(_point_params(sweep.base, sweep.axis, x, sweep.lam),
                            sweep.parity)
    e_mat = sweep.eigenvalue_matrix()
    i = int(np.abs(w - e_mat[b, k_ref]).argmin())
    dist_j = np.abs(w - e_mat[b + 1, k_ref])
    dist_j[i] = np.inf
    j = int(dist_j.argmin())
    return w[i], w[j]


def find_avoided_crossings(sweep: SpectrumSweep, gap_threshold: float = 0.5,
                           floor: float = 1e-8) -> list:
    """Scan adjacent branch pairs for near-approaches of the real parts.

    Local minima of |Re E_b - Re E_{b+1}| below gap_threshold become events,
    with parabolic sub-grid refinement of the minimizing parameter. When the
    signed real-part difference changes sign (a genuine crossing) the root is
    polished by bisection instead, and the event is reported with kind
    'exceptional'. Everything else is 'avoided'. A real-part crossing need not
    be a degeneracy: degenerate is set only when the imaginary parts also
    agree to within floor, as at a true non-Hermitian degeneracy.
    """
    e_mat = sweep.eigenvalue_matrix()
    x = sweep.values
    if x.size < 3:
        return []
    events = []
    for b in range(e_mat.shape[0] - 1):
        s = e_mat[b].real - e_mat[b + 1].real
        gap = np.abs(s)
        candidates = [k for k in range(1, x.size - 1)
                      if gap[k] <= gap[k - 1] and gap[k] <= gap[k + 1]
                      and gap[k] < gap_threshold]
        # collapse plateau runs to their single best point
        pruned, run = [], []
        for k in candidates:
            if run and k == run[-1] + 1:
                run.append(k)
            else:
                if run:
                    pruned.append(min(run, key=lambda q: gap[q]))
                run = [k]
        if run:
            pruned.append(min(run, key=lambda q: gap[q]))

        for k in pruned:
            bracket = None
            if s[k - 1] * s[k] < 0:
                bracket = (x[k - 1], x[k])
            elif s[k] * s[k + 1] < 0:
                bracket = (x[k], x[k + 1])
            if bracket is not None:
                def signed(xx, _b=b, _k=k):
                    ei, ej = _pair_at(sweep, xx, _b, _k)
                    return ei.real - ej.real
                x_star = float(brentq(signed, *bracket, xtol=1e-13, rtol=1e-14))
            else:
                y0, y1, y2 = gap[k - 1], gap[k], gap[k + 1]
                x0, x1, x2 = x[k - 1], x[k], x[k + 1]
                denom = (y0 - 2 * y1 + y2)
                if abs(denom) > 1e-300:
                    h = 0.5 * (x2 - x0) / 2.0
                    x_star = x1 + h * (y0 - y2) / denom
                    x_star = float(np.clip(x_star, x0, x2))
                else:
                    x_star = float(x1)
            ei, ej = _pair_at(sweep, x_star, b, k)
            re_gap = abs(ei.real - ej.real)
            im_gap = abs(ei.imag - ej.imag)
            kind = "exceptional" if re_gap <= floor else "avoided"
            events.append(CrossingEvent(kind=kind, axis=sweep.axis, value=x_star,
                                        levels=(b, b + 1), gap=abs(ei - ej),
                                        re_gap=re_gap, im_gap=im_gap,
                                        degenerate=bool(max(re_gap, im_gap) <= floor)))
    events.sort(key=lambda ev: (ev.value, ev.levels))
    return events


def _hosting_parity(n: int) -> int:
    """Chain containing the JC doublet {|n,e>, |n+1,g>}: odd for even n."""
    return ODD if n % 2 == 0 else EVEN


def find_exceptional_point(params: ModelParams, n: int, g1_grid=None,
                           tol: float = 1e-9):
    """Locate the doublet-n exceptional point at qubit-cavity resonance.

    Requires delta == omega (resonant Jaynes-Cummings doublets) and g2 == 0.
    The splitting is real above the critical coupling and imaginary below it;
    the sign of |Re split| - |Im split|, measured from the numerical spectrum,
    is bisected over g1. Returns a CrossingEvent at the closure, or None when
    no sign change exists on the grid (n = 0 has no exceptional point).
    """
    if n < 0:
        raise ValueError("doublet index must be non-negative")
    if abs(params.delta - params.omega) > 1e-12 * params.omega:
        raise ValueError("exceptional-point search requires delta == omega (resonance)")
    if params.g2 != 0.0:
        raise ValueError("exceptional-point search requires g2 == 0")
    parity = _hosting_parity(n)
    center = (n + 0.5) * params.omega - 1j * params.kappa * n * n

    def split(g1: float) -> tuple[complex, complex]:
        w, _ = complex_spectrum(dataclasses.replace(params, g1=float(g1)), parity)
        order = np.abs(w - center).argsort()
        return w[order[0]], w[order[1]]

    def disc(g1: float) -> float:
        ei, ej = split(g1)
        return abs(ei.real - ej.real) - abs(ei.imag - ej.imag)

    if g1_grid is None:
        g1_grid = np.linspace(0.0, 5.0 * params.kappa * max(n, 1), 101)
    grid = np.atleast_1d(np.asarray(g1_grid, dtype=float))
    d_vals = np.array([disc(g) for g in grid])
    bracket = None
    for i in range(grid.size - 1):
        if d_vals[i] < -1e-14 and d_vals[i + 1] >= 0.0:
            bracket = (grid[i], grid[i + 1])
            break
    if bracket is None:
        return None
    g1_star = float(brentq(disc, *bracket, xtol=tol))
    ei, ej = split(g1_star)
    w, _ = complex_spectrum(dataclasses.replace(params, g1=g1_star), parity)
    idx = tuple(sorted((int(np.abs(w - ei).argmin()), int(np.abs(w - ej).argmin()))))
    return CrossingEvent(kind="exceptional", axis="g1", value=g1_star, levels=idx,
                         gap=abs(ei - ej), re_gap=abs(ei.real - ej.real),
                         im_gap=abs(ei.imag - ej.imag), degenerate=True)


@dataclass(frozen=True)
class EigenbasisMap:
    """Initial-state weights on the (non-orthogonal) H_eff eigenbasis."""

    weights: np.ndarray  # modulus-squared coefficients, normalized to sum 1
    eigenvalues: np.ndarray
    condition: float
    flagged: bool  # condition > 1e8: expansion unreliable near an EP


def map_initial_state(psi0, params: ModelParams, parity=None) -> EigenbasisMap:
    """Expand a chain state in the eigenvectors of H_eff.

    Solves V c = psi for the coefficients (the eigenbasis is not orthogonal,
    so projection would be wrong) and reports |c|^2 normalized to sum 1,
    together with the eigenvector-matrix condition number.
    """
    amps = getattr(psi0, "amplitudes", None)
    if amps is None:
        amps = np.asarray(psi0, dtype=complex)
    else:
        parity = psi0.basis_tag
    if parity not in CHAIN_TAGS:
        raise ValueError("eigenbasis map needs a chain state (give parity for raw arrays)")
    w, vmat = complex_spectrum(params, parity)
    coeff = np.linalg.solve(vmat, amps)
    weights = np.abs(coeff) ** 2
    total = weights.sum()
    if total > 0:
        weights = weights / total
    condition = float(np.linalg.cond(vmat))
    return EigenbasisMap(weights=weights, eigenvalues=w, condition=condition,
                         flagged=condition > 1e8)
