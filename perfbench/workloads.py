"""The benchmark's four workloads: the CLI calls of one round and their checks.

Each workload is built from a seed. The seed moves only inputs that leave the
amount of work unchanged (sweep end points of a null-space sweep, the initial
bare state of a propagation, the doublet of an exceptional-point search) and
picks which output rows are compared with the reference computations, so
every seed does the same work, up to a few root-finding steps of the
exceptional-point search. Checks compare outputs with `oracle` (built
apart from the package) or with properties the method must have; none
compares with a stored copy of an earlier output.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

import oracle

FIG3 = {"omega": 1.0, "delta": 0.8, "g1": 0.1, "g2": 0.05, "kappa": 0.02}


@dataclass(frozen=True)
class Call:
    """One rabi-relax command-line call: subcommand and config keys."""

    name: str
    command: str
    config: dict

    def config_text(self) -> str:
        return "".join(f"{key} = {value}\n" for key, value in self.config.items())


@dataclass(frozen=True)
class Table:
    columns: list
    rows: list
    footer: dict

    def col(self, name: str) -> np.ndarray:
        i = self.columns.index(name)
        return np.array([float(row[i]) for row in self.rows])

    def text_col(self, name: str) -> list:
        i = self.columns.index(name)
        return [row[i] for row in self.rows]


def read_table(text: str) -> Table:
    """Parse the CLI's CSV: `#` header lines, column line, rows, `# key = value` footer."""
    footer, rows, columns = {}, [], None
    for line in text.splitlines():
        if line.startswith("#"):
            if columns is not None:
                key, _, value = line[1:].strip().partition(" = ")
                footer[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    if columns is None:
        raise ValueError("no column line in the output")
    return Table(columns, rows, footer)


def _params(g1: float, g2: float) -> dict:
    return dict(FIG3, g1=g1, g2=g2)


def _close(errors: list, what: str, got, want, tol: float):
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    if not err <= tol:
        errors.append(f"{what}: max deviation {err:.3e} > {tol:g}")


class Workload:
    """Calls of one round (`calls`) and the checks of their outputs."""

    name = ""
    n_max = 20  # cutoff of the set-up call

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.calls = []
        # a call that does no work: Fig. 3 dynamics at t_max = 0
        self.setup = Call("setup", "dynamics", dict(FIG3, n_max=self.n_max, t_max=0))

    def check(self, call: Call, text: str) -> list:
        """Errors found in one call's output; empty when it is correct."""
        return getattr(self, f"_check_{call.name}")(text)

    def _check_setup(self, text):
        t = read_table(text)
        if len(t.rows) != 1:
            return [f"setup: {len(t.rows)} rows, expected the t = 0 row alone"]
        errors = []
        _close(errors, "setup row (t, <n>, P_e, trace, purity)",
               [t.col(c)[0] for c in t.columns], [0.0, 2.0, 0.0, 1.0, 1.0], 1e-12)
        return errors


class SteadyKernel(Workload):
    name = "steady-kernel"
    n_max = 40
    POINTS = 30

    def __init__(self, seed: int):
        super().__init__(seed)
        start, stop = 0.5 + 0.005 * self.rng.random(), 2.0 - 0.005 * self.rng.random()
        base = dict(FIG3, g1=start, g2=0.15)
        self.calls = [
            Call("sweep20", "steady", dict(base, n_max=20, parity="even",
                                           steady_method="null_space", sweep_axis="g1",
                                           sweep_start=repr(start), sweep_stop=repr(stop),
                                           sweep_points=self.POINTS)),
            Call("point40", "steady", dict(FIG3, n_max=40, steady_method="null_space")),
        ]
        self.grid = np.linspace(start, stop, self.POINTS)
        self.want20 = np.array([oracle.steady_observables(_params(g, 0.15), 20, 1)
                                for g in self.grid])
        self.want40 = np.array([oracle.steady_observables(FIG3, 40, 1)])

    def _steady_rows(self, label, text, grid, want) -> list:
        t = read_table(text)
        errors = []
        if len(t.rows) != len(grid):
            return [f"{label}: {len(t.rows)} rows, expected {len(grid)}"]
        if any(c != "true" for c in t.text_col("converged")):
            errors.append(f"{label}: a row has converged = false")
        _close(errors, f"{label} g1 grid", t.col("g1"), grid, 1e-11)
        got = np.column_stack([t.col("mean_photon"), t.col("qubit_excitation")])
        _close(errors, f"{label} vs direct steady state", got, want, 1e-10)
        return errors

    def _check_sweep20(self, text):
        return self._steady_rows("n_max 20 sweep", text, self.grid, self.want20)

    def _check_point40(self, text):
        return self._steady_rows("n_max 40 point", text, [FIG3["g1"]], self.want40)


class Propagation(Workload):
    name = "propagation"
    n_max = 40
    TIMES = np.linspace(0.0, 60.0, 601)
    GRID_G1 = (0.1, 0.2, 0.3)
    GRID_G2 = (0.05, 0.15)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.n0 = int(self.rng.integers(0, 5))
        dyn = dict(FIG3, t_max=60, samples=601,
                   initial=f"{self.n0},{'e' if self.n0 % 2 else 'g'}")
        self.calls = [
            Call("master20", "dynamics", dict(dyn, n_max=20)),
            Call("master40", "dynamics", dict(dyn, n_max=40)),
            Call("effective40", "dynamics", dict(dyn, n_max=40, solver="effective")),
            Call("longtime", "steady", dict(
                FIG3, n_max=20, sweep_axis="g1", sweep_start=self.GRID_G1[0],
                sweep_stop=self.GRID_G1[-1], sweep_points=len(self.GRID_G1),
                sweep2_axis="g2", sweep2_start=self.GRID_G2[0], sweep2_stop=self.GRID_G2[-1],
                sweep2_points=len(self.GRID_G2))),
        ]
        self.sample = np.sort(self.rng.choice(np.arange(1, 600), 4, replace=False)).tolist() + [600]
        self.want_master = oracle.master_rows(FIG3, 20, 1, self.n0, self.TIMES[self.sample])
        self.want_effective = oracle.effective_rows(FIG3, 40, 1, self.n0, self.TIMES[self.sample])
        self.points = [(g1, g2) for g1 in self.GRID_G1 for g2 in self.GRID_G2]
        self.want_steady = np.array([oracle.steady_observables(_params(g1, g2), 20, 1)
                                     for g1, g2 in self.points])
        self.master20 = None

    def _master(self, label, text):
        t = read_table(text)
        if len(t.rows) != self.TIMES.size:
            return None, [f"{label}: {len(t.rows)} rows, expected {self.TIMES.size}"]
        errors = []
        rows = np.column_stack([t.col(c) for c in t.columns])
        _close(errors, f"{label} times", rows[:, 0], self.TIMES, 1e-11)
        _close(errors, f"{label} trace", rows[:, 3], 1.0, 1e-8)
        if rows[:, 4].max() > 1.0 + 1e-12:
            errors.append(f"{label}: purity {rows[:, 4].max():.15g} > 1")
        return rows, errors

    def _check_master20(self, text):
        rows, errors = self._master("master n_max 20", text)
        if rows is not None:
            _close(errors, "master n_max 20 vs expm(L t)", rows[self.sample, 1:],
                   self.want_master, 1e-8)
        self.master20 = rows
        return errors

    def _check_master40(self, text):
        rows, errors = self._master("master n_max 40", text)
        if rows is not None and self.master20 is not None:
            _close(errors, "master n_max 40 vs n_max 20", rows, self.master20, 1e-6)
        return errors

    def _check_effective40(self, text):
        t = read_table(text)
        if len(t.rows) != self.TIMES.size:
            return [f"effective: {len(t.rows)} rows, expected {self.TIMES.size}"]
        errors = []
        norm2 = t.col("trace")
        if np.any(np.diff(norm2) > 0.0):
            errors.append("effective: norm^2 increases between samples")
        got = np.column_stack([t.col("mean_photon"), t.col("qubit_excitation"), norm2])
        _close(errors, "effective vs expm(-i H_eff t)", got[self.sample],
               self.want_effective, 1e-6)
        return errors

    def _check_longtime(self, text):
        t = read_table(text)
        if len(t.rows) != len(self.points):
            return [f"long-time grid: {len(t.rows)} rows, expected {len(self.points)}"]
        errors = []
        _close(errors, "long-time grid points",
               np.column_stack([t.col("g1"), t.col("g2")]), self.points, 1e-11)
        got = np.column_stack([t.col("mean_photon"), t.col("qubit_excitation")])
        _close(errors, "long-time grid vs direct steady state", got, self.want_steady, 1e-6)
        return errors


class SpectrumSweep(Workload):
    name = "spectrum-sweep"
    n_max = 40
    BASE = dict(FIG3, g1=0.5, g2=0.15)
    GRID = np.linspace(0.5, 2.0, 1000)
    EP_GRID = np.linspace(0.0, 0.2, 201)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.doublet = int(self.rng.integers(1, 4))
        self.ep_params = dict(FIG3, delta=1.0, g1=0.0, g2=0.0)
        self.calls = [
            Call("sweep", "spectrum", dict(
                self.BASE, n_max=40, sweep_axis="g1", sweep_start=self.GRID[0],
                sweep_stop=self.GRID[-1], sweep_points=self.GRID.size, report_crossings="true")),
            Call("ep", "spectrum", dict(
                self.ep_params, n_max=40, sweep_axis="g1", sweep_start=self.EP_GRID[0],
                sweep_stop=self.EP_GRID[-1], sweep_points=self.EP_GRID.size,
                ep_doublet=self.doublet)),
        ]

    def _check_sweep(self, text):
        t = read_table(text)
        dim = 41
        if len(t.rows) != self.GRID.size * dim:
            return [f"spectrum: {len(t.rows)} rows, expected {self.GRID.size * dim}"]
        errors = []
        lam = (t.col("re_E_over_omega") + 1j * t.col("im_E_over_omega")).reshape(-1, dim)
        _close(errors, "spectrum sweep values", t.col("sweep_value")[::dim], self.GRID, 1e-11)
        moments = np.array([oracle.heff_trace_moments(_params(g, self.BASE["g2"]), 40, 1)
                            for g in self.GRID])
        scale = np.abs(lam.real) + np.abs(lam.imag)
        # printed eigenvalues carry 12 significant digits
        err1 = np.abs(lam.sum(axis=1) - moments[:, 0]) / (scale.sum(axis=1) * 1e-11)
        err2 = (np.abs((lam ** 2).sum(axis=1) - moments[:, 1])
                / ((2.0 * np.abs(lam) * scale).sum(axis=1) * 1e-11))
        worst = int(np.argmax(np.maximum(err1, err2)))
        if max(err1[worst], err2[worst]) > 1.0:
            errors.append(f"spectrum: sum of eigenvalues (or of their squares) misses the "
                          f"closed-form trace at g1 = {self.GRID[worst]:.6g}")
        target = math.sqrt(1.0 + FIG3["delta"] / FIG3["omega"])
        pair01 = [float(m.group(1)) for v in t.footer.values()
                  if (m := re.search(r"g1=(\S+) levels=0-1 ", v))]
        if not pair01 or min(abs(x - target) for x in pair01) > 0.02:
            errors.append(f"spectrum: no crossing of levels 0-1 within 0.02 of "
                          f"sqrt(1 + delta) = {target:.6f} (found {pair01})")
        return errors

    def _check_ep(self, text):
        t = read_table(text)
        got = t.footer.get("exceptional_point_g1_over_omega")
        want = oracle.exceptional_point(self.ep_params, self.doublet)
        if got is None:
            return [f"ep: no exceptional point reported for doublet {self.doublet}"]
        if abs(float(got) - want) > 1e-6:
            return [f"ep: doublet {self.doublet} at g1 = {got}, expected {want:.12g}"]
        return []


class VerifySuite(Workload):
    name = "verify-suite"
    n_max = 20
    CHECKS = 8

    def __init__(self, seed: int):
        super().__init__(seed)
        self.calls = [Call("verify", "verify", {})]

    def _check_verify(self, text):
        lines = text.strip().splitlines()
        errors = []
        if lines[-1:] != [f"{self.CHECKS}/{self.CHECKS} checks passed"]:
            errors.append(f"verify: summary line {lines[-1:]!r}")
        if sum(line.startswith("[PASS]") for line in lines) != self.CHECKS:
            errors.append("verify: not every check printed [PASS]")
        m = re.search(r"exceptional-point: measured g1/omega = (\S+),", text)
        want = oracle.exceptional_point(FIG3, 1)
        if m is None or abs(float(m.group(1)) - want) > 1e-6:
            errors.append(f"verify: exceptional point {m.group(1) if m else None}, "
                          f"expected kappa/sqrt(2) = {want:.9f}")
        return errors


WORKLOADS = {w.name: w for w in (SteadyKernel, Propagation, SpectrumSweep, VerifySuite)}
