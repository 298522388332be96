"""Configuration-driven command line.

Four subcommands: dynamics (one trajectory), spectrum (tracked sweep of the
sector spectrum), steady (steady-state observables over coupling grids), and
verify (analytic-vs-numeric check suite). The config is flat key=value text
with # comments; frequencies and rates are given in units of omega, times in
units of T_c = pi/omega. Output is CSV (or a JSON mirror) with the resolved
config embedded as a comment header, floats at 12 significant digits, and
deterministic ordering, so identical configs give byte-identical files.

Exit codes: 0 success, 2 config error, 3 solver failure, 4 verification
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import spectra, verify as verify_mod
from .dynamics import (SolverError, StateVector, canonical_initial_state,
                       evolve_effective, evolve_master, steady_map)
from .hilbert import EVEN, ODD, BareState, FockCutoff, parity_of
from .model import DensityMatrix, ModelParams

PARITY_BY_NAME = {"even": EVEN, "odd": ODD}
PARITY_NAME = {EVEN: "even", ODD: "odd"}

_COUPLING_AXES = ("g1", "g2")


class ConfigError(Exception):
    """Bad configuration; the message carries file and line where known."""


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _json_value(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    return value


def _as_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"not a number: {text!r}")
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _as_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}")


def _as_bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _as_str(text: str) -> str:
    return text


class _Config:
    """Raw key=value entries with line numbers, consumed key by key."""

    _MISSING = object()

    def __init__(self, path: str):
        self.path = path
        self.entries: dict[str, tuple[str, int]] = {}
        self.resolved: dict[str, object] = {}
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"{path}: {exc.strerror or exc}")
        for ln, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected key = value, got {line!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if not key or not val:
                raise ConfigError(f"{path}:{ln}: expected key = value, got {line!r}")
            if key in self.entries:
                first = self.entries[key][1]
                raise ConfigError(f"{path}:{ln}: duplicate key {key!r} (first on line {first})")
            self.entries[key] = (val, ln)

    def has(self, key: str) -> bool:
        return key in self.entries

    def line_of(self, key: str) -> str:
        return f"{self.path}:{self.entries[key][1]}" if key in self.entries else self.path

    def take(self, key: str, parse, default=_MISSING):
        if key in self.entries:
            val, ln = self.entries[key]
            try:
                parsed = parse(val)
            except ValueError as exc:
                raise ConfigError(f"{self.path}:{ln}: {key}: {exc}")
        elif default is _Config._MISSING:
            raise ConfigError(f"{self.path}: missing required key {key!r}")
        else:
            parsed = default
        if parsed is not None:
            self.resolved[key] = parsed
        return parsed

    def reject_unknown(self, allowed):
        for key, (_, ln) in self.entries.items():
            if key not in allowed:
                raise ConfigError(f"{self.path}:{ln}: unknown key {key!r}")


_COMMON_KEYS = ("omega", "delta", "g1", "g2", "lambda", "kappa", "n_max", "parity")
_KEYS = {
    "dynamics": _COMMON_KEYS + ("initial", "solver", "renormalize", "t_max", "samples"),
    "spectrum": _COMMON_KEYS + ("sweep_axis", "sweep_start", "sweep_stop", "sweep_points",
                                "ep_doublet", "report_crossings", "gap_threshold"),
    "steady": _COMMON_KEYS + ("initial", "steady_method", "obs_tol", "residual_tol",
                              "window_tc", "cap_tc", "sample_dt_tc",
                              "sweep_axis", "sweep_start", "sweep_stop", "sweep_points",
                              "sweep2_axis", "sweep2_start", "sweep2_stop", "sweep2_points"),
    "verify": _COMMON_KEYS + ("initial",),
}


def _swept_default(cfg: _Config, command: str, key: str):
    """Base value of an omitted coupling key: the start of a sweep over it, else missing."""
    if not cfg.has(key):
        default_axis = "g1" if command == "spectrum" else None
        for prefix, default in (("sweep", default_axis), ("sweep2", None)):
            axis = cfg.entries[f"{prefix}_axis"][0] if cfg.has(f"{prefix}_axis") else default
            if axis == key and cfg.has(f"{prefix}_start"):
                return cfg.take(f"{prefix}_start", _as_float)
    return _Config._MISSING


def _resolve_couplings(cfg: _Config, command: str) -> tuple[float, float | None, float | None]:
    """(g1, g2, lambda) in omega units; exactly one of g2/lambda may be set.

    A swept coupling may be omitted; its base value is then the sweep start.
    """
    if cfg.has("g2") and cfg.has("lambda"):
        raise ConfigError(f"{cfg.line_of('lambda')}: give exactly one of g2 and lambda")
    required = command != "verify"
    g2_base = None
    if required and not cfg.has("lambda"):
        g2_base = _swept_default(cfg, command, "g2")
        if g2_base is _Config._MISSING and not cfg.has("g2"):
            raise ConfigError(f"{cfg.path}: give exactly one of g2 and lambda")
    g1 = cfg.take("g1", _as_float, _swept_default(cfg, command, "g1") if required else 0.1)
    g2 = cfg.take("g2", _as_float, g2_base)
    lam = cfg.take("lambda", _as_float, None)
    if not required and g2 is None and lam is None:
        lam = cfg.resolved["lambda"] = 0.5
    if g1 < 0:
        raise ConfigError(f"{cfg.line_of('g1')}: g1 must be non-negative")
    if g2 is not None and g2 < 0:
        raise ConfigError(f"{cfg.line_of('g2')}: g2 must be non-negative")
    if lam is not None and lam < 0:
        raise ConfigError(f"{cfg.line_of('lambda')}: lambda must be non-negative")
    return g1, g2, lam


def _resolve_model(cfg: _Config, command: str):
    """Returns (params, parity, lambda-or-None); params in absolute units."""
    omega = cfg.take("omega", _as_float, 1.0)
    delta = cfg.take("delta", _as_float, 0.8)
    kappa = cfg.take("kappa", _as_float, 0.02)
    n_max = cfg.take("n_max", _as_int, 20)
    parity_name = cfg.take("parity", _as_str, "even")
    if parity_name not in PARITY_BY_NAME:
        raise ConfigError(f"{cfg.line_of('parity')}: parity must be even or odd")
    g1, g2, lam = _resolve_couplings(cfg, command)
    g2_eff = (lam * g1 if lam is not None else g2)
    try:
        params = ModelParams(delta=delta * omega, g1=g1 * omega, g2=g2_eff * omega,
                             kappa=kappa * omega, omega=omega, cutoff=FockCutoff(n_max))
    except ValueError as exc:
        raise ConfigError(f"{cfg.path}: {exc}")
    return params, PARITY_BY_NAME[parity_name], lam


def _parse_initial(cfg: _Config, params: ModelParams, parity, allow_amps: bool = True):
    """Returns a BareState, or a chain-ordered amplitude vector for amps lists."""
    text = cfg.take("initial", _as_str, None)
    if text is None:
        state = canonical_initial_state(parity)
        cfg.resolved["initial"] = f"{state.n},{state.qubit}"
        return state
    where = cfg.line_of("initial")
    if text.startswith("amps"):
        if not allow_amps:
            raise ConfigError(f"{where}: this command needs a bare initial state (n,g|e)")
        tokens = text.split()[1:]
        if not tokens:
            raise ConfigError(f"{where}: amps needs at least one amplitude")
        if len(tokens) > params.cutoff.dim:
            raise ConfigError(f"{where}: {len(tokens)} amplitudes exceed chain dimension "
                              f"{params.cutoff.dim}")
        try:
            amps = np.array([complex(t) for t in tokens], dtype=complex)
        except ValueError:
            raise ConfigError(f"{where}: amplitudes must be complex literals like 0.5 or 1j")
        vec = np.zeros(params.cutoff.dim, dtype=complex)
        vec[:amps.size] = amps
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            raise ConfigError(f"{where}: amplitudes are all zero")
        return vec / norm
    try:
        n_text, _, q_text = text.partition(",")
        state = BareState(int(n_text), q_text.strip())
    except (ValueError, TypeError):
        raise ConfigError(f"{where}: initial must be 'n,g', 'n,e', or 'amps c0 c1 ...'")
    if parity_of(state) != parity:
        raise ConfigError(f"{where}: |{state.n},{state.qubit}> is not in the "
                          f"{PARITY_NAME[parity]} parity sector")
    return state


@dataclasses.dataclass
class _Table:
    command: str
    config: dict
    columns: tuple
    rows: list
    footer: dict


def _sweep_grid(cfg: _Config, params: ModelParams, prefix: str, default_axis,
                axes, required: bool):
    """(axis, absolute grid) from <prefix>_axis/start/stop/points, or None."""
    axis = cfg.take(f"{prefix}_axis", _as_str, default_axis)
    if axis is None:
        for sub in ("start", "stop", "points"):
            if cfg.has(f"{prefix}_{sub}"):
                raise ConfigError(f"{cfg.line_of(f'{prefix}_{sub}')}: "
                                  f"{prefix}_{sub} needs {prefix}_axis")
        return None
    if axis not in axes:
        raise ConfigError(f"{cfg.line_of(f'{prefix}_axis')}: {prefix}_axis must be one of "
                          + ", ".join(axes))
    if required or cfg.has(f"{prefix}_start"):
        start = cfg.take(f"{prefix}_start", _as_float)
    else:
        return None
    stop = cfg.take(f"{prefix}_stop", _as_float, start)
    points = cfg.take(f"{prefix}_points", _as_int, 1 if stop == start else _Config._MISSING)
    if points < 1:
        raise ConfigError(f"{cfg.line_of(f'{prefix}_points')}: {prefix}_points must be >= 1")
    if points == 1:
        if stop != start:
            raise ConfigError(f"{cfg.line_of(f'{prefix}_points')}: single-point sweep "
                              "needs stop == start")
        grid = np.array([start])
    else:
        if stop <= start:
            raise ConfigError(f"{cfg.line_of(f'{prefix}_stop')}: sweep grid must be "
                              "strictly increasing")
        grid = np.linspace(start, stop, points)
    if axis in ("g1", "g2", "kappa") and start < 0:
        raise ConfigError(f"{cfg.line_of(f'{prefix}_start')}: {axis} cannot be negative")
    return axis, grid * params.omega


def _cmd_dynamics(args) -> _Table:
    cfg = _Config(args.config)
    cfg.reject_unknown(_KEYS["dynamics"])
    params, parity, _ = _resolve_model(cfg, "dynamics")
    solver = cfg.take("solver", _as_str, "master")
    if solver not in ("master", "effective"):
        raise ConfigError(f"{cfg.line_of('solver')}: solver must be master or effective")
    renorm = cfg.take("renormalize", _as_bool, True)
    t_max = cfg.take("t_max", _as_float, 60.0)
    samples = cfg.take("samples", _as_int, 601)
    if t_max < 0:
        raise ConfigError(f"{cfg.line_of('t_max')}: t_max must be non-negative")
    if t_max == 0.0:
        grid = np.array([0.0])
    elif samples < 2:
        raise ConfigError(f"{cfg.line_of('samples')}: need samples >= 2 when t_max > 0")
    else:
        grid = np.linspace(0.0, t_max, samples)
    initial = _parse_initial(cfg, params, parity)

    if solver == "master":
        if isinstance(initial, BareState):
            rho0 = DensityMatrix.from_bare(params.cutoff, initial, parity)
        else:
            rho0 = DensityMatrix.from_pure(initial, parity)
        traj, _ = evolve_master(rho0, params, grid)
    else:
        if isinstance(initial, BareState):
            psi0 = StateVector.from_bare(params.cutoff, initial, parity)
        else:
            psi0 = StateVector(parity, initial)
        traj = evolve_effective(psi0, params, grid, renormalize=renorm)

    rows = [(traj.times[i], traj.mean_photon[i], traj.qubit_excitation[i],
             traj.trace[i], traj.purity[i]) for i in range(traj.times.size)]
    return _Table("dynamics", cfg.resolved,
                  ("t_over_Tc", "mean_photon", "qubit_excitation", "trace", "purity"),
                  rows, {})


def _cmd_spectrum(args) -> _Table:
    cfg = _Config(args.config)
    cfg.reject_unknown(_KEYS["spectrum"])
    params, parity, lam = _resolve_model(cfg, "spectrum")
    axis, grid = _sweep_grid(cfg, params, "sweep", "g1", spectra.SWEEP_AXES, required=True)
    if lam is not None and axis != "g1":
        raise ConfigError(f"{cfg.line_of('lambda')}: lambda requires sweeping g1")
    report_crossings = cfg.take("report_crossings", _as_bool, False)
    gap_threshold = cfg.take("gap_threshold", _as_float, 0.5)
    ep_doublet = cfg.take("ep_doublet", _as_int, None)
    if ep_doublet is not None and axis != "g1":
        raise ConfigError(f"{cfg.line_of('ep_doublet')}: ep_doublet requires sweeping g1")

    sweep = spectra.sweep_spectrum(params, parity, axis, grid, lam=lam)

    omega = params.omega
    rows = []
    e_mat = sweep.eigenvalues
    for k, x in enumerate(grid):
        for b in range(e_mat.shape[0]):
            rows.append((x / omega, PARITY_NAME[parity], b,
                         e_mat[b, k].real / omega, e_mat[b, k].imag / omega))

    footer = {}
    if report_crossings:
        events = spectra.find_avoided_crossings(sweep, gap_threshold=gap_threshold * omega)
        for i, ev in enumerate(events):
            footer[f"crossing_{i}"] = (
                f"{ev.kind} {ev.axis}={ev.value / omega:.12g} levels={ev.levels[0]}-"
                f"{ev.levels[1]} gap={ev.gap / omega:.12g} degenerate={_fmt(ev.degenerate)}")
    if ep_doublet is not None:
        try:
            event = spectra.find_exceptional_point(params, ep_doublet, g1_grid=grid)
        except ValueError as exc:
            raise ConfigError(f"{cfg.line_of('ep_doublet')}: {exc}")
        if event is None:
            footer["exceptional_point"] = "none"
        else:
            footer["exceptional_point_g1_over_omega"] = f"{event.value / omega:.12g}"
            footer["exceptional_point_gap"] = f"{event.gap / omega:.12g}"
    return _Table("spectrum", cfg.resolved,
                  ("sweep_value", "parity", "branch", "re_E_over_omega", "im_E_over_omega"),
                  rows, footer)


def _cmd_steady(args) -> _Table:
    cfg = _Config(args.config)
    cfg.reject_unknown(_KEYS["steady"])
    params, parity, lam = _resolve_model(cfg, "steady")
    method = cfg.take("steady_method", _as_str, "long_time")
    if method not in ("long_time", "null_space"):
        raise ConfigError(f"{cfg.line_of('steady_method')}: steady_method must be "
                          "long_time or null_space")
    tols = {
        "obs_tol": cfg.take("obs_tol", _as_float, 1e-6),
        "residual_tol": cfg.take("residual_tol", _as_float, 1e-6),
        "window_tc": cfg.take("window_tc", _as_float, 20.0),
        "cap_tc": cfg.take("cap_tc", _as_float, 1000.0),
        "sample_dt_tc": cfg.take("sample_dt_tc", _as_float, 0.25),
    }
    for key in ("window_tc", "cap_tc", "sample_dt_tc"):
        if tols[key] <= 0:
            raise ConfigError(f"{cfg.line_of(key)}: {key} must be positive")
    for key in ("obs_tol", "residual_tol"):
        if tols[key] < 0:
            raise ConfigError(f"{cfg.line_of(key)}: {key} must be non-negative")
    if method == "null_space":
        tols = {"residual_tol": tols["residual_tol"]}
    initial = _parse_initial(cfg, params, parity, allow_amps=False)

    sweep1 = _sweep_grid(cfg, params, "sweep", None, _COUPLING_AXES, required=False)
    sweep2 = _sweep_grid(cfg, params, "sweep2", None, _COUPLING_AXES, required=False)
    if sweep2 is not None and sweep1 is None:
        raise ConfigError(f"{cfg.path}: sweep2_* needs a primary sweep_*")
    if sweep1 is not None and sweep2 is not None and sweep1[0] == sweep2[0]:
        raise ConfigError(f"{cfg.line_of('sweep2_axis')}: the two sweep axes must differ")
    if lam is not None and sweep1 is not None and sweep1[0] != "g1":
        raise ConfigError(f"{cfg.line_of('lambda')}: lambda requires sweeping g1")
    if lam is not None and sweep2 is not None:
        raise ConfigError(f"{cfg.line_of('lambda')}: lambda and a second axis conflict")

    points = []
    if sweep1 is None:
        points.append((params.g1, params.g2))
    else:
        axis1, grid1 = sweep1
        for x in grid1:
            if lam is not None:
                points.append((x, lam * x))
            elif sweep2 is not None:
                axis2, grid2 = sweep2
                for y in grid2:
                    points.append((x, y) if axis1 == "g1" else (y, x))
            else:
                points.append((x, params.g2) if axis1 == "g1" else (params.g1, x))

    omega = params.omega
    rows = [(g1 / omega, g2 / omega, PARITY_NAME[parity], rep.mean_photon,
             rep.qubit_excitation, rep.converged, rep.residual)
            for g1, g2, rep in steady_map(points, params, parity, method,
                                          initial=initial, **tols)]
    return _Table("steady", cfg.resolved,
                  ("g1", "g2", "parity", "mean_photon", "qubit_excitation",
                   "converged", "residual"),
                  rows, {})


def _render_csv(table: _Table) -> str:
    lines = [f"# rabi-relax {table.command}"]
    for key in sorted(table.config):
        lines.append(f"# {key} = {_fmt(table.config[key])}")
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(_fmt(v) for v in row))
    for key in sorted(table.footer):
        lines.append(f"# {key} = {table.footer[key]}")
    return "\n".join(lines) + "\n"


def _render_json(table: _Table) -> str:
    payload = {
        "command": table.command,
        "config": {k: _json_value(v) for k, v in sorted(table.config.items())},
        "rows": [{c: _json_value(v) for c, v in zip(table.columns, row)}
                 for row in table.rows],
    }
    if table.footer:
        payload["footer"] = dict(sorted(table.footer.items()))
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write(args, text: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_verify(args) -> int:
    cfg = _Config(args.config)
    cfg.reject_unknown(_KEYS["verify"])
    params, parity, _ = _resolve_model(cfg, "verify")
    initial = _parse_initial(cfg, params, parity, allow_amps=False)
    results = verify_mod.run_all(params, parity, initial)
    n_pass = sum(r.passed for r in results)
    if args.format == "json":
        payload = {
            "config": {k: _json_value(v) for k, v in sorted(cfg.resolved.items())},
            "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                       for r in results],
            "passed": n_pass == len(results),
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}"
                 for r in results]
        lines.append(f"{n_pass}/{len(results)} checks passed")
        text = "\n".join(lines) + "\n"
    _write(args, text)
    if args.out:
        sys.stdout.write(text)
    return 0 if n_pass == len(results) else 4


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rabi-relax",
        description="Anisotropic Rabi model with two-photon relaxation: dynamics, "
                    "spectra, steady states, verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "dynamics": "integrate one trajectory and tabulate observables",
        "spectrum": "sweep and track the sector spectrum of H_eff",
        "steady": "steady-state observables over coupling grids",
        "verify": "run the analytic-vs-numeric check suite",
    }
    for name, blurb in helps.items():
        sp = sub.add_parser(name, help=blurb)
        sp.add_argument("--config", required=True, help="key=value config file")
        sp.add_argument("--out", help="output path (default stdout)")
        # accepted and ignored: sweeps run in one process, and scripts written
        # for the former worker pool still pass --jobs
        sp.add_argument("--jobs", type=int, help=argparse.SUPPRESS)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
    args = parser.parse_args(argv)

    try:
        if args.command == "verify":
            return _cmd_verify(args)
        handler = {"dynamics": _cmd_dynamics, "spectrum": _cmd_spectrum,
                   "steady": _cmd_steady}[args.command]
        table = handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, spectra.DiagonalizationError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    _write(args, _render_csv(table) if args.format == "csv" else _render_json(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
