"""End-to-end runs of the command line front end, in process."""

import json

import numpy as np
import pytest

from rabi_relax import cli
from rabi_relax.verify import run_all

BASE = "delta = 0.8\ng1 = 0.1\ng2 = 0.05\nkappa = 0.02\nn_max = 8\n"


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def rows_of(out):
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    return lines[0].split(","), [l.split(",") for l in lines[1:]]


# ----------------------------------------------------------------- dynamics

def test_dynamics_time_zero_row(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE + "t_max = 0\n")
    rc, out, _ = run(capsys, "dynamics", "--config", cfg)
    assert rc == 0
    header, rows = rows_of(out)
    assert header == ["t_over_Tc", "mean_photon", "qubit_excitation", "trace", "purity"]
    assert rows == [["0", "2", "0", "1", "1"]]


def test_dynamics_master_and_effective_agree_without_loss(tmp_path, capsys):
    # with relaxation off the pure-state propagator is exact, so both solvers
    # must produce the same observable table
    common = "delta = 0.8\ng1 = 0.1\ng2 = 0.05\nkappa = 0\nn_max = 10\nt_max = 6\nsamples = 12\n"
    rc1, out1, _ = run(capsys, "dynamics", "--config",
                       write_cfg(tmp_path, common + "solver = master\n", "m.cfg"))
    rc2, out2, _ = run(capsys, "dynamics", "--config",
                       write_cfg(tmp_path, common + "solver = effective\n", "e.cfg"))
    assert rc1 == rc2 == 0
    _, rows1 = rows_of(out1)
    _, rows2 = rows_of(out2)
    for r1, r2 in zip(rows1, rows2):
        assert float(r1[1]) == pytest.approx(float(r2[1]), abs=1e-8)
        assert float(r1[2]) == pytest.approx(float(r2[2]), abs=1e-8)


def test_dynamics_runs_are_deterministic(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE + "t_max = 4\nsamples = 8\n")
    rc1, out1, _ = run(capsys, "dynamics", "--config", cfg)
    rc2, out2, _ = run(capsys, "dynamics", "--config", cfg)
    assert rc1 == rc2 == 0 and out1 == out2


def test_out_option_writes_the_file_instead_of_stdout(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE + "t_max = 0\n")
    target = tmp_path / "table.csv"
    rc, out, _ = run(capsys, "dynamics", "--config", cfg, "--out", str(target))
    assert rc == 0 and out == ""
    assert "t_over_Tc" in target.read_text()


# ----------------------------------------------------------------- spectrum

def test_spectrum_single_point_lists_every_branch(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE +
                    "sweep_axis = g1\nsweep_start = 0.1\nsweep_stop = 0.1\nsweep_points = 1\n")
    rc, out, _ = run(capsys, "spectrum", "--config", cfg)
    assert rc == 0
    header, rows = rows_of(out)
    assert header == ["sweep_value", "parity", "branch", "re_E_over_omega", "im_E_over_omega"]
    assert len(rows) == 9  # n_max + 1 branches
    assert [r[2] for r in rows] == [str(b) for b in range(9)]
    assert all(float(r[4]) <= 1e-12 for r in rows)


def test_spectrum_reports_the_exceptional_point(tmp_path, capsys):
    cfg = write_cfg(tmp_path,
                    "delta = 1\ng1 = 0.1\ng2 = 0\nkappa = 0.02\nn_max = 12\n"
                    "sweep_axis = g1\nsweep_start = 0.005\nsweep_stop = 0.025\n"
                    "sweep_points = 5\nep_doublet = 1\n")
    rc, out, _ = run(capsys, "spectrum", "--config", cfg)
    assert rc == 0
    footer = dict(l[2:].split(" = ") for l in out.splitlines()
                  if l.startswith("# exceptional"))
    located = float(footer["exceptional_point_g1_over_omega"])
    assert located == pytest.approx(0.02 / np.sqrt(2.0), abs=1e-6)


def test_spectrum_json_mirrors_the_table(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE +
                    "sweep_axis = g2\nsweep_start = 0\nsweep_stop = 0.1\nsweep_points = 3\n")
    rc_csv, out_csv, _ = run(capsys, "spectrum", "--config", cfg)
    rc_json, out_json, _ = run(capsys, "spectrum", "--config", cfg, "--format", "json")
    assert rc_csv == rc_json == 0
    doc = json.loads(out_json)
    assert doc["command"] == "spectrum"
    _, rows = rows_of(out_csv)
    assert len(doc["rows"]) == len(rows)
    first = doc["rows"][0]
    assert list(first) == sorted(first)
    assert first["re_E_over_omega"] == pytest.approx(float(rows[0][3]), abs=1e-12)
    assert doc["config"]["sweep_axis"] == "g2"


def test_spectrum_footer_separates_real_part_crossings_from_degeneracies(tmp_path, capsys):
    cfg = write_cfg(tmp_path,
                    "delta = 0.8\ng1 = 1.1\ng2 = 0\nkappa = 0.02\nn_max = 8\n"
                    "sweep_axis = g1\nsweep_start = 1.1\nsweep_stop = 1.6\n"
                    "sweep_points = 26\nreport_crossings = true\ngap_threshold = 0.2\n")
    rc, out, _ = run(capsys, "spectrum", "--config", cfg)
    assert rc == 0
    crossings = [l for l in out.splitlines() if l.startswith("# crossing_")]
    assert crossings
    # real parts cross, widths differ: labelled exceptional, yet not degenerate
    assert all(l.split(" = ")[1].startswith("exceptional ") for l in crossings)
    assert all(l.endswith(" degenerate=false") for l in crossings)


@pytest.mark.parametrize("command, extra", [
    ("spectrum", ""),
    ("steady", "steady_method = null_space\n"),
])
def test_swept_coupling_needs_no_base_value(tmp_path, capsys, command, extra):
    sweep = "sweep_axis = g1\nsweep_start = 0.2\nsweep_stop = 0.4\nsweep_points = 3\n"
    rest = "delta = 0.8\ng2 = 0.05\nkappa = 0.02\nn_max = 8\n" + extra + sweep
    rc_with, out_with, _ = run(capsys, command, "--config",
                               write_cfg(tmp_path, "g1 = 0.1\n" + rest, "with.cfg"))
    rc_without, out_without, _ = run(capsys, command, "--config",
                                     write_cfg(tmp_path, rest, "without.cfg"))
    assert rc_with == rc_without == 0
    assert rows_of(out_without) == rows_of(out_with)
    assert "# g1 = 0.1\n" in out_with
    assert "# g1 = 0.2\n" in out_without


# ------------------------------------------------------------------- steady

def test_steady_decoupled_corner_converges_to_vacuum(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "delta = 0.8\ng1 = 0\ng2 = 0\nkappa = 0.02\nn_max = 6\n")
    rc, out, _ = run(capsys, "steady", "--config", cfg)
    assert rc == 0
    header, rows = rows_of(out)
    assert header == ["g1", "g2", "parity", "mean_photon", "qubit_excitation",
                      "converged", "residual"]
    assert len(rows) == 1
    g1, g2, parity, photon, qubit, converged, residual = rows[0]
    assert (g1, g2, parity, converged) == ("0", "0", "even", "true")
    assert float(photon) < 1e-6 and float(qubit) == 0.0
    assert float(residual) < 1e-6


def test_steady_flags_nonconvergent_lossless_subspace(tmp_path, capsys):
    cfg = write_cfg(tmp_path,
                    "delta = 0.8\ng1 = 0.1\ng2 = 0\nkappa = 0.02\nn_max = 8\n"
                    "parity = odd\ncap_tc = 80\nwindow_tc = 10\n")
    rc, out, _ = run(capsys, "steady", "--config", cfg)
    assert rc == 0
    _, rows = rows_of(out)
    assert rows[0][5] == "false"


def test_steady_sweep_with_tied_ratio_ignores_jobs(tmp_path, capsys):
    cfg_text = ("delta = 0.8\ng1 = 0.1\nlambda = 0.5\nkappa = 0.02\nn_max = 7\n"
                "steady_method = null_space\n"
                "sweep_axis = g1\nsweep_start = 0.1\nsweep_stop = 0.3\nsweep_points = 3\n")
    cfg = write_cfg(tmp_path, cfg_text)
    rc1, out1, _ = run(capsys, "steady", "--config", cfg)
    # --jobs is still accepted, and changes nothing: every sweep runs in-process
    rc2, out2, _ = run(capsys, "steady", "--config", cfg, "--jobs", "1")
    assert rc1 == rc2 == 0
    assert out1 == out2
    _, rows = rows_of(out1)
    assert [r[0] for r in rows] == ["0.1", "0.2", "0.3"]
    # lambda ties the counter-rotating coupling to half of g1 at every point
    assert [r[1] for r in rows] == ["0.05", "0.1", "0.15"]
    # the config key is gone altogether
    rc, _, err = run(capsys, "steady", "--config", write_cfg(tmp_path, cfg_text + "jobs = 2\n"))
    assert rc == 2 and "unknown key 'jobs'" in err


# ------------------------------------------------------------ config errors

@pytest.mark.parametrize("text", [
    BASE + "t_max = 4\nt_max = 5\n",                    # duplicate key
    BASE + "orbit = 3\n",                                # unknown key
    "delta = 0.8\ng1 = 0.1\ng2 = 0.1\nlambda = 0.5\nkappa = 0.02\n",  # both couplings
    BASE + "parity = sideways\n",
    BASE + "initial = 3,g\n",                            # odd state, even run
    BASE + "this line has no equals sign\n",
    BASE + "t_max = -3\n",
])
def test_bad_configs_exit_with_code_two(tmp_path, capsys, text):
    cfg = write_cfg(tmp_path, text)
    rc, _, err = run(capsys, "dynamics", "--config", cfg)
    assert rc == 2
    assert "config error" in err


def test_missing_config_file_exits_with_code_two(capsys):
    rc, _, err = run(capsys, "dynamics", "--config", "/no/such/file.cfg")
    assert rc == 2 and "config error" in err


def test_sweep_needs_increasing_bounds(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE +
                    "sweep_axis = g1\nsweep_start = 0.3\nsweep_stop = 0.1\nsweep_points = 3\n")
    rc, _, err = run(capsys, "spectrum", "--config", cfg)
    assert rc == 2 and "sweep" in err


def test_unsupported_initial_support_exits_with_code_three(tmp_path, capsys):
    cfg = write_cfg(tmp_path,
                    "delta = 0.8\ng1 = 0.1\ng2 = 0.05\nkappa = 0.02\nn_max = 5\n"
                    "initial = 4,g\nt_max = 2\n")
    rc, _, err = run(capsys, "dynamics", "--config", cfg)
    assert rc == 3 and "solver error" in err


def test_population_reaching_the_cutoff_exits_with_code_three(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "n_max = 4\ng1 = 2\ng2 = 2\nt_max = 60\n")
    rc, out, err = run(capsys, "dynamics", "--config", cfg)
    assert rc == 3 and out == ""
    assert "solver error" in err and "n_max=4" in err


# ------------------------------------------------------------------- verify

def test_verify_checks_pass_at_the_default_cutoff():
    results = run_all()
    assert [r.passed for r in results] == [True] * 8


def test_verify_command_reports_failures_with_exit_code_four(tmp_path, capsys):
    # a deliberately starved cutoff trips the truncation sentinel
    cfg = write_cfg(tmp_path, "n_max = 4\n")
    rc, out, _ = run(capsys, "verify", "--config", cfg, "--format", "json")
    assert rc == 4
    doc = json.loads(out)
    outcomes = {c["name"]: c["passed"] for c in doc["checks"]}
    assert outcomes["truncation"] is False
    assert any(outcomes.values())
