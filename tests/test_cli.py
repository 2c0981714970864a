import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from delay_wave_lab.cli import (ConfigError, RunConfig, main, parse_config,
                                serialize_config)


def test_empty_config_gives_reference_defaults():
    cfg = parse_config("")
    assert cfg == RunConfig()
    assert (cfg.tau, cfg.nx, cfg.nrho, cfg.dt, cfg.data) == (2.0, 20, 20, 0.1, "paper")
    assert cfg.resolved_xi() == 2.0 * cfg.mu * cfg.tau
    p = cfg.params()
    assert p.xi == 4.0 and p.shift == 1.5


@pytest.mark.filterwarnings("ignore:Kelvin-Voigt stability condition")
def test_overrides_apply_and_rest_defaults():
    cfg = parse_config("mu = 1.5\nlaw = kelvin_voigt\n")
    assert cfg.mu == 1.5 and cfg.law == "kelvin_voigt"
    assert cfg.tau == 2.0
    assert cfg.resolved_xi() == 1.5 * 2.0  # Kelvin-Voigt pins xi = mu*tau
    assert cfg.params().shift == 0.0


def test_comments_and_blank_lines():
    cfg = parse_config("# full line comment\n\nmu = 2.5  # trailing\n")
    assert cfg.mu == 2.5


def test_negative_tau_is_a_config_error():
    with pytest.raises(ConfigError, match="tau"):
        parse_config("tau = -1\n")


def test_unknown_key_names_line_and_key():
    with pytest.raises(ConfigError, match=r"line 2.*'cfl'"):
        parse_config("mu = 1.0\ncfl = 0.5\n")


def test_malformed_value_names_line_and_key():
    with pytest.raises(ConfigError, match=r"line 1.*'nx'"):
        parse_config("nx = twenty\n")


def test_scientific_notation_reals():
    cfg = parse_config("rate_threshold = 2.5e-5\n")
    assert cfg.rate_threshold == 2.5e-5


config_strategy = st.builds(
    RunConfig,
    a=st.floats(0.0, 4.0), mu=st.floats(0.1, 4.0), tau=st.floats(0.5, 4.0),
    xi=st.none(),
    law=st.sampled_from(["internal_friction", "kelvin_voigt"]),
    shifted=st.booleans(),
    nx=st.integers(2, 50), nrho=st.integers(1, 50),
    dt=st.floats(0.01, 1.0), t_end=st.floats(1.0, 100.0),
    data=st.sampled_from(["paper", "zero", "ramp"]),
    betas=st.tuples(st.floats(0.5, 100.0), st.floats(0.5, 100.0)),
    values=st.tuples(st.floats(0.1, 8.0)),
    out=st.sampled_from(["", "trace.csv"]),
)


@pytest.mark.filterwarnings("ignore:Kelvin-Voigt stability condition")
@given(cfg=config_strategy)
def test_config_round_trips_losslessly(cfg):
    assert parse_config(serialize_config(cfg)) == cfg


def test_round_trip_with_explicit_xi():
    cfg = parse_config("xi = 5.25\n")
    assert parse_config(serialize_config(cfg)) == cfg


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_robin_c_star_prints_minus_one(capsys):
    code, out, _ = _run(capsys, ["robin", "--c-star"])
    assert code == 0
    assert out.strip() == "-1.00000000"


def test_robin_evaluates_curve(capsys):
    code, out, _ = _run(capsys, ["robin", "--robin_c", "0.0"])
    assert code == 0
    assert float(out.strip()) == pytest.approx(math.pi ** 2 / 4.0, abs=1e-8)


def test_simulate_writes_monotone_neg_log_csv(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code, _, _ = _run(capsys, ["simulate", "--out", str(out), "--t_end", "50"])
    assert code == 0
    text = out.read_text()
    assert "\r" not in text
    lines = text.strip().split("\n")
    assert lines[0] == "t,E,neg_log10_E"
    assert len(lines) == 502
    neg_log = [float(line.split(",")[2]) for line in lines[1:]]
    tail = neg_log[len(neg_log) // 2:]
    assert all(b >= a for a, b in zip(tail, tail[1:]))


def test_simulate_csv_is_bit_identical(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    _run(capsys, ["simulate", "--out", str(out1), "--t_end", "10"])
    _run(capsys, ["simulate", "--out", str(out2), "--t_end", "10"])
    assert out1.read_bytes() == out2.read_bytes()


def test_spectrum_command(tmp_path, capsys):
    out = tmp_path / "spectrum.csv"
    code, stdout, _ = _run(capsys, ["spectrum", "--out", str(out)])
    assert code == 0
    assert "spectral_abscissa = " in stdout
    abscissa = float(stdout.split("spectral_abscissa = ")[1].splitlines()[0])
    assert abscissa < 0.0
    rows = out.read_text().strip().split("\n")
    assert rows[0] == "re,im"
    assert len(rows) == 61  # 2*20 + 20 eigenvalues


def test_resolvent_command(tmp_path, capsys):
    out = tmp_path / "res.csv"
    code, stdout, _ = _run(capsys, ["resolvent", "--out", str(out),
                                    "--betas", "1, 2, 4"])
    assert code == 0
    assert "fitted_loglog_slope = " in stdout
    rows = out.read_text().strip().split("\n")
    assert rows[0] == "beta,norm"
    assert len(rows) == 4
    assert all(float(r.split(",")[1]) > 0.0 for r in rows[1:])


def test_charroots_command(tmp_path, capsys):
    out = tmp_path / "roots.csv"
    code, _, _ = _run(capsys, ["charroots", "--out", str(out),
                               "--im_min", "0.05", "--im_max", "4.0",
                               "--re_min", "-3.0", "--re_max", "0.4"])
    assert code == 0
    rows = out.read_text().strip().split("\n")
    assert rows[0] == "re,im,residual,multiplicity"
    assert len(rows) >= 2
    assert all(float(r.split(",")[0]) < 0.0 for r in rows[1:])


def test_sweep_command(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = _run(capsys, ["sweep", "--out", str(out), "--vary", "mu",
                               "--values", "1, 2", "--t_end", "50"])
    assert code == 0
    rows = out.read_text().strip().split("\n")
    assert rows[0] == "param,value,rate,amplitude,r_squared,classification,E0,E_end,diverged"
    assert len(rows) == 3
    assert all(row.split(",")[5] == "ExponentialDecay" for row in rows[1:])


def test_config_file_plus_override(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("mu = 2.0\nt_end = 5\n")
    out = tmp_path / "trace.csv"
    code, _, _ = _run(capsys, ["simulate", "--config", str(cfg_path),
                               "--out", str(out), "--t_end", "1"])
    assert code == 0
    assert len(out.read_text().strip().split("\n")) == 12  # override wins


def test_bad_config_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("tau = -3\n")
    code, _, err = _run(capsys, ["simulate", "--config", str(cfg_path)])
    assert code == 2
    assert "config error" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["mu", "tau", "a", "xi", "dt", "t_end",
                                 "betas", "values"])
def test_non_finite_value_exits_2(capsys, key, value):
    raw = f"1, {value}" if key in ("betas", "values") else value
    code, _, err = _run(capsys, ["simulate", f"--{key}", raw])
    assert code == 2
    assert "config error" in err and key in err


def test_unknown_override_exits_2(capsys):
    code, _, err = _run(capsys, ["simulate", "--cfl", "0.5"])
    assert code == 2
    assert "cfl" in err


def test_missing_config_file_exits_2(capsys):
    code, _, err = _run(capsys, ["simulate", "--config", "/nonexistent.cfg"])
    assert code == 2


def test_runtime_failure_exits_1(tmp_path, capsys):
    code, _, err = _run(capsys, ["simulate", "--out",
                                 str(tmp_path / "no_dir" / "x.csv")])
    assert code == 1
    assert "error" in err


def test_verify_passes_on_fresh_checkout(capsys):
    code, out, _ = _run(capsys, ["verify"])
    assert code == 0
    lines = [l for l in out.strip().split("\n") if l]
    assert len(lines) == 11
    assert all(l.startswith("PASS") for l in lines)
