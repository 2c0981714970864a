import argparse
import contextlib
import dataclasses
import io
import math
import typing
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings, strategies as st

from delay_wave_lab import (Grid, Params, assemble_generator, cli, discretization,
                            spectral,
                            verification)
from delay_wave_lab.cli import ConfigError, RunConfig, main, parse_config


def test_empty_config_gives_reference_defaults():
    cfg = parse_config("")
    assert cfg == RunConfig()
    assert (cfg.tau, cfg.nx, cfg.nrho, cfg.dt, cfg.data) == (2.0, 20, 20, 0.1, "paper")
    assert cfg.params().xi == 2.0 * cfg.mu * cfg.tau
    p = cfg.params()
    assert p.xi == 4.0 and p.shift == 1.5


@pytest.mark.filterwarnings("ignore:Kelvin-Voigt stability condition")
def test_overrides_apply_and_rest_defaults():
    cfg = parse_config("mu = 1.5\nlaw = kelvin_voigt\n")
    assert cfg.mu == 1.5 and cfg.law == "kelvin_voigt"
    assert cfg.tau == 2.0
    assert cfg.params().xi == 1.5 * 2.0  # Kelvin-Voigt pins xi = mu*tau
    assert cfg.params().shift == 0.0


def test_comments_and_blank_lines():
    cfg = parse_config("# full line comment\n\nmu = 2.5  # trailing\n")
    assert cfg.mu == 2.5


def test_negative_tau_is_a_config_error():
    with pytest.raises(ConfigError, match="tau"):
        parse_config("tau = -1\n")


@pytest.mark.parametrize("text", ["dt = 1e-300", "dt = 1e-320",
                                  "t_end = 1e300\ndt = 1"])
def test_uncapped_step_count_is_a_config_error(text):
    with pytest.raises(ConfigError, match="cap"):
        parse_config(text)


def test_step_count_at_the_cap_parses():
    cfg = parse_config("t_end = 1000000\ndt = 1")
    assert (cfg.t_end, cfg.dt) == (1e6, 1.0)


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


def _serialize_config(cfg: RunConfig) -> str:
    """A config file that parses back to ``cfg``: every field written out,
    floats to 17 significant digits, xi left out when it is unset."""
    lines = []
    for name, kind in typing.get_type_hints(RunConfig).items():
        value = getattr(cfg, name)
        if name == "xi" and value is None:
            continue
        if kind is tuple:
            value = ", ".join(format(float(v), ".17g") for v in value)
        elif kind is bool:
            value = "true" if value else "false"
        elif kind not in (str, int):  # float, or xi's float | None
            value = format(float(value), ".17g")
        lines.append(f"{name} = {value}")
    return "\n".join(lines) + "\n"


@pytest.mark.filterwarnings("ignore:Kelvin-Voigt stability condition")
@given(cfg=config_strategy)
def test_config_round_trips_losslessly(cfg):
    assert parse_config(_serialize_config(cfg)) == cfg


def test_round_trip_with_explicit_xi():
    cfg = parse_config("xi = 5.25\n")
    assert parse_config(_serialize_config(cfg)) == cfg


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


def test_resolvent_near_spectrum_exits_1(capsys, monkeypatch):
    # mu = 0 is rejected at parse time; lifting that check reaches the
    # undamped generator, whose eigenvalues sit on the imaginary axis
    monkeypatch.setattr(cli, "validate_params", lambda p: p)
    gen = assemble_generator(Params(a=0.0, mu=0.0, tau=2.0, xi=1.0),
                             Grid(nx=61, nrho=61))
    assert gen.dim >= discretization.SPARSE_MIN_DIM
    vals = spectral.eigenvalues(gen).eigenvalues
    beta = np.abs(vals[np.abs(vals.real) < 1e-10].imag).min()
    code, stdout, err = _run(capsys, ["resolvent", "--a", "0", "--mu", "0",
                                      "--xi", "1", "--shifted", "false",
                                      "--nx", "61", "--nrho", "61",
                                      "--betas", repr(float(beta))])
    assert code == 1
    assert "BetaNearSpectrumError" in err and "too close to spectrum" in err
    assert stdout == ""


def test_resolvent_lanczos_failure_exits_1(capsys, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("No convergence", [], [])

    monkeypatch.setattr(spla, "eigsh", no_convergence)
    code, stdout, err = _run(capsys, ["resolvent", "--nx", "61", "--nrho", "61",
                                      "--betas", "1, 2"])
    assert code == 1
    assert "EigensolverError" in err and "beta=1.0" in err
    assert stdout == ""


def test_main_restores_the_warning_hooks(capsys):
    before = warnings.formatwarning, warnings.showwarning
    assert main(["robin"]) == 0
    assert (warnings.formatwarning, warnings.showwarning) == before


# the advisory is a UserWarning that cli.main prints; it is what is tested here
@pytest.mark.filterwarnings("default:Kelvin-Voigt stability condition:UserWarning")
def test_kelvin_voigt_violation_prints_one_advisory_line(capsys):
    code, out, err = _run(capsys, ["simulate", "--law", "kelvin_voigt",
                                   "--mu", "2", "--t_end", "1"])
    assert code == 0 and out.startswith("t,")
    assert err == ("advisory: Kelvin-Voigt stability condition mu < |c*|*a "
                   "violated (mu=2.0, a=1.0, |c*|=1); decay is not guaranteed\n")


def test_robin_below_float_range_exits_1(capsys):
    code, stdout, err = _run(capsys, ["robin", "--robin_c", "-1e300"])
    assert code == 1
    assert "RobinOverflowError" in err
    assert stdout == ""


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


def test_kelvin_voigt_sweep_over_xi_exits_2(capsys):
    code, out, err = _run(capsys, ["sweep", "--law", "kelvin_voigt", "--mu", "0.5",
                                   "--vary", "xi", "--values", "1,2,3"])
    assert code == 2 and not out
    assert "config error" in err and "Kelvin-Voigt" in err and "'xi'" in err


def test_sweep_over_zero_tau_reports_tau(capsys):
    code, out, err = _run(capsys, ["sweep", "--vary", "tau", "--values", "0,2",
                                   "--t_end", "2"])
    assert code == 0
    rows = out.strip().split("\n")
    assert rows[1].startswith("tau,0,nan,") and ",Error," in rows[1]
    assert rows[2].startswith("tau,2,") and ",Error," not in rows[2]
    assert "tau = 0.0: ParamsError: tau must be positive" in err
    assert "ZeroDivisionError" not in err


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


@pytest.mark.parametrize("argv, message", [
    (["--law", "kelvin_voigt", "--xi", "5"],
     "Kelvin-Voigt runs fix xi = mu*tau = 2.0; remove the xi key or set it to "
     "that value"),
    (["--law", "foo"], "unknown law 'foo'; choose internal_friction or kelvin_voigt"),
    (["--shifted", "maybe"],
     "bad value for 'shifted': expected true or false, got 'maybe'"),
    (["--mu"], "overrides must come in --key value pairs, got ['--mu']"),
    (["mu", "2"], "expected an option like --mu, got 'mu'"),
])
def test_config_errors_exit_2_with_their_message(capsys, argv, message):
    code, out, err = _run(capsys, ["simulate", *argv])
    assert code == 2 and not out
    assert err.startswith("config error: ") and err.endswith(f"{message}\n")
    assert err.count("\n") == 1


def test_a_config_line_without_equals_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("mu = 2\nmu 2\n")
    code, out, err = _run(capsys, ["simulate", "--config", str(cfg_path)])
    assert code == 2 and not out
    assert err == "config error: line 2: expected 'key = value', got 'mu 2'\n"


def test_an_unknown_command_is_a_config_error(capsys, monkeypatch):
    with pytest.raises(ConfigError, match="unknown command 'nope'"):
        cli.run("nope", parse_config(""))
    # a command the parser accepts but run does not know exits 2 as well
    monkeypatch.setattr(cli, "COMMANDS", (*cli.COMMANDS, "nope"))
    code, out, err = _run(capsys, ["nope"])
    assert code == 2 and not out
    assert err == "config error: unknown command 'nope'\n"


def test_the_parser_is_built_once_per_process(capsys, monkeypatch):
    parsers = []
    parse = argparse.ArgumentParser.parse_known_args

    def recording(self, *args, **kwargs):
        parsers.append(self)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", recording)
    results = [_run(capsys, ["robin"]) for _ in range(3)]
    usage = [_run_exit(capsys, ["nope"]) for _ in range(2)]
    assert len(parsers) == 5 and all(parser is parsers[0] for parser in parsers)
    assert results == [(0, "2.4674011002725473\n", "")] * 3
    assert usage[0] == usage[1] and usage[0][0] == 2
    assert "invalid choice: 'nope'" in usage[0][2]


def _run_exit(capsys, argv):
    """An argv the parser itself rejects: its exit code and output."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def test_a_diverged_simulate_says_where_and_exits_0(capsys):
    code, out, err = _run(capsys, ["simulate", "--shifted", "false", "--a", "0",
                                   "--mu", "8", "--t_end", "2000"])
    assert code == 0
    last = out.strip().split("\n")[-1].split(",")
    assert err == f"diverged: trace truncated at t = {float(last[0])}\n"
    assert float(last[1]) > 1e150


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["mu", "tau", "a", "xi", "dt", "t_end",
                                 "betas", "values"])
def test_non_finite_value_exits_2(capsys, key, value):
    raw = f"1, {value}" if key in ("betas", "values") else value
    code, _, err = _run(capsys, ["simulate", f"--{key}", raw])
    assert code == 2
    assert "config error" in err and key in err


@pytest.mark.parametrize("argv, message", [
    (["--tau", "1e-310", "--xi", "1"], "shift must be finite"),
    (["--tau", "0"], "tau must be positive")])
def test_shift_errors_exit_2(capsys, argv, message):
    code, out, err = _run(capsys, ["simulate"] + argv)
    assert code == 2 and not out
    assert f"config error: {message}" in err


RUNTIME_CONFIG_ERRORS = [
    ["charroots", "--re_min", "1", "--re_max", "0"],
    ["sweep", "--vary", "b"],
    ["resolvent", "--betas", "-1"],
    ["charroots", "--law", "kelvin_voigt", "--mu", "0.5"],
    ["sweep", "--shifted", "false", "--vary", "mu", "--values", "8",
     "--rate_threshold", "-1"],
    ["sweep", "--fit_threshold", "1"],
    ["sweep", "--fit_threshold", "-0.5"],
    ["sweep", "--window_fraction", "1"],
    ["simulate", "--snapshot_stride", "3"],
]


@pytest.mark.parametrize("argv", RUNTIME_CONFIG_ERRORS, ids=" ".join)
def test_config_errors_found_at_run_time_exit_2(capsys, argv):
    code, _, err = _run(capsys, argv)
    assert code == 2
    assert "config error" in err


EMPTY_RUN_CONFIG_ERRORS = [
    ["resolvent", "--betas", ","],
    ["sweep", "--values", ","],
    ["simulate", "--dt", "0.5", "--t_end", "0.2"],
    ["sweep", "--dt", "0.5", "--t_end", "0.2"],
]


@pytest.mark.parametrize("argv", EMPTY_RUN_CONFIG_ERRORS, ids=" ".join)
def test_empty_value_lists_and_zero_step_runs_exit_2(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert "config error" in err and not out


@pytest.mark.parametrize("betas", ["2", "2, 2"])
def test_one_beta_resolvent_has_no_slope(capsys, betas):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, ["resolvent", "--betas", betas])
    assert code == 0
    assert "fitted_loglog_slope = nan" in out
    assert "advisory" not in err and not caught


def test_unknown_override_exits_2(capsys):
    code, _, err = _run(capsys, ["simulate", "--cfl", "0.5"])
    assert code == 2
    assert "cfl" in err


def test_missing_config_file_exits_2(capsys):
    code, _, err = _run(capsys, ["simulate", "--config", "/nonexistent.cfg"])
    assert code == 2


def test_config_file_not_in_utf8_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_bytes(b"mu = 1\n# caf\xe9\n")
    code, out, err = _run(capsys, ["simulate", "--config", str(cfg_path)])
    assert code == 2 and not out
    assert err.startswith("config error: ") and "Traceback" not in err


def test_unknown_data_set_message_is_unquoted():
    with pytest.raises(ConfigError) as info:
        parse_config("data = nope\n")
    assert str(info.value) == ("unknown data set 'nope'; available: "
                               "['paper', 'ramp', 'zero']")


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


def test_verify_reports_failing_checks_and_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(verification, "symmetrized_max_eigenvalue", lambda gen: 1.0)
    # a constant curve never changes sign, so find_c_star is patched as well
    monkeypatch.setattr(spectral, "robin_eigenvalue", lambda c: 5.0)
    monkeypatch.setattr(spectral, "find_c_star", lambda: 0.0)
    code, out, _ = _run(capsys, ["verify"])
    assert code == 1
    lines = out.strip().split("\n")
    assert len(lines) == 11
    assert lines[1] == (
        "FAIL  discrete dissipativity: max sym eigenvalue: shifted 1.000e+00, "
        "Kelvin-Voigt (mu<=a) 1.000e+00 (tolerance 1e-10)")
    assert lines[3] == (
        "FAIL  Robin eigenvalue oracle: C(0) = 5.0 vs pi^2/4; C(-1) = 5.0 vs 0; "
        "c_star = 0.0 vs -1; curve not strictly increasing: "
        "[5.0, 5.0, 5.0, 5.0, 5.0, 5.0]")
    assert all(l.startswith("PASS  ") for i, l in enumerate(lines) if i not in (1, 3))


# Override values for the exit-code property: each key draws from values it
# accepts or from numbers, zero, negatives, non-finite values and garbage.
# Grid sizes stay small and dt, t_end are drawn so that no accepted run
# marches more than 100 steps.
_ANY = ["1", "2", "0.5", "3.7", "0", "-1", "-2.5", "nan", "inf", "-inf",
        "abc", "", "1, 2", "true"]
_VALID = {field.name: ["0.5", "1", "2", "3.7"]
          for field in dataclasses.fields(RunConfig) if field.name != "out"}
_VALID.update(nx=["2", "5", "12"], nrho=["1", "4", "12"], dt=["0.05", "0.5"],
              t_end=["0.5", "5"], law=["internal_friction", "kelvin_voigt"],
              shifted=["true", "false"], data=["paper", "zero", "ramp"],
              vary=["a", "mu", "tau", "xi"], fit_threshold=["0", "0.5", "0.98"],
              window_fraction=["0.5"], betas=["1, 2, 4", "2", "0.5, 64"],
              values=["1, 2", "0.5"])
_INVALID = {key: _ANY for key in _VALID}
_INVALID.update(nx=["0", "-3", "1.5", "abc"], nrho=["0", "-3", "1.5", "abc"],
                dt=["1e-300", "1e-320", "0", "-1", "nan", "inf"],
                t_end=["1e300", "0", "inf"], vary=["b", "dt", ""])
_INPUT_ERRORS = ("ValueError", "OverflowError", "TypeError", "KeyError")


@st.composite
def _overrides(draw):
    """Accepted values for the small-run keys and up to three more, then up
    to two of them swapped for a value from _INVALID."""
    extra = st.lists(st.sampled_from(sorted(_VALID)), max_size=3, unique=True)
    keys = ["nx", "nrho", "dt", "t_end"] + draw(extra)
    pairs = [(key, draw(st.sampled_from(_VALID[key]))) for key in keys]
    for i in draw(st.lists(st.integers(0, len(pairs) - 1), max_size=2)):
        key = pairs[i][0]
        pairs[i] = (key, draw(st.sampled_from(_INVALID[key])))
    return pairs


@pytest.mark.filterwarnings("ignore:Kelvin-Voigt stability condition")
@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(["simulate", "sweep", "spectrum", "resolvent",
                                "charroots"]),
       overrides=_overrides())
@example(command="charroots", overrides=[("re_min", "1"), ("re_max", "0")])
@example(command="sweep", overrides=[("vary", "b")])
@example(command="resolvent", overrides=[("betas", "-1")])
@example(command="charroots", overrides=[("law", "kelvin_voigt"), ("mu", "0.5")])
@example(command="simulate", overrides=[("dt", "1e-320")])
def test_exit_code_contract(command, overrides):
    try:
        cfg = parse_config("\n".join(f"{k} = {v}" for k, v in overrides))
    except ConfigError:
        cfg = None
    if cfg is not None and command in ("simulate", "sweep"):
        # bounds the run before it starts, so an uncapped count fails here
        assert cfg.t_end / cfg.dt <= 100
    argv = [command] + [arg for k, v in overrides for arg in (f"--{k}", v)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    if cfg is None:
        assert code == 2 and "config error" in err
    elif code == 2:
        # the one rule that depends on the command: the Kelvin-Voigt pole
        assert command == "charroots" and cfg.law == "kelvin_voigt", err
        assert "-1/a" in err
    else:
        assert code in (0, 1), err
        assert not any(name in err for name in _INPUT_ERRORS), err
