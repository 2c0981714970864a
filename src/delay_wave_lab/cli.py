"""Command-line front end.

Configuration is a flat ``key = value`` text file (one pair per line, ``#``
comments, unquoted strings); every key has a default, so an empty file runs
the reference setup: tau = 2, xi = 2*mu*tau, dx = drho = 1/20, dt = 0.1 and
the "paper" initial data.  CSV output uses ',' separators, '.' decimal
points, a header row, LF line endings and 17 significant digits, so repeated
runs at a fixed BLAS thread count are bit-identical.

Exit codes: 0 success, 1 runtime/numeric failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import typing
import warnings
from dataclasses import dataclass

from . import analysis, spectral, verification
from .core import (Grid, InitialData, Params, builtin_data,
                   internal_friction, kelvin_voigt, validate_params)
from .discretization import assemble_generator
from .spectral import Rectangle, SingularRegionError
from .timestepper import simulate, step_count


class ConfigError(ValueError):
    """Malformed or inconsistent configuration; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    a: float = 1.0
    mu: float = 1.0
    tau: float = 2.0
    xi: float | None = None        # default: 2*mu*tau, or mu*tau for Kelvin-Voigt
    law: str = "internal_friction"
    shifted: bool = True           # internal friction only; ignored for Kelvin-Voigt
    nx: int = 20
    nrho: int = 20
    dt: float = 0.1
    t_end: float = 50.0
    data: str = "paper"
    window_fraction: float = 0.5
    rate_threshold: float = 1e-4
    fit_threshold: float = 0.98
    betas: tuple = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
    re_min: float = -5.0
    re_max: float = 0.5
    im_min: float = -20.0
    im_max: float = 20.0
    robin_c: float = 0.0
    vary: str = "mu"
    values: tuple = (1.0, 2.0, 4.0)
    out: str = ""

    def params(self) -> Params:
        if self.law == "kelvin_voigt":
            p = kelvin_voigt(a=self.a, mu=self.mu, tau=self.tau)
            if self.xi is not None and self.xi != p.xi:
                raise ConfigError(
                    f"Kelvin-Voigt runs fix xi = mu*tau = {p.xi}; remove the "
                    f"xi key or set it to that value")
            return p
        if self.law != "internal_friction":
            raise ConfigError(f"unknown law {self.law!r}; choose "
                              f"internal_friction or kelvin_voigt")
        return internal_friction(a=self.a, mu=self.mu, tau=self.tau,
                                 xi=self.xi, shifted=self.shifted)

    def grid(self) -> Grid:
        return Grid(nx=self.nx, nrho=self.nrho)

    def region(self) -> Rectangle:
        return Rectangle(self.re_min, self.re_max, self.im_min, self.im_max)

    def initial_data(self) -> InitialData:
        return builtin_data(self.data)


# each key's type as RunConfig declares it; every other key is a float
_TYPES = typing.get_type_hints(RunConfig)


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw.strip()!r}")
    return value


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    kind = _TYPES[key]
    if kind is str:
        return raw
    if kind is bool:
        if raw.lower() in ("true", "false"):
            return raw.lower() == "true"
        raise ValueError(f"expected true or false, got {raw!r}")
    if kind is int:
        return int(raw)
    if kind is tuple:
        parts = tuple(_finite(part) for part in raw.split(",") if part.strip())
        if not parts:
            raise ValueError("expected at least one value")
        return parts
    return _finite(raw)


def parse_config(text: str) -> RunConfig:
    """Parse flat ``key = value`` text into a validated RunConfig."""
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = _parse_value(key, raw)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    cfg = RunConfig(**values)
    # surface hard model errors at parse time
    try:
        params = validate_params(cfg.params())
        cfg.grid()
        cfg.region()
        cfg.initial_data()
        step_count(cfg.dt, cfg.t_end)
        spectral.sorted_betas(cfg.betas)
        analysis.validate_fit_settings(cfg.window_fraction, cfg.rate_threshold,
                                       cfg.fit_threshold)
        analysis.validate_sweep(params, cfg.vary)
    except (ValueError, KeyError) as exc:
        # builtin_data raises KeyError, whose str() would quote the message
        raise ConfigError(exc.args[0] if isinstance(exc, KeyError) else str(exc)) from exc
    return cfg


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_csv(path: str, header: list[str], rows) -> None:
    text = "\n".join([",".join(header)] + [",".join(row) for row in rows]) + "\n"
    if path:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_simulate(cfg: RunConfig) -> int:
    trace = simulate(cfg.params(), cfg.grid(), cfg.initial_data(),
                     dt=cfg.dt, t_end=cfg.t_end)
    rows = ([_fmt(t), _fmt(e), _fmt(-math.log10(e)) if e > 0 else "inf"]
            for t, e in zip(trace.times, trace.energies))
    _write_csv(cfg.out, ["t", "E", "neg_log10_E"], rows)
    if trace.diverged:
        print(f"diverged: trace truncated at t = {trace.times[-1]}", file=sys.stderr)
    return 0


def _cmd_spectrum(cfg: RunConfig) -> int:
    gen = assemble_generator(cfg.params(), cfg.grid())
    rep = spectral.eigenvalues(gen)
    rows = ([_fmt(v.real), _fmt(v.imag)] for v in rep.eigenvalues)
    _write_csv(cfg.out, ["re", "im"], rows)
    print(f"spectral_abscissa = {_fmt(rep.spectral_abscissa)}")
    print(f"min_distance_to_imaginary_axis = "
          f"{_fmt(rep.min_distance_to_imaginary_axis)}")
    return 0


def _cmd_resolvent(cfg: RunConfig) -> int:
    gen = assemble_generator(cfg.params(), cfg.grid())
    scan = spectral.resolvent_scan(gen, cfg.betas)
    rows = ([_fmt(b), _fmt(n)] for b, n in zip(scan.betas, scan.norms))
    _write_csv(cfg.out, ["beta", "norm"], rows)
    print(f"fitted_loglog_slope = {_fmt(scan.fitted_loglog_slope)}")
    print(f"presaturation_cutoff = {_fmt(scan.presaturation_cutoff)}")
    return 0


def _cmd_charroots(cfg: RunConfig) -> int:
    try:
        roots = spectral.characteristic_roots(cfg.params(), cfg.region())
    except SingularRegionError as exc:
        # a config error for this command only: simulate ignores the region
        raise ConfigError(str(exc)) from exc
    rows = ([_fmt(r.lam.real), _fmt(r.lam.imag), _fmt(r.residual),
             str(r.multiplicity_hint)] for r in roots)
    _write_csv(cfg.out, ["re", "im", "residual", "multiplicity"], rows)
    return 0


def _cmd_robin(cfg: RunConfig, c_star: bool) -> int:
    if c_star:
        print(f"{spectral.find_c_star():.8f}")
    else:
        print(_fmt(spectral.robin_eigenvalue(cfg.robin_c)))
    return 0


def _cmd_sweep(cfg: RunConfig) -> int:
    table = analysis.sweep(cfg.params(), cfg.grid(), cfg.initial_data(),
                           cfg.dt, cfg.t_end, cfg.vary, cfg.values,
                           window_fraction=cfg.window_fraction,
                           rate_threshold=cfg.rate_threshold,
                           fit_threshold=cfg.fit_threshold)
    rows = []
    for row in table.rows:
        if row.fit is None:
            rows.append([table.vary, _fmt(row.value), "nan", "nan", "nan",
                         "Error", "nan", "nan", "false"])
            continue
        rows.append([table.vary, _fmt(row.value), _fmt(row.fit.rate),
                     _fmt(row.fit.amplitude), _fmt(row.fit.r_squared),
                     row.fit.classification.value, _fmt(row.trace.energies[0]),
                     _fmt(row.trace.energies[-1]),
                     "true" if row.trace.diverged else "false"])
    _write_csv(cfg.out, ["param", "value", "rate", "amplitude", "r_squared",
                         "classification", "E0", "E_end", "diverged"], rows)
    for row in table.rows:
        if row.error:
            print(f"{table.vary} = {row.value}: {row.error}", file=sys.stderr)
    return 0


def _cmd_verify() -> int:
    results = verification.run_all()
    for res in results:
        print(res.line())
    return 0 if all(r.passed for r in results) else 1


def _commands(c_star: bool) -> dict:
    """Each subcommand's handler, a function of the config alone."""
    return {"simulate": _cmd_simulate, "spectrum": _cmd_spectrum,
            "resolvent": _cmd_resolvent, "charroots": _cmd_charroots,
            "robin": lambda cfg: _cmd_robin(cfg, c_star),
            "sweep": _cmd_sweep, "verify": lambda cfg: _cmd_verify()}


COMMANDS = tuple(_commands(c_star=False))


def run(command: str, cfg: RunConfig, c_star: bool = False) -> int:
    """Dispatch one subcommand; returns the process exit code."""
    handler = _commands(c_star).get(command)
    if handler is None:
        raise ConfigError(f"unknown command {command!r}")
    return handler(cfg)


def _apply_overrides(text: str, extras: list[str]) -> str:
    """Turn trailing --key value pairs into config lines appended to ``text``."""
    if len(extras) % 2 != 0:
        raise ConfigError(f"overrides must come in --key value pairs, got {extras}")
    lines = [text]
    for flag, value in zip(extras[::2], extras[1::2]):
        if not flag.startswith("--"):
            raise ConfigError(f"expected an option like --mu, got {flag!r}")
        lines.append(f"{flag[2:].replace('-', '_')} = {value}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="delay-wave-lab", allow_abbrev=False,
        description="Simulation and spectral diagnostics for a 1D wave "
                    "equation with delayed dynamic boundary feedback.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--out", help="output CSV path (default: stdout)")
    parser.add_argument("--c-star", action="store_true",
                        help="robin: solve for the critical constant instead "
                             "of evaluating at robin_c")
    args, extras = parser.parse_known_args(argv)

    # advisory warnings (e.g. the Kelvin-Voigt stability condition) as plain
    # one-line notices instead of tracebacks, for this call only
    with warnings.catch_warnings():
        warnings.showwarning = (lambda message, *rest, **kw:
                                print(f"advisory: {message}", file=sys.stderr))
        try:
            text = ""
            if args.config:
                with open(args.config, encoding="utf-8") as fh:
                    text = fh.read()
            text = _apply_overrides(text, extras)
            cfg = parse_config(text)
            if args.out:
                cfg = dataclasses.replace(cfg, out=args.out)
        except (OSError, ValueError) as exc:  # also UnicodeDecodeError, a ValueError
            print(f"config error: {exc}", file=sys.stderr)
            return 2

        try:
            return run(args.command, cfg, c_star=args.c_star)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except Exception as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
