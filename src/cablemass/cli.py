"""Experiment harness: presets, config files, CSV artifacts, CLI.

Every study scenario is addressable as a named preset (the
damping/stiffness parameter set plus its input, order and horizon).  A
run writes flat CSV artifacts:

    eigs.csv     re,im of every eigenvalue of A
    hsv.csv      Hankel singular values up to the numerical rank, and
                 the cumulative error bound
    outputs.csv  FOM and ROM outputs on the comparison grid
    error.csv    relative L2/Linf error per channel and combined
    energy.csv   unforced energy history (energy studies only)

Every subcommand runs one pipeline: build, spectrum, Gramians + balance
+ reduce, FOM + ROM, error, energy.  ``SUBCOMMANDS`` names the artifacts
each writes, and it runs only the stages those need (so ``balance``
checks r as ``compare`` does).  Floats are written with 17 significant
digits so runs with identical configs produce byte-identical files.

``load_config`` merges a preset, an INI file, CABLEMASS_* variables and
flags through one table of [experiment] keys, ``_EXPERIMENT``; the
[params] and [input] keys are the PhysicalParams and InputSpec fields.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import analysis, balance, rom, signals
from .model import (InvalidParams, PhysicalParams, build_system,
                    quadratic_forms, sample_initial_data)
from .signals import InputSpec, InvalidInput

ENV_PREFIX = "CABLEMASS_"
#: Flags that may also be supplied as CABLEMASS_<NAME> environment variables.
ENV_KEYS = ("config", "preset", "r", "out", "n", "tf")

# Fixed simulation parameters shared by every experiment:
# l = 1, m0 = 1, ml = 1.5, k3 = 1, beta = 1.
_FIXED = dict(l=1.0, m0=1.0, ml=1.5, k3=1.0, beta=1.0)


class ParseError(ValueError):
    """Config file could not be parsed; carries the offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None
                         else f"line {line}: {message}")


class ValidationError(ValueError):
    """A config value violates its contract; carries the field name."""

    def __init__(self, field: str, message: str = ""):
        self.field = field
        super().__init__(message or f"invalid value for {field!r}")


@dataclass(frozen=True)
class Preset:
    name: str
    params: PhysicalParams
    input_name: str
    r: int = 4
    tf: float = 100.0
    energy_study: bool = False


def _preset(name, input_name, r=4, tf=100.0, energy_study=False, **damping):
    return Preset(name=name, params=PhysicalParams(**_FIXED, **damping),
                  input_name=input_name, r=r, tf=tf, energy_study=energy_study)


#: Catalog of the study scenarios (damping parameter set x input).
PRESETS = {
    p.name: p for p in (
        # Kelvin-Voigt + right-boundary damping, unit springs: the
        # stability/energy-decay study.
        _preset("exp_stab_Ex1", "zero", tf=50.0, energy_study=True,
                gamma=0.1, alphal=0.1, k0=1.0, kl=1.0),
        # hyperbolic case: viscous damping only, everything small
        _preset("exp_stability2", "zero", tf=100.0, energy_study=True,
                gamma=0.0, alpha=0.01, alpha0=0.01, alphal=0.01,
                k0=0.01, kl=0.01),
        # small damping scenarios
        _preset("small_damp_ex1_in2", "input2",
                gamma=0.001, alphal=0.1, k0=0.1, kl=0.1),
        _preset("small_damp_ex5_in4", "input4", r=8,
                gamma=0.001, k0=0.1, kl=0.1),
        # small stiffness scenarios
        _preset("small_stiff_ex2_in1", "input1",
                gamma=0.0, alpha=0.1, alpha0=0.1, alphal=0.1,
                k0=0.001, kl=0.001),
        _preset("small_stiff_ex1_in4", "input4",
                gamma=0.1, alphal=0.1, k0=0.001, kl=0.001),
        _preset("small_stiff_ex5_in4", "input4", tf=300.0,
                gamma=0.1, k0=0.001, kl=0.001),
        # small damping and stiffness
        _preset("small_all_ex3_in2", "input2",
                gamma=0.001, alpha=0.001, k0=0.001, kl=0.001),
        _preset("small_all_ex3_in4", "input4",
                gamma=0.001, alpha=0.001, k0=0.001, kl=0.001),
    )
}

PRESET_ALIASES = {
    "example1_input2_smalldamp": "small_damp_ex1_in2",
}

#: A config without a preset starts from the stability-study parameters
#: (DEFAULT_PARAMS) and input1.
DEFAULT_PARAMS = PRESETS["exp_stab_Ex1"].params
_NO_PRESET = Preset(name="", params=DEFAULT_PARAMS, input_name="input1")


def get_preset(name: str) -> Preset:
    key = PRESET_ALIASES.get(name, name)
    try:
        return PRESETS[key]
    except KeyError:
        raise ValidationError("preset", f"unknown preset {name!r}") from None


@dataclass
class ExperimentConfig:
    """Fully resolved experiment description."""

    params: PhysicalParams
    input: InputSpec
    n: int = 100
    r: int = 4
    t0: float = 0.0
    tf: float = 100.0
    rtol: float = 1e-3
    atol: float = 1e-6
    sample_count: int = 1000
    out_dir: str = "out"
    input2_mode: str = "literal"
    energy_study: bool = False
    preset: str | None = None


def _parser(convert, kind):
    """A parser(field, raw) that names the field when convert fails."""
    def parse(field, raw):
        try:
            return convert(raw)
        except (TypeError, ValueError, KeyError):
            raise ValidationError(
                field, f"{field!r} must be {kind}, got {raw!r}") from None
    return parse


_parse_str = _parser(str, "a string")
_parse_int = _parser(int, "an integer")
_parse_float = _parser(float, "a number")
_parse_bool = _parser(lambda raw: configparser.ConfigParser.BOOLEAN_STATES[
    str(raw).strip().lower()], "a boolean")

#: [experiment] key or override -> (ExperimentConfig attribute, parser).
_EXPERIMENT = {
    "preset": ("preset", _parse_str),
    "n": ("n", _parse_int),
    "r": ("r", _parse_int),
    "t0": ("t0", _parse_float),
    "tf": ("tf", _parse_float),
    "rtol": ("rtol", _parse_float),
    "atol": ("atol", _parse_float),
    "sample_count": ("sample_count", _parse_int),
    "out": ("out_dir", _parse_str),
    "input2_mode": ("input2_mode", _parse_str),
    "energy_study": ("energy_study", _parse_bool),
}


def _read_ini(path) -> dict[str, dict[str, str]]:
    """The config file as {section: {key: raw value}}, keys checked."""
    parser = configparser.ConfigParser()
    try:
        with open(path, "r") as handle:
            parser.read_file(handle, source=str(path))
    except configparser.Error as exc:
        line = getattr(exc, "lineno", None)
        if line is None and getattr(exc, "errors", None):
            line = exc.errors[0][0]
        raise ParseError(str(exc).splitlines()[0], line=line) from exc
    known = {"experiment": set(_EXPERIMENT),
             "params": {f.name for f in fields(PhysicalParams)},
             "input": {f.name for f in fields(InputSpec)}}
    for section in parser.sections():
        if section not in known:
            raise ValidationError(section, f"unknown section [{section}]")
        for key in parser[section]:
            if key not in known[section]:
                raise ValidationError(key, f"unknown key {key!r} in [{section}]")
    return {section: dict(parser[section]) for section in parser.sections()}


def _validate(cfg: ExperimentConfig) -> ExperimentConfig:
    if cfg.n < 3:
        raise ValidationError("n", f"n must be >= 3, got {cfg.n}")
    if cfg.r < 1:
        raise ValidationError("r", f"r must be >= 1, got {cfg.r}")
    if not math.isfinite(cfg.t0):
        raise ValidationError("t0", f"t0 must be finite, got {cfg.t0}")
    if not cfg.t0 < cfg.tf < math.inf:
        raise ValidationError("tf", f"need finite tf > t0, "
                                    f"got [{cfg.t0}, {cfg.tf}]")
    for field in ("rtol", "atol"):
        if not 0.0 < getattr(cfg, field) < math.inf:
            raise ValidationError(field, f"{field} must be finite and positive")
    if cfg.sample_count < 2:
        raise ValidationError("sample_count", "sample_count must be >= 2")
    if cfg.input2_mode not in ("imag", "literal"):
        raise ValidationError("input2_mode",
                              f"input2_mode must be 'imag' or 'literal', "
                              f"got {cfg.input2_mode!r}")
    return cfg


def load_config(path=None, cli_overrides=None, env=None) -> ExperimentConfig:
    """Build a validated ExperimentConfig.

    Precedence, lowest to highest: package defaults, named preset,
    config file, CABLEMASS_* environment variables, CLI flags.  The
    file is ``path``, else the ``config`` flag, else CABLEMASS_CONFIG.

    Raises
    ------
    ParseError
        On unparseable config text (with the offending line number).
    ValidationError
        On an unknown key or an invalid value (named field).
    """
    env = os.environ if env is None else env
    overrides = {key: env[ENV_PREFIX + key.upper()] for key in ENV_KEYS
                 if env.get(ENV_PREFIX + key.upper()) is not None}
    for key, raw in (cli_overrides or {}).items():
        if raw is not None:
            if key not in ENV_KEYS:
                raise ValidationError(key, f"unknown override {key!r}")
            overrides[key] = raw

    config = overrides.pop("config", None)
    path = config if path is None else path
    sections = _read_ini(path) if path else {}
    exp = sections.get("experiment", {})

    # flag beats env beats file; the preset's values lie under all else
    file_preset = exp.pop("preset", None)
    name = overrides.pop("preset", None) or file_preset
    preset = get_preset(name) if name else _NO_PRESET
    cfg = ExperimentConfig(
        params=preset.params, input=signals.input_preset(preset.input_name),
        r=preset.r, tf=preset.tf, energy_study=preset.energy_study,
        preset=preset.name if name else None)

    given = sections.get("input", {})
    try:
        cfg.params = replace(cfg.params, **{
            f: _parse_float(f, raw)
            for f, raw in sections.get("params", {}).items()})
        if "kind" in given:
            cfg.input = signals.input_preset(given.pop("kind"))
        cfg.input = replace(cfg.input, **{
            f: _parse_float(f, raw) for f, raw in given.items()})
    except (InvalidParams, InvalidInput) as exc:
        raise ValidationError(exc.field, str(exc)) from exc

    # a bad file value fails even where a flag overrides it
    for key, raw in [*exp.items(), *overrides.items()]:
        attr, parse = _EXPERIMENT[key]
        setattr(cfg, attr, parse(key, raw))
    return _validate(cfg)


def _write_csv(path, header, rows, formats=None):
    """Write the header, then one line per row.

    rows hold Python numbers and strings, as ``ndarray.tolist`` gives
    them; formats has one %-format per column, by default %.17g, the
    17 significant digits that make identical runs byte-identical.
    """
    line = ",".join(formats or ["%.17g"] * len(header)) + "\n"
    with open(path, "w", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        handle.write("".join([line % tuple(row) for row in rows]))


def write_eigs_csv(path, eigs):
    order = np.lexsort((-eigs.imag, -eigs.real))
    _write_csv(path, ("re", "im"),
               np.column_stack([eigs.real, eigs.imag])[order].tolist())


def write_hsv_csv(path, hsv):
    rows = [(i + 1, sigma, balance.error_bound(hsv, i + 1))
            for i, sigma in enumerate(hsv.tolist())]
    _write_csv(path, ("index", "sigma", "bound"), rows,
               ("%d", "%.17g", "%.17g"))


def write_outputs_csv(path, fom_series, rom_series):
    rows = np.column_stack([fom_series.times, fom_series.values[:, :2],
                            rom_series.values[:, :2]])
    _write_csv(path, ("t", "y1_fom", "y2_fom", "y1_rom", "y2_rom"),
               rows.tolist())


def write_error_csv(path, metrics):
    rows = [
        ("y1", metrics.rel_l2_per_channel[0], metrics.rel_linf_per_channel[0]),
        ("y2", metrics.rel_l2_per_channel[1], metrics.rel_linf_per_channel[1]),
        ("combined", metrics.rel_l2, metrics.rel_linf),
    ]
    _write_csv(path, ("channel", "rel_l2", "rel_linf"), rows,
               ("%s", "%.17g", "%.17g"))


def write_energy_csv(path, report):
    rows = np.column_stack([report.times, report.e, report.ek, report.ep])
    _write_csv(path, ("t", "E", "EK", "EP"), rows.tolist())


# Initial data of the unforced energy study: position e^x sin(1-x),
# velocity cos(x).
def _energy_initial_data(params, n):
    return sample_initial_data(
        params, n,
        pos=lambda x: np.exp(x) * np.sin(1.0 - x),
        vel=np.cos)


#: Subcommand -> (help text, artifacts it writes).  ``compare`` also
#: writes "energy" when the config asks for the energy study.
SUBCOMMANDS = {
    "build": ("validate the config and report system dimensions", ()),
    "eigs": ("write the eigenvalues of A (eigs.csv)", ("eigs",)),
    "balance": ("write the Hankel singular values (hsv.csv)", ("hsv",)),
    "simulate": ("write FOM and ROM outputs (outputs.csv)", ("outputs",)),
    "compare": ("run the full experiment (all artifacts)",
                ("eigs", "hsv", "outputs", "error")),
    "energy": ("write the unforced energy history (energy.csv)", ("energy",)),
}


def _integrator_line(label: str, stats) -> str:
    """An ETDRK4 run's log line: step, k, steps, estimate, cond(V), sets."""
    return (f"{label} integrator ETDRK4: h={stats.step:.6g} "
            f"({stats.steps_per_sample} per sample), {stats.n_steps} steps, "
            f"error estimate {stats.error_estimate:.3g}, "
            f"cond(V) {stats.cond_v:.3g}, "
            f"{stats.sets_built} coefficient sets built")


def run_command(command: str, cfg: ExperimentConfig, log=None) -> dict:
    """Run the stages a subcommand's artifacts need, in pipeline order.

    Each stage logs one line.  The output directory is made only when
    there is an artifact to write.  Returns a dict mapping artifact
    names to file paths, in stage order.

    The energy study starts at t = 0, so a run that wants it raises
    ValidationError("t0") for t0 != 0, before any work.
    """
    log = log or (lambda msg: None)
    wanted = set(SUBCOMMANDS[command][1])
    if command == "compare" and cfg.energy_study:
        wanted.add("energy")
    if "energy" in wanted and cfg.t0 != 0.0:
        raise ValidationError("t0", "the energy study starts at t = 0, "
                                    f"got t0 = {cfg.t0}")
    if wanted:
        os.makedirs(cfg.out_dir, exist_ok=True)
    written = {}

    def write(name, writer, *data):
        if name in wanted:
            written[name] = os.path.join(cfg.out_dir, f"{name}.csv")
            writer(written[name], *data)

    sys_ = build_system(cfg.params, cfg.n)
    log(f"preset: {cfg.preset or '(none)'}")
    log(f"nodes n={cfg.n}, spacing h={sys_.grid.h:.6g}, state dim {2 * cfg.n}")
    log(f"input kind: {cfg.input.kind}, r={cfg.r}, horizon [{cfg.t0}, {cfg.tf}]")

    if "eigs" in wanted:
        write("eigs", write_eigs_csv, sys_.schur.eigenvalues)
        log(f"stability margin: {analysis.stability_margin(sys_):.6g}")

    if wanted & {"hsv", "outputs", "error"}:
        p, q = balance.gramians(sys_)
        bal = balance.square_root_transform(p, q, cfg.r)
        red = balance.reduce(sys_, bal)
        write("hsv", write_hsv_csv, bal.hsv)
        # at r = rank < dim the tail is cut off, not resolved
        rank, dim = bal.hsv.size, sys_.a.shape[0]
        bound = (f"unresolved: r is the numerical Hankel rank {rank} of "
                 f"{dim} states" if cfg.r == rank < dim
                 else f"{balance.error_bound(bal.hsv, cfg.r):.6g}")
        log(f"retained r={cfg.r}, error bound {bound}")

    if wanted & {"outputs", "error"}:
        spec = signals.resolve_input(cfg.input, sys_, mode=cfg.input2_mode)
        fom_series = rom.simulate_fom(sys_, spec, cfg.t0, cfg.tf, rtol=cfg.rtol,
                                      atol=cfg.atol, sample_count=cfg.sample_count)
        log(_integrator_line("FOM", fom_series.stats))
        rom_series = rom.simulate_rom(red, spec, cfg.t0, cfg.tf, rtol=cfg.rtol,
                                      atol=cfg.atol, sample_count=cfg.sample_count)
        log(_integrator_line("ROM", rom_series.stats))
        write("outputs", write_outputs_csv, fom_series, rom_series)

    if "error" in wanted:
        metrics = analysis.output_error(fom_series, rom_series)
        write("error", write_error_csv, metrics)
        log(f"FOM vs ROM rel_l2={metrics.rel_l2:.6g} rel_linf={metrics.rel_linf:.6g}")

    if "energy" in wanted:
        forms = quadratic_forms(cfg.params, cfg.n)
        x0 = _energy_initial_data(cfg.params, cfg.n)
        rtol = min(cfg.rtol, 1e-6)
        report = analysis.energy_decay(
            sys_, forms, x0, cfg.tf, rtol=rtol, atol=min(cfg.atol, 1e-9),
            sample_count=cfg.sample_count)
        write("energy", write_energy_csv, report)
        flag = (f", above rtol {rtol:.3g}: WARNING, the energy is not monotone"
                if report.max_rise > rtol else "")
        log(f"fitted decay rate {report.fitted_rate:.6g} "
            f"(R2={report.fit_r2:.4f}), largest energy rise "
            f"{report.max_rise:.3g}{flag}")
        log(_integrator_line("energy", report.stats))

    return written


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="config file (INI)")
    common.add_argument("--preset", metavar="NAME",
                        help="named experiment preset")
    common.add_argument("--r", type=int, metavar="INT", help="reduced order")
    common.add_argument("--n", type=int, metavar="INT", help="node count")
    common.add_argument("--tf", type=float, metavar="REAL",
                        help="final time")
    common.add_argument("--out", metavar="DIR", help="output directory")

    parser = argparse.ArgumentParser(
        prog="cablemass",
        description="Balanced-truncation model reduction experiments for "
                    "the nonlinear cable-mass system.",
        epilog="Flags may also be given as environment variables with the "
               f"{ENV_PREFIX} prefix (e.g. {ENV_PREFIX}PRESET).")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in SUBCOMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_text)

    args = parser.parse_args(argv)
    overrides = {key: getattr(args, key) for key in ENV_KEYS}

    try:
        cfg = load_config(cli_overrides=overrides)
        artifacts = run_command(args.command, cfg, print)
        for name, path in artifacts.items():
            print(f"wrote {name}: {path}")
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
