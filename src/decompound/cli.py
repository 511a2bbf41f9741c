"""Command-line front-end.

Verbs:

* ``decompound study-density`` - convergence study of the density estimator;
* ``decompound study-coeff``   - per-index coefficient MSE study;
* ``decompound census``        - spectral counting exponents;
* ``decompound sample``        - dump observations to CSV;
* ``decompound coeffs``        - one-shot coefficient estimate from an
  observations CSV.

``--config FILE`` reads an INI ``[study]`` section; explicit flags override
it.  ``--assert`` checks the fitted slope(s) against the reference band and
makes the exit code 3 on failure; config/usage errors exit 2.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import sys

from .coeffs import EstimatorConfig
from .density import SobolevSpec, reconstruct, smoothing_cutoff
from .harness import (
    FIELD_READERS,
    STUDY_FIELDS,
    StudyConfig,
    run_census,
    run_coefficient_study,
    run_convergence_study,
    write_study_outputs,
)
from .simulate import (
    ProcessConfig,
    observations_text,
    read_observations,
    sample_compound,
    write_observations,
)

DENSITY_BAND = 0.15
COEFF_BAND = 0.2
CENSUS_BAND = 0.1


def _add_field_flags(sub: argparse.ArgumentParser, fields, defaults: bool = False) -> None:
    """One flag per dataclass field, read by the reader of its declared type;
    an unset flag is None, or the field's default with `defaults`."""
    for f in fields:
        flag = "--" + f.name.replace("_", "-")
        kwargs = {"help": f.metadata.get("help"), "default": f.default if defaults else None}
        if f.type == "bool":
            sub.add_argument(flag, action="store_const", const=True, **kwargs)
        else:
            sub.add_argument(flag, type=FIELD_READERS[f.type], **kwargs)


def _add_study_flags(sub: argparse.ArgumentParser, kind: str) -> None:
    """The flags of the StudyConfig fields the study of this kind reads."""
    if kind != "census":
        sub.add_argument("--config", help="INI file with a [study] section")
    _add_field_flags(sub, [f for f in dataclasses.fields(StudyConfig)
                           if f.name in STUDY_FIELDS[kind]])
    sub.add_argument("--assert", dest="assert_band", action="store_true",
                     help="exit 3 unless the fitted slope lies in the reference band")


def _study_config(args: argparse.Namespace) -> StudyConfig:
    overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(StudyConfig)
                 if getattr(args, f.name, None) is not None}
    if getattr(args, "config", None):
        return StudyConfig.from_ini(args.config, **overrides)
    return StudyConfig(**overrides)


def _report_rate(result, label: str) -> None:
    for row in result.rows:
        parts = [f"{k}={row[k]}" for k in row]
        print("  " + " ".join(parts))
    if result.fit is None:
        print(f"{label}: no rate fit ({'; '.join(result.notes) or 'n/a'})")
        return
    print(f"{label}: slope {result.fit.slope:.4f} "
          f"(95% CI [{result.fit.ci_low:.4f}, {result.fit.ci_high:.4f}], "
          f"reference {result.reference:.4f})")


def _cmd_study(args) -> int:
    cfg = _study_config(args)
    if args.assert_band and cfg.replicates < 30:
        raise ValueError("acceptance runs require replicates >= 30")
    # plain calls, so the module globals are read at call time
    # (perfbench/tracing.py wraps them)
    if args.command == "study-density":
        result, band = run_convergence_study(cfg), DENSITY_BAND
        _report_rate(result, "density error rate")
    elif args.command == "study-coeff":
        result, band = run_coefficient_study(cfg), COEFF_BAND
        _report_rate(result, "coefficient MSE rate")
    else:
        result, band = run_census(cfg), CENSUS_BAND
        for row in result.rows:
            print(f"  T={row['threshold']:g} spherical={row['count_spherical']} "
                  f"weighted={row['count_weighted']}")
        print(f"spherical exponent {result.fit.slope:.4f} (reference {result.reference})")
        print(f"weighted exponent {result.secondary_fit.slope:.4f} "
              f"(reference {result.secondary_reference})")
    if args.assert_band:
        result.apply_band(band)
    if cfg.out:
        paths = write_study_outputs(result, cfg.out)
        print(f"outputs written to {cfg.out} ({', '.join(sorted(paths))})")
    if args.assert_band:
        print(f"assertion: {'pass' if result.passed else 'FAIL'} "
              f"(band +-{band} around reference)")
        if not result.passed:
            return 3
    return 0


def _cmd_sample(args) -> int:
    if args.count < 1:
        raise ValueError("--count must be >= 1")
    obs = sample_compound(ProcessConfig.from_mapping(vars(args)), args.count)
    if args.out:
        write_observations(obs, args.out)
        print(f"wrote {obs.m} observations to {args.out}")
    else:
        sys.stdout.write(observations_text(obs))
    return 0


def _cmd_coeffs(args) -> int:
    if args.cutoff is not None and not 0.0 < args.cutoff < math.inf:
        raise ValueError("--cutoff must be finite and > 0")
    obs = read_observations(args.input)
    pc = obs.config
    # an unset flag takes the header's value, else the EstimatorConfig default
    names = [f.name for f in dataclasses.fields(EstimatorConfig)]
    values = {name: getattr(pc, name) for name in names if hasattr(pc, name)}
    values.update({name: getattr(args, name) for name in names
                   if getattr(args, name) is not None})
    cfg = EstimatorConfig(**values)
    # an unset --s or --scale takes the StudyConfig default
    s, scale = (getattr(_study_config(args), name) for name in ("s", "scale"))
    space = pc.space
    if args.cutoff is not None:
        # honor an explicit Casimir cutoff by solving for the scale factor,
        # stepped up where scale * m^p rounds below the cutoff
        scale = args.cutoff / smoothing_cutoff(obs.m, s, space, 1.0)
        while smoothing_cutoff(obs.m, s, space, scale) < args.cutoff:
            scale = math.nextafter(scale, math.inf)
    est = reconstruct(obs, cfg, SobolevSpec(s), scale)
    print(f"m={obs.m} cutoff={est.cutoff:g} indices={len(est.coeffs)} "
          f"truncated={len(est.coeffs.truncated)}")
    for ix, value in est.coeffs.items():
        print(f"  {ix.label_string()}: {value.real:+.6f}{value.imag:+.6f}i"
              f"{'  [truncated]' if est.coeffs.is_truncated(ix) else ''}")
    if args.out:
        meta = args.out[:-4] + ".json" if args.out.endswith(".csv") else args.out + ".json"
        est.to_files(args.out, meta)
        print(f"wrote {args.out} and {meta}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False everywhere (subparsers do not inherit it): a flag is
    # given whole, so a field added later cannot change what a prefix means
    parser = argparse.ArgumentParser(
        prog="decompound", allow_abbrev=False,
        description="Step-density estimation for compound random walks on "
                    "circles, tori, and spheres.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for verb, kind, help_text in (
            ("study-density", "density", "density-error convergence study"),
            ("study-coeff", "coefficient", "coefficient-MSE convergence study"),
            ("census", "census", "spectral counting exponents")):
        sub = subs.add_parser(verb, help=help_text, allow_abbrev=False)
        _add_study_flags(sub, kind)
        sub.set_defaults(handler=_cmd_study)

    sa = subs.add_parser("sample", help="generate observations and dump CSV",
                         allow_abbrev=False)
    sa.add_argument("--space", required=True)
    sa.add_argument("--law", required=True)
    _add_field_flags(sa, [f for f in dataclasses.fields(ProcessConfig) if f.name != "law"],
                     defaults=True)
    sa.add_argument("--count", type=int, required=True)
    sa.add_argument("--out", help="CSV path (default: stdout)")
    sa.set_defaults(handler=_cmd_sample)

    co = subs.add_parser("coeffs", help="estimate coefficients from an observations CSV",
                         description="An unset estimator flag takes the value of the "
                                     "observations header, else the EstimatorConfig default.",
                         allow_abbrev=False)
    co.add_argument("--in", dest="input", required=True, help="observations CSV")
    _add_field_flags(co, dataclasses.fields(EstimatorConfig))
    s, scale = (f for f in dataclasses.fields(StudyConfig) if f.name in ("s", "scale"))
    _add_field_flags(co, [s])
    cutoff = co.add_mutually_exclusive_group()
    _add_field_flags(cutoff, [scale])
    cutoff.add_argument("--cutoff", type=float, help="explicit Casimir cutoff")
    co.add_argument("--out", help="coefficient CSV path")
    co.set_defaults(handler=_cmd_coeffs)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
