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
import sys

from .spaces import parse_space
from .coeffs import EstimatorConfig, Variant
from .density import SobolevSpec, reconstruct, smoothing_cutoff
from .harness import (
    FIELD_READERS,
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
from .steplaws import parse_law

DENSITY_BAND = 0.15
COEFF_BAND = 0.2
CENSUS_BAND = 0.1


# The study verbs' flags are the StudyConfig fields, except these per-verb
# cases: fields one verb owns, and the few that census shares.
_ONLY_ON = {"index": "study-coeff", "thresholds": "census"}
_CENSUS_SHARES = ("space", "seed", "out")


def _add_study_flags(sub: argparse.ArgumentParser, verb: str) -> None:
    if verb != "census":
        sub.add_argument("--config", help="INI file with a [study] section")
    for f in dataclasses.fields(StudyConfig):
        if f.name in _ONLY_ON:
            if _ONLY_ON[f.name] != verb:
                continue
        elif verb == "census" and f.name not in _CENSUS_SHARES:
            continue
        flag, help_text = "--" + f.name.replace("_", "-"), f.metadata["help"]
        if f.type == "bool":
            sub.add_argument(flag, action="store_const", const=True, help=help_text)
        else:
            sub.add_argument(flag, type=FIELD_READERS[f.type], help=help_text)
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


def _finish_study(result, band: float, check: bool) -> int:
    if check:
        result.apply_band(band)
    out = result.config.out
    if out:
        paths = write_study_outputs(result, out)
        print(f"outputs written to {out} ({', '.join(sorted(paths))})")
    if check:
        print(f"assertion: {'pass' if result.passed else 'FAIL'} "
              f"(band +-{band} around reference)")
        if not result.passed:
            return 3
    return 0


def _cmd_study(args) -> int:
    cfg = _study_config(args)
    if args.assert_band and cfg.replicates < 30:
        raise ValueError("acceptance runs require replicates >= 30")
    # plain calls, so the module globals are read at call time
    # (perfbench/tracing.py wraps them)
    if args.command == "study-density":
        result, label, band = run_convergence_study(cfg), "density error rate", DENSITY_BAND
    else:
        result, label, band = run_coefficient_study(cfg), "coefficient MSE rate", COEFF_BAND
    _report_rate(result, label)
    return _finish_study(result, band, args.assert_band)


def _cmd_census(args) -> int:
    cfg = _study_config(args)
    result = run_census(cfg.space, cfg.thresholds, seed=cfg.seed)
    for row in result.rows:
        print(f"  T={row['threshold']:g} spherical={row['count_spherical']} "
              f"weighted={row['count_weighted']}")
    print(f"spherical exponent {result.fit.slope:.4f} (reference {result.reference})")
    print(f"weighted exponent {result.secondary_fit.slope:.4f} "
          f"(reference {result.secondary_reference})")
    result.config.out = cfg.out
    return _finish_study(result, CENSUS_BAND, args.assert_band)


def _cmd_sample(args) -> int:
    space = parse_space(args.space)
    law = parse_law(args.law, space)
    config = ProcessConfig(
        law=law,
        intensity=args.intensity,
        time=args.time,
        noise_tau=args.noise_tau,
        seed=args.seed,
    )
    obs = sample_compound(config, args.count)
    if args.out:
        write_observations(obs, args.out)
        print(f"wrote {obs.m} observations to {args.out}")
    else:
        sys.stdout.write(observations_text(obs))
    return 0


def _cmd_coeffs(args) -> int:
    obs = read_observations(args.input)
    pc = obs.config
    cfg = EstimatorConfig(
        variant=Variant(args.variant),
        delta=args.delta,
        intensity=args.intensity if args.intensity is not None else pc.intensity,
        time=args.time if args.time is not None else pc.time,
        noise_tau=args.noise_tau if args.noise_tau is not None else pc.noise_tau,
    )
    space = pc.space
    if args.cutoff is not None:
        # honor an explicit Casimir cutoff by solving for the scale factor
        scale = args.cutoff / smoothing_cutoff(obs.m, args.s, space, 1.0)
    else:
        scale = args.scale
    est = reconstruct(obs, cfg, SobolevSpec(args.s), scale)
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
    parser = argparse.ArgumentParser(
        prog="decompound",
        description="Step-density estimation for compound random walks on "
                    "circles, tori, and spheres.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for verb, help_text in (("study-density", "density-error convergence study"),
                            ("study-coeff", "coefficient-MSE convergence study"),
                            ("census", "spectral counting exponents")):
        sub = subs.add_parser(verb, help=help_text)
        _add_study_flags(sub, verb)
        sub.set_defaults(handler=_cmd_census if verb == "census" else _cmd_study)

    sa = subs.add_parser("sample", help="generate observations and dump CSV")
    sa.add_argument("--space", required=True)
    sa.add_argument("--law", required=True)
    sa.add_argument("--intensity", type=float, default=1.0)
    sa.add_argument("--time", type=float, default=1.0)
    sa.add_argument("--noise-tau", dest="noise_tau", type=float, default=0.0)
    sa.add_argument("--seed", type=int, default=0)
    sa.add_argument("--count", type=int, required=True)
    sa.add_argument("--out", help="CSV path (default: stdout)")
    sa.set_defaults(handler=_cmd_sample)

    co = subs.add_parser("coeffs", help="estimate coefficients from an observations CSV")
    co.add_argument("--in", dest="input", required=True, help="observations CSV")
    co.add_argument("--variant", default="real-log")
    co.add_argument("--delta", type=float, default=1.0)
    co.add_argument("--s", type=float, default=2.0)
    co.add_argument("--scale", type=float, default=1.0)
    co.add_argument("--cutoff", type=float, help="explicit Casimir cutoff")
    co.add_argument("--intensity", type=float, help="override the header intensity")
    co.add_argument("--time", type=float, help="override the header time")
    co.add_argument("--noise-tau", dest="noise_tau", type=float,
                    help="override the header noise scale")
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
