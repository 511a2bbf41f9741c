"""Seeded study orchestration: convergence rates, coefficient rates, census.

A study runs `replicates` independent estimations at each m in a grid,
averages the errors, and fits a log-log rate with a bootstrap confidence
interval.  Everything is driven by a StudyConfig (INI file and/or keyword
overrides), per-replicate RNG streams are derived from
(seed, m, replicate index), and results are written as deterministic CSV /
JSON (plus an optional SVG chart), so identical configs give byte-identical
outputs regardless of worker count, for a fixed BLAS thread count (the
transform's matrix products can round differently with the thread count).
Every study runner (run_convergence_study, run_coefficient_study,
run_census) takes one resolved StudyConfig and returns a StudyResult, whose
rows head the study's table in write_study_outputs.

Both replicate studies share one replicate loop: each replicate samples its
observations through ``sample_compound`` from its own stream and hands them
to the study's measure (the L2 error of ``reconstruct``, or the squared
error of ``estimate_coefficients`` at one index).  Work units of
(m, replicate range), largest m first, run serially or through one process
pool per study.  The layers and the pool class are called through this
module's globals, where perfbench/tracing.py wraps them.  One runner,
``_rate_study``, then builds both studies' per-m rows and notes, fits their
rate and decides when there is none to fit; a study gives only its measure,
its columns, its reference slope and its opening notes.
"""
from __future__ import annotations

import configparser
import dataclasses
import json
import math
import os
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .spaces import Space, make_index, parse_space, spectrum, weyl_census
from .steplaws import parse_law
from .simulate import ProcessConfig, sample_compound
from .coeffs import (EstimatorConfig, Variant, _index_table, estimate_coefficients,
                     require_inverse_invariant)
from .density import (
    SobolevSpec,
    l2_error,
    reconstruct,
    smoothing_cutoff,
    sobolev_norm,
    truth_table,
)

__all__ = [
    "StudyConfig",
    "StudyResult",
    "FitResult",
    "fit_rate",
    "run_convergence_study",
    "run_coefficient_study",
    "run_census",
    "write_study_outputs",
    "replicate_seed",
]

FitResult = namedtuple("FitResult", ["slope", "intercept", "ci_low", "ci_high"])

_BOOTSTRAP_RESAMPLES = 1000

# The StudyConfig fields each study reads, by StudyResult.kind: the one source
# of a study verb's flags and of its study.cfg echo.
_REPLICATE_FIELDS = ("space", "law", "t_lambda", "variant", "delta", "noise_tau",
                     "observation_noise_tau", "m_grid", "replicates", "seed", "threads",
                     "emit_svg", "out")
STUDY_FIELDS = {
    "density": _REPLICATE_FIELDS + ("s", "scale", "emit_coefficients"),
    "coefficient": _REPLICATE_FIELDS + ("index",),
    "census": ("space", "thresholds", "seed", "out"),
}
# The table each study writes, by StudyResult.kind, and the series of
# plotdata.csv drawn from its rows as (name, x column, y column); the first
# series carries the fit.  The table's header is its rows' keys.
_STUDY_TABLES = {
    "density": ("results.csv", (("measured", "m", "mean_error"),)),
    "coefficient": ("results.csv", (("measured", "m", "mse"),)),
    "census": ("census.csv", (("spherical", "threshold", "count_spherical"),
                              ("weighted", "threshold", "count_weighted"))),
}


# ---------------------------------------------------------------------------
# configuration


def _param(default, help=None):
    """A StudyConfig field; `help` is its command-line help text."""
    return field(default=default, metadata={"help": help})


@dataclass
class StudyConfig:
    """Resolved study parameters.

    The fields are the single declaration of a study: each is an INI key of
    the [study] section, read by the reader of its declared type in
    FIELD_READERS.  The fields a study reads, named in STUDY_FIELDS, are its
    verb's flags and its study.cfg echo; an INI key it does not read is ignored.
    """

    space: str = _param("circle", "space spec, e.g. circle, torus:2, sphere:2 (default circle)")
    law: str = _param("wn:sigma=0.7", "law spec, e.g. wn:sigma=0.7 or heat:tau=0.3")
    t_lambda: float = _param(1.0, "expected steps per observation, t*Lambda")
    variant: str = _param("real-log", f"estimator variant ({', '.join(v.value for v in Variant)})")
    delta: float = _param(1.0, "truncation constant delta >= 0 (0: no truncation)")
    noise_tau: float = _param(0.0, "noise scale known to the estimator")
    observation_noise_tau: float | None = _param(None, "noise scale applied to the data")
    s: float = _param(2.0, "Sobolev smoothness order")
    scale: float = _param(1.0, "smoothing-cutoff scale factor")
    m_grid: tuple[int, ...] = _param((100, 1000, 10000), "comma-separated observation counts")
    replicates: int = _param(30)
    seed: int = _param(0)
    index: str | None = _param(None, "target index label, e.g. 1 or 0;1 "
                                     "(default: lowest nonzero frequency)")
    thresholds: tuple[float, ...] = _param(tuple(np.logspace(2.0, 5.0, 10)),
                                           "comma-separated Casimir thresholds")
    threads: int = _param(1)
    emit_coefficients: bool = _param(False)
    emit_svg: bool = _param(False)
    out: str | None = _param(None, "output directory")

    def __post_init__(self):
        self.m_grid = tuple(int(v) for v in self.m_grid)
        self.thresholds = tuple(float(v) for v in self.thresholds)
        if any(b <= a for a, b in zip(self.m_grid, self.m_grid[1:])):
            raise ValueError("m_grid must be strictly increasing")
        if any(m < 1 for m in self.m_grid):
            raise ValueError("m_grid values must be >= 1")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        for name in ("s", "scale"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
        if not all(0.0 < t < math.inf for t in self.thresholds):
            raise ValueError("thresholds must be finite and > 0")
        if not 0.0 <= (self.observation_noise_tau or 0.0) < math.inf:
            raise ValueError("observation_noise_tau must be finite and >= 0")
        Variant(self.variant)

    # -- resolution helpers ---------------------------------------------------

    def space_object(self) -> Space:
        return parse_space(self.space)

    def law_object(self):
        return parse_law(self.law, self.space_object())

    def estimator_config(self) -> EstimatorConfig:
        return EstimatorConfig(**{f.name: getattr(self, f.name)
                                  for f in dataclasses.fields(EstimatorConfig)})

    def data_noise_tau(self) -> float:
        """Heat-blur scale of the generated data: observation_noise_tau when
        given, else the estimator's own observation model (noise_tau for the
        noise-corrected variant, 0 otherwise)."""
        if self.observation_noise_tau is not None:
            return self.observation_noise_tau
        return self.noise_tau if Variant(self.variant) is Variant.NOISE_CORRECTED else 0.0

    # -- INI round trip ---------------------------------------------------------

    @classmethod
    def from_ini(cls, path, **overrides) -> "StudyConfig":
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ValueError(f"config file not found: {path}")
        if not parser.has_section("study"):
            raise ValueError(f"{path}: missing [study] section")
        values: dict = {}
        fields = {f.name: f for f in dataclasses.fields(cls)}
        for key, raw in parser.items("study"):
            if key not in fields:
                raise ValueError(f"{path}: unknown study key {key!r}")
            try:
                values[key] = FIELD_READERS[fields[key].type](raw)
            except ValueError:
                raise ValueError(f"{path}: bad value for {key}: {raw!r}") from None
        values.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**values)

    def to_ini_text(self, names=None) -> str:
        """The [study] section of the fields given by name (default: all)."""
        lines = ["[study]"]
        for f in dataclasses.fields(self):
            if names is not None and f.name not in names:
                continue
            value = getattr(self, f.name)
            if value is not None:
                text = ",".join(map(_fmt, value)) if isinstance(value, tuple) else _fmt(value)
                lines.append(f"{f.name} = {text}")
        return "\n".join(lines) + "\n"


def _bool(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes", "on"):
        return True
    if raw.lower() in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"bad boolean: {raw!r}")


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(v) for v in raw.split(","))


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(v) for v in raw.split(","))


def _float_or_none(raw: str) -> float | None:
    return None if raw.lower() in ("", "none") else float(raw)


# The reader of each field type of StudyConfig, ProcessConfig and
# EstimatorConfig, keyed by the annotation as written (annotations are
# postponed in their modules, so a field's type is its text).
FIELD_READERS = {
    "str": str, "str | None": str, "int": int, "float": float, "bool": _bool,
    "float | None": _float_or_none, "tuple[int, ...]": _ints, "tuple[float, ...]": _floats,
    "Variant": Variant,
}


@dataclass
class StudyResult:
    kind: str
    config: StudyConfig
    rows: list
    fit: FitResult | None
    reference: float | None
    band: float | None = None
    passed: bool | None = None
    secondary_fit: FitResult | None = None
    secondary_reference: float | None = None
    notes: tuple = ()
    coefficient_tables: dict = field(default_factory=dict)

    def apply_band(self, band: float) -> "StudyResult":
        """Mark pass/fail of the fitted slope(s) against reference +- band."""
        self.band = band
        ok = True
        if self.fit is None or self.reference is None:
            ok = False
        else:
            ok = abs(self.fit.slope - self.reference) <= band
        if self.secondary_fit is not None and self.secondary_reference is not None:
            ok = ok and abs(self.secondary_fit.slope - self.secondary_reference) <= band
        self.passed = bool(ok)
        return self


# ---------------------------------------------------------------------------
# rate fitting


def fit_rate(points, replicate_errors=None, seed: int = 0) -> FitResult:
    """OLS slope/intercept through (log m, log err) points with a bootstrap CI.

    With replicate_errors (one array of per-replicate errors per point) the
    bootstrap resamples replicates within each point; otherwise it resamples
    the points themselves.
    """
    points = [(float(x), float(y)) for x, y in points]
    if len(points) < 3:
        raise ValueError("rate fits need at least 3 points")
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    if np.ptp(xs) <= 0:
        raise ValueError("degenerate abscissae: all log-m values equal")
    slope, intercept = np.polyfit(xs, ys, 1)

    rng = np.random.default_rng(seed)
    if replicate_errors is not None:
        errors = [np.asarray(e, dtype=float) for e in replicate_errors]
        if len(errors) != len(points):
            raise ValueError("one replicate-error array per point is required")
        # one draw in the per-resample, per-point order, split per point;
        # then one fit of every resample's column (numpy draws ranges below
        # 2**32 the same way for int32 and int64, so int32 halves the array)
        sizes = np.array([errs.size for errs in errors])
        draws = rng.integers(0, np.repeat(sizes, sizes),
                             size=(_BOOTSTRAP_RESAMPLES, sizes.sum()), dtype=np.int32)
        picks = np.split(draws, np.cumsum(sizes)[:-1], axis=1)
        yb = np.array([[math.log10(mean) if mean > 0 else y
                        for mean in errs[pick].mean(axis=1).tolist()]
                       for errs, pick, y in zip(errors, picks, ys.tolist())])
        slopes = np.polyfit(xs, yb, 1)[0]
    else:
        n = len(points)
        slopes = np.empty(_BOOTSTRAP_RESAMPLES)
        for b in range(_BOOTSTRAP_RESAMPLES):
            while True:
                pick = rng.integers(0, n, n)
                if np.ptp(xs[pick]) > 0:
                    break
            slopes[b] = np.polyfit(xs[pick], ys[pick], 1)[0]
    lo, hi = np.percentile(slopes, [2.5, 97.5])
    return FitResult(float(slope), float(intercept), float(lo), float(hi))


# ---------------------------------------------------------------------------
# study runners


def replicate_seed(seed: int, m: int, replicate: int) -> int:
    """Independent per-replicate stream roots derived from (seed, m, replicate)."""
    ss = np.random.SeedSequence((seed % (1 << 64), m, replicate))
    return int(ss.generate_state(1, np.uint64)[0])


def standard_error(values: np.ndarray) -> float:
    """Standard error of a replicate mean, std(ddof=1) / sqrt(n) (the same
    as its jackknife estimate); nan for fewer than two values."""
    if values.size < 2:
        return float("nan")
    return float(values.std(ddof=1) / math.sqrt(values.size))


def _replicates(cfg: StudyConfig, law, measure, unit) -> list:
    """measure(rep, obs) for replicates rep = lo..hi-1 at sample size m, each
    observed through sample_compound from its own stream replicate_seed(seed, m, rep)."""
    m, lo, hi = unit
    out = []
    for rep in range(lo, hi):
        config = ProcessConfig(law=law, t_lambda=cfg.t_lambda, noise_tau=cfg.data_noise_tau(),
                               seed=replicate_seed(cfg.seed, m, rep))
        out.append(measure(rep, sample_compound(config, m)))
    return out


def _replicate_results(cfg: StudyConfig, law, measure) -> dict:
    """measure(rep, obs) of every replicate at every m, in replicate order: {m: [...]}.

    Work units (m, lo, hi) cover replicates lo..hi-1 at m.  Units run largest
    m first, serially or through one pool of at most one worker per unit and
    per CPU (a pool forks all its workers at its first job); each replicate
    has its own stream, so the results do not depend on threads.
    """
    fn = partial(_replicates, cfg, law, measure)
    size = math.ceil(cfg.replicates / cfg.threads)
    units = [(m, lo, min(lo + size, cfg.replicates))
             for m in reversed(cfg.m_grid)
             for lo in range(0, cfg.replicates, size)]
    if cfg.threads > 1:
        workers = min(cfg.threads, len(units), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(fn, units))
    else:
        parts = [fn(unit) for unit in units]
    results = {m: [] for m in cfg.m_grid}
    for (m, _, _), part in zip(units, parts):
        results[m].extend(part)
    return results


def _kept(coeffs) -> tuple[bool, bool]:
    """Whether an estimate kept a non-trivial index, and whether it had
    non-trivial indices and truncated every one to 0."""
    nontrivial = coeffs._casimir != 0.0
    kept = bool((nontrivial & ~coeffs._truncated).any())
    return kept, bool(nontrivial.any()) and not kept


def _rate_study(cfg: StudyConfig, law, kind: str, measure, columns, reference: float,
                notes, coefficient_tables=None) -> StudyResult:
    """measure(rep, obs) gives (error, *_kept(estimate), extras); each m gives the
    row {"m": m, **columns(m, errors, extras)} and notes any replicate that
    truncated every non-trivial estimate.  The table's first plotted column is
    fitted over the replicate errors, unless no replicate at any m kept a
    non-trivial estimate or the column is 0 at some m: then a note says why not."""
    if len(cfg.m_grid) < 3:
        raise ValueError("m_grid needs at least 3 values for a rate fit")
    column = _STUDY_TABLES[kind][1][0][2]
    rows, errors, notes, any_kept = [], [], list(notes), False
    for m, reps in _replicate_results(cfg, law, measure).items():
        errs, kept, failed, extras = zip(*reps)
        errors.append(np.array(errs))
        rows.append({"m": m, **columns(m, errors[-1], extras)})
        any_kept = any_kept or any(kept)
        if sum(failed):
            notes.append(f"m={m}: {sum(failed)} of {len(reps)} replicates had every "
                         "non-trivial estimate truncated to 0")
    zero = [str(r["m"]) for r in rows if r[column] == 0.0]
    fit = None
    if not any_kept:
        notes.append("no replicate kept a non-trivial estimate at any m; rate fit skipped")
    elif zero:
        notes.append(f"{column} is 0 at m={','.join(zero)}; rate fit skipped")
    else:
        fit = fit_rate([(math.log10(r["m"]), math.log10(r[column])) for r in rows],
                       replicate_errors=errors, seed=cfg.seed)
    return StudyResult(kind=kind, config=cfg, rows=rows, fit=fit, reference=reference,
                       notes=tuple(notes), coefficient_tables=coefficient_tables or {})


def _density_error(cfg: StudyConfig, est_cfg, truth, tail, rep, obs):
    """The error against the law (the mass beyond the truth table is bias); its
    extras are its variance and bias terms and replicate 0's coefficients."""
    est = reconstruct(obs, est_cfg, SobolevSpec(cfg.s), cfg.scale)
    err = l2_error(est, truth)
    return (err.total + tail, *_kept(est.coeffs),
            (err.variance_term, err.bias_term + tail, est.coeffs if rep == 0 else None))


def run_convergence_study(cfg: StudyConfig) -> StudyResult:
    """Density-estimation error vs m, with the exact bias/variance split."""
    law = cfg.law_object()
    est_cfg = cfg.estimator_config()
    require_inverse_invariant(law, est_cfg.variant)
    space = law.space
    # an empty grid goes on to the runner's m-grid check
    t_max = smoothing_cutoff(max(cfg.m_grid, default=1), cfg.s, space, cfg.scale)
    truth, tail = truth_table(law, t_max)
    notes = [f"truth tail beyond coverage, counted in bias_term: {tail!r}"]
    try:
        snorm = sobolev_norm(truth, space, cfg.s)
    except ValueError as exc:
        snorm = None
        notes.append(f"sobolev norm unavailable: {exc}")
    tables = {}

    def columns(m, totals, extras):
        variances, biases, coeffs = zip(*extras)
        if cfg.emit_coefficients:
            tables[m] = coeffs[0]
        cutoff = smoothing_cutoff(m, cfg.s, space, cfg.scale)
        variance_term, bias_term = float(np.mean(variances)), float(np.mean(biases))
        return {
            "cutoff": cutoff,
            # the emitted total is the exact sum of the emitted components
            "mean_error": variance_term + bias_term,
            "variance_term": variance_term,
            "bias_term": bias_term,
            "stderr": standard_error(totals),
            "bias_bound_ok": (None if snorm is None
                              else bool(bias_term <= cutoff ** (-cfg.s) * snorm**2)),
        }

    return _rate_study(cfg, law, "density", partial(_density_error, cfg, est_cfg, truth, tail),
                       columns, -2.0 * cfg.s / (2.0 * cfg.s + space.dim), notes,
                       coefficient_tables=tables)


def _resolve_index(cfg: StudyConfig, space: Space):
    if cfg.index is not None:
        try:
            label = tuple(int(v) for v in str(cfg.index).split(";"))
        except ValueError:
            raise ValueError(f"index must be integers separated by ';', "
                             f"got {cfg.index!r}") from None
        return make_index(space, label)
    # the trivial index is unique and sorts first; degree or frequency 1 follows
    return spectrum(space, 4.0 * space.dim + 1.0)[1]


def _coefficient_error(est_cfg, table, index, truth, rep, obs):
    """The squared error of the estimate at the index, whose one-row table
    is given; no extras."""
    est = estimate_coefficients(obs, table, est_cfg)
    return abs(est[index] - truth) ** 2, *_kept(est), None


def run_coefficient_study(cfg: StudyConfig) -> StudyResult:
    """Per-index coefficient MSE vs m (reference slope -1)."""
    law = cfg.law_object()
    est_cfg = cfg.estimator_config()
    require_inverse_invariant(law, est_cfg.variant)
    index = _resolve_index(cfg, law.space)
    measure = partial(_coefficient_error, est_cfg, _index_table([index]), index,
                      law.coefficient(index))
    return _rate_study(cfg, law, "coefficient", measure, lambda m, errs, _: {
        "mse": float(errs.mean()), "stderr": standard_error(errs)}, -1.0, ())


def run_census(cfg: StudyConfig) -> StudyResult:
    """Spectral counting: spherical and multiplicity-weighted counts vs T,
    with fitted growth exponents (references r/2 and d/2)."""
    space = cfg.space_object()
    ts = np.array(cfg.thresholds, dtype=float)
    if np.any(np.diff(ts) <= 0):
        raise ValueError("thresholds must be strictly increasing")
    if ts[-1] / ts[0] < 100.0:
        raise ValueError("census threshold grid must span at least two decades")
    counts = weyl_census(space, ts)
    rows = [{"threshold": float(t), "count_spherical": cs, "count_weighted": cw}
            for t, (cs, cw) in zip(ts, counts)]
    log_t = [math.log10(r["threshold"]) for r in rows]
    fit_sph = fit_rate(list(zip(log_t, [math.log10(r["count_spherical"]) for r in rows])),
                       seed=cfg.seed)
    fit_wt = fit_rate(list(zip(log_t, [math.log10(r["count_weighted"]) for r in rows])),
                      seed=cfg.seed + 1)
    return StudyResult(kind="census", config=cfg, rows=rows,
                       fit=fit_sph, reference=space.rank / 2.0,
                       secondary_fit=fit_wt, secondary_reference=space.dim / 2.0)


# ---------------------------------------------------------------------------
# output emission


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(row[k]) for k in header))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _fit_payload(fit: FitResult | None, reference) -> dict:
    if fit is None:
        return {"slope": None, "intercept": None, "ci": None, "reference": reference}
    return {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "ci": [fit.ci_low, fit.ci_high],
        "reference": reference,
    }


def write_study_outputs(result: StudyResult, outdir) -> dict:
    """Emit study.cfg, the study's table (results.csv or census.csv, headed by
    its rows' keys), plotdata.csv, fit.json (and the optional per-m
    coefficient CSVs and SVG chart).  Deterministic bytes."""
    os.makedirs(outdir, exist_ok=True)
    paths = {}

    cfg_path = os.path.join(outdir, "study.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(result.config.to_ini_text(STUDY_FIELDS[result.kind]))
    paths["config"] = cfg_path

    table_name, plotted = _STUDY_TABLES[result.kind]
    table_path = os.path.join(outdir, table_name)
    _write_csv(table_path, list(result.rows[0]), result.rows)
    paths["table"] = table_path
    series = [(name, [math.log10(r[x]) for r in result.rows],
               [math.log10(max(r[y], 1e-300)) for r in result.rows])
              for name, x, y in plotted]

    plot_rows = []
    x0 = series[0][1][0]
    y0 = series[0][2][0]
    for name, xs, ys in series:
        for x, y in zip(xs, ys):
            row = {"series": name, "log10_x": x, "log10_y": y,
                   "log10_fit": None, "log10_reference": None}
            if result.fit is not None and name == series[0][0]:
                row["log10_fit"] = result.fit.intercept + result.fit.slope * x
                if result.reference is not None:
                    row["log10_reference"] = y0 + result.reference * (x - x0)
            plot_rows.append(row)
    plot_path = os.path.join(outdir, "plotdata.csv")
    _write_csv(plot_path, ["series", "log10_x", "log10_y", "log10_fit",
                           "log10_reference"], plot_rows)
    paths["plotdata"] = plot_path

    payload = {
        "kind": result.kind,
        "fit": _fit_payload(result.fit, result.reference),
        "band": result.band,
        "passed": result.passed,
        "notes": list(result.notes),
    }
    if result.secondary_fit is not None:
        payload["weighted_fit"] = _fit_payload(result.secondary_fit,
                                               result.secondary_reference)
    fit_path = os.path.join(outdir, "fit.json")
    with open(fit_path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    paths["fit"] = fit_path

    for m, table in sorted(result.coefficient_tables.items()):
        cpath = os.path.join(outdir, f"coefficients_m{m}.csv")
        table.to_csv(cpath)
        paths[f"coefficients_m{m}"] = cpath

    if result.config.emit_svg:
        svg_path = os.path.join(outdir, "chart.svg")
        _write_svg(result, series, plot_rows, svg_path)
        paths["svg"] = svg_path
    return paths


def _write_svg(result: StudyResult, series, plot_rows, path) -> None:
    """Minimal hand-rolled log-log chart: measured points, and the fitted
    and reference-slope lines of the plotdata rows."""
    width, height, margin = 640, 480, 60
    xs = [x for _, sx, _ in series for x in sx]
    ys = [y for _, _, sy in series for y in sy]
    # the fitted series' x grid is increasing: its end rows span the chart
    fitted = [r for r in plot_rows if r["log10_fit"] is not None]
    lines = [(name, [(r["log10_x"], r[key]) for r in (fitted[0], fitted[-1])])
             for name, key in (("fit", "log10_fit"), ("reference", "log10_reference"))
             if fitted and fitted[0][key] is not None]
    ys = ys + [y for _, pts in lines for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def to_px(x, y):
        px = margin + (x - x_lo) / x_span * (width - 2 * margin)
        py = height - margin - (y - y_lo) / y_span * (height - 2 * margin)
        return f"{px:.2f},{py:.2f}"

    colors = {"measured": "#1f6fb2", "spherical": "#1f6fb2", "weighted": "#b2541f",
              "fit": "#333333", "reference": "#999999"}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="black"/>',
    ]
    for name, sx, sy in series:
        pts = " ".join(to_px(x, y) for x, y in zip(sx, sy))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{colors.get(name, "#1f6fb2")}" stroke-width="2"/>')
        for x, y in zip(sx, sy):
            cx, cy = to_px(x, y).split(",")
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="3" '
                         f'fill="{colors.get(name, "#1f6fb2")}"/>')
    for name, pts in lines:
        seg = " ".join(to_px(x, y) for x, y in pts)
        dash = ' stroke-dasharray="6,4"' if name == "reference" else ""
        parts.append(f'<polyline points="{seg}" fill="none" '
                     f'stroke="{colors[name]}" stroke-width="1.5"{dash}/>')
    label = f"slope {result.fit.slope:.4f}" if result.fit is not None else "no fit"
    if result.reference is not None:
        label += f" (reference {result.reference:.4f})"
    parts.append(f'<text x="{margin}" y="{margin - 16}" font-family="monospace" '
                 f'font-size="14">{result.kind} study: {label}</text>')
    parts.append(f'<text x="{width // 2 - 40}" y="{height - 16}" '
                 f'font-family="monospace" font-size="12">log10 x</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
