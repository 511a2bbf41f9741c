"""Seeded study orchestration: convergence rates, coefficient rates, census.

A study runs `replicates` independent estimations at each m in a grid,
averages the errors, and fits a log-log rate with a bootstrap confidence
interval.  Everything is driven by a StudyConfig (INI file and/or keyword
overrides), per-replicate RNG streams are derived from
(seed, m, replicate index), and results are written as deterministic CSV /
JSON (plus an optional SVG chart), so identical configs give byte-identical
outputs regardless of worker count, for a fixed BLAS thread count (the
transform's matrix products can round differently with the thread count).

Both replicate studies share one runner: work units of (m, replicate range),
largest m first, run serially or through one process pool per study.  The
layers and the pool class are called through this module's globals, where
perfbench/tracing.py wraps them.
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
from .steplaws import CoefficientVector, parse_law
from .simulate import sample_compound
from .coeffs import (
    EstimatorConfig,
    Variant,
    coefficient_errors,
    observed_noise_tau,
    replicate_observations,
    require_inverse_invariant,
    standard_error,
)
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
]

FitResult = namedtuple("FitResult", ["slope", "intercept", "ci_low", "ci_high"])

_BOOTSTRAP_RESAMPLES = 1000


# ---------------------------------------------------------------------------
# configuration


def _param(default, help=None):
    """A StudyConfig field; `help` is its command-line help text."""
    return field(default=default, metadata={"help": help})


@dataclass
class StudyConfig:
    """Resolved study parameters; every field is echoed into the outputs.

    The fields are the single declaration of a study: each is an INI key of
    the [study] section and a command-line flag, both read by the reader of
    its declared type in FIELD_READERS.
    """

    space: str = _param("circle", "space spec, e.g. circle, torus:2, sphere:2 (default circle)")
    law: str = _param("wn:sigma=0.7", "law spec, e.g. wn:sigma=0.7 or heat:tau=0.3")
    intensity: float = _param(1.0, "Poisson intensity Lambda")
    time: float = _param(1.0, "observation horizon t")
    variant: str = _param("real-log", f"estimator variant ({', '.join(v.value for v in Variant)})")
    delta: float = _param(1.0, "truncation constant")
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
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
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
        return observed_noise_tau(Variant(self.variant), self.noise_tau,
                                  self.observation_noise_tau)

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

    def to_ini_text(self) -> str:
        lines = ["[study]"]
        for f in dataclasses.fields(self):
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


# The reader of each StudyConfig field type, keyed by the annotation as
# written (annotations are postponed here, so a field's type is its text).
FIELD_READERS = {
    "str": str, "str | None": str, "int": int, "float": float, "bool": _bool,
    "float | None": _float_or_none, "tuple[int, ...]": _ints, "tuple[float, ...]": _floats,
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


def fit_rate(points, replicate_errors=None, resamples: int = _BOOTSTRAP_RESAMPLES,
             seed: int = 0) -> FitResult:
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
    slopes = np.empty(resamples)
    if replicate_errors is not None:
        errors = [np.asarray(e, dtype=float) for e in replicate_errors]
        if len(errors) != len(points):
            raise ValueError("one replicate-error array per point is required")
        for b in range(resamples):
            yb = np.empty(len(errors))
            for i, errs in enumerate(errors):
                take = errs[rng.integers(0, errs.size, errs.size)]
                mean = take.mean()
                yb[i] = math.log10(mean) if mean > 0 else ys[i]
            slopes[b] = np.polyfit(xs, yb, 1)[0]
    else:
        n = len(points)
        for b in range(resamples):
            while True:
                pick = rng.integers(0, n, n)
                if np.ptp(xs[pick]) > 0:
                    break
            slopes[b] = np.polyfit(xs[pick], ys[pick], 1)[0]
    lo, hi = np.percentile(slopes, [2.5, 97.5])
    return FitResult(float(slope), float(intercept), float(lo), float(hi))


# ---------------------------------------------------------------------------
# study runners


def _replicate_results(cfg: StudyConfig, fn) -> dict:
    """Per-replicate results at every m, in replicate order: {m: [...]}.

    fn((m, lo, hi)) returns the results of replicates lo..hi-1 at m.  Units
    run largest m first, serially or through one pool; each replicate has its
    own stream, so the results do not depend on threads.
    """
    size = math.ceil(cfg.replicates / cfg.threads)
    units = [(m, lo, min(lo + size, cfg.replicates))
             for m in reversed(cfg.m_grid)
             for lo in range(0, cfg.replicates, size)]
    if cfg.threads > 1:
        with ProcessPoolExecutor(max_workers=cfg.threads) as pool:
            parts = list(pool.map(fn, units))
    else:
        parts = [fn(unit) for unit in units]
    results = {m: [] for m in cfg.m_grid}
    for (m, _, _), part in zip(units, parts):
        results[m].extend(part)
    return results


def _density_replicates(cfg: StudyConfig, law, est_cfg, truth, unit):
    m, lo, hi = unit
    out = []
    for rep, obs in replicate_observations(law, est_cfg, m, cfg.seed, lo, hi,
                                           cfg.data_noise_tau(), sample_compound):
        est = reconstruct(obs, est_cfg, SobolevSpec(cfg.s), cfg.scale)
        err = l2_error(est, truth)
        out.append((err.variance_term, err.bias_term, err.total,
                    est.coeffs if rep == 0 else None))
    return out


def run_convergence_study(cfg: StudyConfig) -> StudyResult:
    """Density-estimation error vs m, with the exact bias/variance split."""
    if len(cfg.m_grid) < 3:
        raise ValueError("m_grid needs at least 3 values for a rate fit")
    space = cfg.space_object()
    law = cfg.law_object()
    est_cfg = cfg.estimator_config()
    require_inverse_invariant(law, est_cfg.variant)

    t_max = smoothing_cutoff(max(cfg.m_grid), cfg.s, space, cfg.scale)
    truth, tail_bound = truth_table(law, t_max)
    notes = [f"truth tail bound beyond coverage: {tail_bound!r}"]
    try:
        snorm = sobolev_norm(truth, space, cfg.s)
    except ValueError as exc:
        snorm = None
        notes.append(f"sobolev norm unavailable: {exc}")

    results = _replicate_results(
        cfg, partial(_density_replicates, cfg, law, est_cfg, truth))
    rows = []
    rep_totals = []
    tables = {}
    for m, triples in results.items():
        cutoff = smoothing_cutoff(m, cfg.s, space, cfg.scale)
        variances = np.array([t[0] for t in triples])
        biases = np.array([t[1] for t in triples])
        totals = np.array([t[2] for t in triples])
        if cfg.emit_coefficients:
            tables[m] = triples[0][3]
        bias_term = float(biases.mean())
        bias_ok = None
        if snorm is not None:
            bias_ok = bool(bias_term <= cutoff ** (-cfg.s) * snorm**2)
        variance_term = float(variances.mean())
        rows.append({
            "m": m,
            "cutoff": cutoff,
            # the emitted total is the exact sum of the emitted components
            "mean_error": variance_term + bias_term,
            "variance_term": variance_term,
            "bias_term": bias_term,
            "stderr": standard_error(totals),
            "bias_bound_ok": bias_ok,
        })
        rep_totals.append(totals)

    fit = fit_rate([(math.log10(r["m"]), math.log10(r["mean_error"])) for r in rows],
                   replicate_errors=rep_totals, seed=cfg.seed)
    reference = -2.0 * cfg.s / (2.0 * cfg.s + space.dim)
    return StudyResult(kind="density", config=cfg, rows=rows, fit=fit,
                       reference=reference, notes=tuple(notes),
                       coefficient_tables=tables)


def _resolve_index(cfg: StudyConfig, space: Space):
    if cfg.index is not None:
        label = tuple(int(v) for v in str(cfg.index).split(";"))
        return make_index(space, label)
    for ix in spectrum(space, 4.0 * space.dim + 1.0):
        if not ix.is_trivial:
            return ix
    raise ValueError("no nontrivial index found")  # unreachable


def _coefficient_replicates(cfg: StudyConfig, law, est_cfg, index, unit):
    m, lo, hi = unit
    return coefficient_errors(law, est_cfg, index, m, hi - lo, cfg.seed,
                              observation_noise_tau=cfg.data_noise_tau(), first_replicate=lo)


def run_coefficient_study(cfg: StudyConfig) -> StudyResult:
    """Per-index coefficient MSE vs m (reference slope -1)."""
    if len(cfg.m_grid) < 3:
        raise ValueError("m_grid needs at least 3 values for a rate fit")
    space = cfg.space_object()
    law = cfg.law_object()
    est_cfg = cfg.estimator_config()
    require_inverse_invariant(law, est_cfg.variant)
    index = _resolve_index(cfg, space)

    results = _replicate_results(
        cfg, partial(_coefficient_replicates, cfg, law, est_cfg, index))
    rows = []
    rep_errors = []
    for m in cfg.m_grid:
        errs = np.array(results[m])
        rows.append({"m": m, "mse": float(errs.mean()), "stderr": standard_error(errs)})
        rep_errors.append(errs)

    notes = []
    if index.is_trivial or all(r["mse"] == 0.0 for r in rows):
        fit = None
        notes.append("all-zero errors (trivial index); rate fit skipped")
    else:
        fit = fit_rate([(math.log10(r["m"]), math.log10(r["mse"])) for r in rows],
                       replicate_errors=rep_errors, seed=cfg.seed)
    return StudyResult(kind="coefficient", config=cfg, rows=rows, fit=fit,
                       reference=-1.0, notes=tuple(notes))


def run_census(space_spec: str, thresholds=None, seed: int = 0) -> StudyResult:
    """Spectral counting: spherical and multiplicity-weighted counts vs T,
    with fitted growth exponents (references r/2 and d/2)."""
    space = parse_space(space_spec)
    cfg = StudyConfig(space=space_spec, seed=seed,
                      **({"thresholds": tuple(thresholds)} if thresholds is not None else {}))
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
                       seed=seed)
    fit_wt = fit_rate(list(zip(log_t, [math.log10(r["count_weighted"]) for r in rows])),
                      seed=seed + 1)
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
    """Emit study.cfg, results/census CSV, plotdata.csv, fit.json (and the
    optional per-m coefficient CSVs and SVG chart).  Deterministic bytes."""
    os.makedirs(outdir, exist_ok=True)
    paths = {}

    cfg_path = os.path.join(outdir, "study.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(result.config.to_ini_text())
    paths["config"] = cfg_path

    if result.kind == "census":
        table_path = os.path.join(outdir, "census.csv")
        _write_csv(table_path, ["threshold", "count_spherical", "count_weighted"],
                   result.rows)
        paths["table"] = table_path
        xs = [math.log10(r["threshold"]) for r in result.rows]
        series = [("spherical", xs, [math.log10(r["count_spherical"]) for r in result.rows]),
                  ("weighted", xs, [math.log10(r["count_weighted"]) for r in result.rows])]
    else:
        table_path = os.path.join(outdir, "results.csv")
        if result.kind == "density":
            header = ["m", "cutoff", "mean_error", "variance_term", "bias_term",
                      "stderr", "bias_bound_ok"]
        else:
            header = ["m", "mse", "stderr"]
        _write_csv(table_path, header, result.rows)
        paths["table"] = table_path
        key = "mean_error" if result.kind == "density" else "mse"
        xs = [math.log10(r["m"]) for r in result.rows]
        series = [("measured", xs, [math.log10(max(r[key], 1e-300)) for r in result.rows])]

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
