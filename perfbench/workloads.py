"""The benchmark's three workloads: inputs from a seed, one pass, its checks.

Every workload makes its inputs from the run's seed in `build`, runs the same
inputs in every pass, and checks each pass against the paper's acceptance
criteria and against the first (warm-up) pass, which the run discards from
its timings.  One operation is one replicate estimate or one `reconstruct`;
`ops` gives how many a pass attempts.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
import shutil

import numpy as np

from decompound import cli, density, harness, simulate
from decompound.coeffs import EstimatorConfig
from decompound.density import SobolevSpec, sobolev_norm
from decompound.harness import StudyConfig
from decompound.simulate import ProcessConfig
from decompound.spaces import SpaceKind, make_index, parse_space
from decompound.steplaws import HeatZonal, parse_law

import tracing

M_GRID = (100, 1000, 10_000, 100_000)


def _warm_radial_table(law) -> None:
    """Heat laws build their radial CDF table lazily, on the first draw."""
    if isinstance(law, HeatZonal) and law.space.kind is SpaceKind.SPHERE:
        law.sample_distances(1, np.random.default_rng(0))


class NoisySphereCoeff:
    """C8: coefficient MSE of sphere:2 heat index 2 under heat-blur noise,
    once noise-corrected and once ignoring the noise."""

    name = "noisy-sphere-coeff"
    ops_at = "estimate"
    # The corrected slope's seed-to-seed standard deviation is about 0.073
    # with 20 replicates (24 seeds, one outside -1 +- 0.2), so the slope
    # check gets 40; the plateau check is far from its floor with 20.
    CORRECTED_REPLICATES = 40
    IGNORED_REPLICATES = 20
    NOISE_TAU = 0.3

    def build(self, seed: int, workdir: str) -> dict:
        base = dict(space="sphere:2", law="heat:tau=0.5", index="2", m_grid=M_GRID,
                    threads=1)
        corrected = StudyConfig(**base, variant="noise-corrected",
                                noise_tau=self.NOISE_TAU,
                                replicates=self.CORRECTED_REPLICATES, seed=2 * seed)
        ignored = StudyConfig(**base, variant="real-log",
                              observation_noise_tau=self.NOISE_TAU,
                              replicates=self.IGNORED_REPLICATES, seed=2 * seed + 1)
        law = corrected.law_object()
        _warm_radial_table(law)
        _warm_radial_table(HeatZonal(law.space, tau0=self.NOISE_TAU**2 / 2.0))
        kappa = make_index(law.space, (2,)).casimir
        # C8's plateau: ignoring the blur leaves a bias floor on the MSE
        floor = (1.0 - math.exp(-self.NOISE_TAU**2 * kappa / 2.0)) ** 2 * 0.5
        return {"corrected": corrected, "ignored": ignored, "floor": floor}

    def ops(self, inputs) -> int:
        return len(M_GRID) * (self.CORRECTED_REPLICATES + self.IGNORED_REPLICATES)

    def run(self, inputs):
        return (harness.run_coefficient_study(inputs["corrected"]),
                harness.run_coefficient_study(inputs["ignored"]))

    def check(self, inputs, out, reference) -> list[str]:
        corrected, ignored = out
        problems = []
        for res in out:
            if not all(math.isfinite(r["mse"]) and math.isfinite(r["stderr"])
                       for r in res.rows):
                problems.append(f"non-finite MSE row in {res.config.variant}")
        slope = corrected.fit.slope
        if abs(slope + 1.0) > 0.2:
            problems.append(f"corrected slope {slope:.4f} outside -1 +- 0.2")
        tail = [r["mse"] for r in ignored.rows[-2:]]
        if not all(mse >= inputs["floor"] for mse in tail):
            problems.append(f"ignored-noise MSE {tail} fell below the plateau "
                            f"floor {inputs['floor']:.4f}")
        if reference is not None and [r.rows for r in out] != [r.rows for r in reference]:
            problems.append("study rows differ from the warm-up pass")
        return problems


class FlatDensity:
    """Full reconstruction on torus:2 and torus:3 at m = 1e5: sample,
    reconstruct, exact L2 error against the truth table, render on a grid."""

    name = "flat-density"
    ops_at = None  # the pass itself counts each reconstruct
    CASES = (("torus:2", 128), ("torus:3", 24))  # space, grid points per axis
    M = 100_000
    S = 2.0
    # Allowed variance term, as a multiple of its delta-method expectation.
    # Observations whose walk made no step (probability exp(-t Lambda)) shift
    # every transform value alike, so the per-index errors are strongly
    # correlated and the term is heavy-tailed: over 60 seeds its ratio to the
    # expectation had mean 1.1 and reached 3.8.  Its tail is at most that of
    # a chi-square with one degree of freedom, which exceeds 20 with
    # probability below 1e-5.
    VARIANCE_TOLERANCE = 20.0

    def build(self, seed: int, workdir: str) -> dict:
        cases = []
        for j, (spec, per_axis) in enumerate(self.CASES):
            space = parse_space(spec)
            law = parse_law("wn:sigma=0.5", space)
            axis = 2.0 * math.pi * np.arange(per_axis) / per_axis
            mesh = np.meshgrid(*([axis] * space.dim), indexing="ij")
            grid = np.stack([g.ravel() for g in mesh], axis=1)
            cases.append({"law": law, "grid": grid,
                          "process": ProcessConfig(law=law, seed=2 * seed + j)})
        return {"cases": cases, "estimator": EstimatorConfig(),
                "spec": SobolevSpec(self.S)}

    def ops(self, inputs) -> int:
        return len(self.CASES)

    def run(self, inputs):
        rec = tracing.active()
        out = []
        for case in inputs["cases"]:
            obs = simulate.sample_compound(case["process"], self.M)
            rec.count("ops")
            est = density.reconstruct(obs, inputs["estimator"], inputs["spec"])
            if tracing.reconstruct_failed(est):
                rec.count("ops_failed")
            truth, _ = density.truth_table(case["law"], est.cutoff)
            err = density.l2_error(est, truth)
            values = est.rendered_values(case["grid"])
            out.append((est, truth, err, values))
        return out

    @staticmethod
    def expected_variance(est, law, t_lambda: float) -> float:
        """Delta-method expectation of the variance term.  For the symmetrized
        real-log estimator Var(c_hat(n)) ~ Var(cos n.X) / (m (t Lambda nu(n))^2),
        with Var(cos n.X) = (1 + nu(2n)) / 2 - nu(n)^2 and
        nu(n) = exp(t Lambda (c(n) - 1))."""
        total = 0.0
        for ix in est.coeffs.indices():
            if ix.is_trivial:
                continue
            nu1 = math.exp(t_lambda * (law.coefficient(ix).real - 1.0))
            double = make_index(law.space, tuple(2 * k for k in ix.label))
            nu2 = math.exp(t_lambda * (law.coefficient(double).real - 1.0))
            var_cos = (1.0 + nu2) / 2.0 - nu1 * nu1
            total += ix.multiplicity * var_cos / (est.m * (t_lambda * nu1) ** 2)
        return total

    def check(self, inputs, out, reference) -> list[str]:
        problems = []
        t_lambda = inputs["estimator"].t_lambda
        for case, (est, truth, err, values) in zip(inputs["cases"], out):
            law = case["law"]
            space = law.space
            label = space.spec_string()
            trivial = est.coeffs.indices()[0]
            if not trivial.is_trivial or est.coeffs[trivial] != 1.0:
                problems.append(f"{label}: trivial coefficient is not exactly 1")
            if tracing.reconstruct_failed(est):
                problems.append(f"{label}: non-finite or fully truncated estimate")
            expected = self.expected_variance(est, law, t_lambda)
            if not err.variance_term <= self.VARIANCE_TOLERANCE * expected:
                problems.append(f"{label}: variance term {err.variance_term:.3e} above "
                                f"{self.VARIANCE_TOLERANCE} x its expectation "
                                f"{expected:.3e}")
            # C9: the bias term never exceeds T^-s * ||truth||_s^2
            bound = est.cutoff ** (-self.S) * sobolev_norm(truth, space, self.S) ** 2
            if not err.bias_term <= bound:
                problems.append(f"{label}: bias term {err.bias_term:.3e} above {bound:.3e}")
            if not (np.all(np.isfinite(values)) and values.min() >= 0.0
                    and abs(values.mean() - 1.0) < 1e-9):
                problems.append(f"{label}: rendered values are not a unit-mean density")
        if reference is not None:
            for (est, _, err, _), (ref, _, ref_err, _) in zip(out, reference):
                if est.coeffs.items() != ref.coeffs.items() or err != ref_err:
                    problems.append(f"{est.space.spec_string()}: estimate differs "
                                    "from the warm-up pass")
        return problems


class DensityStudy:
    """C5/C9 through the command line: density studies on the circle and
    sphere:2 with two pool workers, every output emitted, slope bands asserted."""

    name = "density-study"
    ops_at = "reconstruct"
    CASES = (("circle", "wn:sigma=0.55"), ("sphere:2", "heat:tau=0.35"))
    REPLICATES = 30  # the least --assert accepts
    THREADS = 2
    FILES = ("results.csv", "fit.json")

    def build(self, seed: int, workdir: str) -> dict:
        runs = []
        for j, (space, law) in enumerate(self.CASES):
            _warm_radial_table(parse_law(law, parse_space(space)))
            out = os.path.join(workdir, space.replace(":", ""))
            argv = ["study-density", "--space", space, "--law", law, "--s", "2.0",
                    "--m-grid", ",".join(str(m) for m in M_GRID),
                    "--replicates", str(self.REPLICATES), "--seed", str(2 * seed + j),
                    "--out", out, "--emit-svg", "--emit-coefficients", "--assert"]
            runs.append({"argv": argv, "out": out})
        return {"runs": runs}

    def ops(self, inputs) -> int:
        return len(self.CASES) * len(M_GRID) * self.REPLICATES

    def run(self, inputs, threads=THREADS):
        out = []
        for run in inputs["runs"]:
            shutil.rmtree(run["out"], ignore_errors=True)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(run["argv"] + ["--threads", str(threads)])
            files = {}
            for name in self.FILES:
                with open(os.path.join(run["out"], name), "rb") as fh:
                    files[name] = fh.read()
            out.append((code, buf.getvalue(), files))
        return out

    def warmup(self, inputs):
        """The reference pass runs the same studies in one process."""
        return self.run(inputs, threads=1)

    def check(self, inputs, out, reference) -> list[str]:
        problems = []
        for run, (code, text, files) in zip(inputs["runs"], out):
            label = run["argv"][2]
            if code != 0 or "assertion: pass" not in text:
                problems.append(f"{label}: --assert exited {code}")
            lines = files["results.csv"].decode().splitlines()
            header = lines[0].split(",")
            rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
            if not rows or any(r["bias_bound_ok"] != "true" for r in rows):
                problems.append(f"{label}: a row has bias_bound_ok false (C9)")
            if any(not math.isfinite(float(r[k])) for r in rows
                   for k in ("mean_error", "variance_term", "bias_term", "stderr")):
                problems.append(f"{label}: non-finite value in results.csv")
        if reference is not None:
            for run, (_, _, files), (_, _, ref) in zip(inputs["runs"], out, reference):
                for name in self.FILES:
                    if files[name] != ref[name]:
                        problems.append(f"{run['argv'][2]}: {name} differs from the "
                                        "--threads 1 run")
        return problems


WORKLOADS = {w.name: w for w in (NoisySphereCoeff(), FlatDensity(), DensityStudy())}
