"""Command-line entry points and their exit-code contract."""

import argparse
import json

import numpy as np
import pytest

from decompound import DensityEstimate, read_observations
from decompound.cli import _build_parser, main


def test_sample_writes_readable_csv(tmp_path):
    out = tmp_path / "obs.csv"
    code = main(["sample", "--space", "circle", "--law", "wn:sigma=0.7",
                 "--count", "25", "--seed", "4", "--out", str(out)])
    assert code == 0
    obs = read_observations(out)
    assert obs.m == 25
    assert obs.config.seed == 4
    assert obs.config.law.spec_string() == "wn:sigma=0.7,mean=0.0"


def test_sample_stdout(capsys):
    code = main(["sample", "--space", "sphere:2", "--law", "heat:tau=0.5",
                 "--count", "2", "--seed", "1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("# ProcessConfig")
    assert lines[1] == "x1,x2,x3"
    assert len(lines) == 4


def test_sample_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        main(["sample", "--space", "torus:2", "--law", "wn:sigma=0.5",
              "--count", "50", "--seed", "7", "--out", str(path)])
    assert a.read_bytes() == b.read_bytes()


def test_coeffs_one_shot_estimate(tmp_path):
    obs = tmp_path / "obs.csv"
    main(["sample", "--space", "circle", "--law", "wn:sigma=0.7",
          "--count", "500", "--seed", "3", "--out", str(obs)])
    est_path = tmp_path / "est.csv"
    code = main(["coeffs", "--in", str(obs), "--cutoff", "9",
                 "--out", str(est_path)])
    assert code == 0
    meta_path = tmp_path / "est.json"
    assert est_path.exists() and meta_path.exists()
    est = DensityEstimate.from_files(est_path, meta_path)
    assert est.m == 500
    assert est.cutoff == pytest.approx(9.0)
    # trivial coefficient exactly 1, others within the unit ball comfortably
    labels = [ix.label for ix in est.coeffs.indices()]
    assert (0,) in labels and (3,) in labels and (-3,) in labels


def test_coeffs_estimator_defaults_from_header(tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    main(["sample", "--space", "circle", "--law", "heat:tau=0.4",
          "--intensity", "2.0", "--time", "0.5", "--count", "200",
          "--seed", "5", "--out", str(obs)])
    code = main(["coeffs", "--in", str(obs), "--cutoff", "4"])
    assert code == 0
    # the summary line reports the estimate; intensity*time came from the file
    out = capsys.readouterr().out
    assert "cutoff=4" in out


def test_study_density_writes_outputs(tmp_path):
    out = tmp_path / "study"
    code = main(["study-density", "--space", "circle", "--law", "wn:sigma=0.7",
                 "--m-grid", "100,300,1000", "--replicates", "5",
                 "--seed", "1", "--out", str(out), "--emit-svg"])
    assert code == 0
    names = {p.name for p in out.iterdir()}
    assert {"results.csv", "plotdata.csv", "fit.json", "study.cfg",
            "chart.svg"} <= names


def test_study_config_file_with_overrides(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "[study]\n"
        "space = circle\n"
        "law = wn:sigma=0.7\n"
        "m_grid = 100,300,1000\n"
        "replicates = 5\n"
        "seed = 1\n"
    )
    code = main(["study-coeff", "--config", str(cfg), "--replicates", "8"])
    assert code == 0
    out = capsys.readouterr().out
    assert "slope" in out


def test_exit_code_2_on_bad_config(tmp_path):
    assert main(["census", "--space", "klein:2"]) == 2
    # sampling modes are gone; an old study.cfg with a mode key fails loudly
    legacy = tmp_path / "study.cfg"
    legacy.write_text("[study]\nspace = circle\nlaw = wn:sigma=0.7\n"
                      "m_grid = 100,300,1000\nreplicates = 5\nmode = iid\n")
    assert main(["study-density", "--config", str(legacy)]) == 2
    assert main(["study-density", "--space", "circle", "--law", "nope:x=1",
                 "--m-grid", "100,300,1000", "--replicates", "5"]) == 2
    # real-log needs an inverse-invariant law; a shifted wrapped normal is not
    for verb in ("study-density", "study-coeff"):
        assert main([verb, "--space", "circle", "--law", "wn:sigma=0.7,mean=1",
                     "--variant", "real-log", "--m-grid", "100,300,1000",
                     "--replicates", "5"]) == 2
    # acceptance mode requires enough replicates for a meaningful band check
    assert main(["study-coeff", "--space", "circle", "--law", "wn:sigma=0.7",
                 "--m-grid", "100,300,1000", "--replicates", "5",
                 "--assert"]) == 2


def test_exit_code_3_on_failed_assertion(capsys):
    # the trivial index has no rate to fit; under --assert that cannot pass
    code = main(["study-coeff", "--space", "circle", "--law", "wn:sigma=0.7",
                 "--m-grid", "100,300,1000", "--replicates", "30",
                 "--seed", "1", "--index", "0", "--assert"])
    assert code == 3


def test_census_assert_passes(tmp_path, capsys):
    out = tmp_path / "census"
    code = main(["census", "--space", "sphere:2", "--assert",
                 "--out", str(out)])
    assert code == 0
    report = capsys.readouterr().out
    assert "assertion: pass" in report
    fit = json.loads((out / "fit.json").read_text())
    assert fit["passed"] is True
    assert abs(fit["fit"]["slope"] - 0.5) <= 0.1
    assert abs(fit["weighted_fit"]["slope"] - 1.0) <= 0.1


def test_threads_flag_does_not_change_numbers(tmp_path):
    outs = []
    for name, threads in (("one", "1"), ("two", "2")):
        out = tmp_path / name
        main(["study-density", "--space", "circle", "--law", "wn:sigma=0.7",
              "--m-grid", "100,300,1000", "--replicates", "5", "--seed", "1",
              "--threads", threads, "--out", str(out)])
        outs.append(out)
    for fname in ("results.csv", "plotdata.csv", "fit.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


_STUDY_OPTIONS = {
    "-h", "--help", "--config", "--space", "--law", "--intensity", "--time",
    "--variant", "--delta", "--noise-tau", "--observation-noise-tau", "--s",
    "--scale", "--m-grid", "--replicates", "--seed", "--threads",
    "--emit-coefficients", "--emit-svg", "--out", "--assert",
}


@pytest.mark.parametrize("verb,options", [
    ("study-density", _STUDY_OPTIONS),
    ("study-coeff", _STUDY_OPTIONS | {"--index"}),
    ("census", {"-h", "--help", "--space", "--thresholds", "--seed", "--out", "--assert"}),
    ("sample", {"-h", "--help", "--space", "--law", "--intensity", "--time",
                "--noise-tau", "--seed", "--count", "--out"}),
    ("coeffs", {"-h", "--help", "--in", "--variant", "--delta", "--s", "--scale",
                "--cutoff", "--intensity", "--time", "--noise-tau", "--out"}),
])
def test_verb_option_strings(verb, options):
    # the study verbs' flags are derived from StudyConfig; adding a field
    # must not add a flag to a verb unnoticed
    subs = next(a for a in _build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    got = {o for action in subs.choices[verb]._actions for o in action.option_strings}
    assert got == options
