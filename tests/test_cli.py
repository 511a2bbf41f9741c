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


def test_coeffs_unset_estimator_flags_take_the_header(tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    main(["sample", "--space", "circle", "--law", "wn:sigma=0.7", "--intensity", "2",
          "--count", "200", "--seed", "5", "--out", str(obs)])
    capsys.readouterr()
    outs = []
    for flags in ([], ["--intensity", "2", "--variant", "real-log", "--delta", "1.0"]):
        assert main(["coeffs", "--in", str(obs), "--cutoff", "9", *flags]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    # intensity moves the estimates, so the equality above is not vacuous
    assert main(["coeffs", "--in", str(obs), "--cutoff", "9", "--intensity", "1"]) == 0
    assert capsys.readouterr().out != outs[0]


@pytest.mark.parametrize("cutoff", ["0", "-3", "nan", "inf"])
def test_coeffs_rejects_a_bad_cutoff_by_its_flag(tmp_path, capsys, cutoff):
    obs = tmp_path / "obs.csv"
    main(["sample", "--space", "circle", "--law", "wn:sigma=0.7",
          "--count", "50", "--seed", "3", "--out", str(obs)])
    assert main(["coeffs", "--in", str(obs), "--cutoff", cutoff]) == 2
    assert "--cutoff must be finite and > 0" in capsys.readouterr().err


def test_coeffs_takes_the_cutoff_or_the_scale_not_both(tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    main(["sample", "--space", "circle", "--law", "wn:sigma=0.7",
          "--count", "50", "--seed", "3", "--out", str(obs)])
    capsys.readouterr()
    # an unset --s or --scale takes the StudyConfig default
    outs = []
    for flags in ([], ["--s", "2.0", "--scale", "1.0"]):
        assert main(["coeffs", "--in", str(obs), *flags]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    # --cutoff sets the scale, so a --scale beside it would go unread
    assert main(["coeffs", "--in", str(obs), "--cutoff", "9", "--scale", "3"]) == 2
    err = capsys.readouterr().err
    assert "--cutoff" in err and "--scale" in err


@pytest.mark.parametrize("space, law, count, cutoff, indices", [
    ("circle", "wn:sigma=0.7", 100, "4", 5),  # +-2 sit at kappa = 4
    ("circle", "wn:sigma=0.7", 100, "16", 9),
    ("torus:2", "wn:sigma=0.7", 300, "8", 25),
    ("sphere:2", "heat:tau=0.5", 300, "2", 2),
])
def test_coeffs_cutoff_keeps_the_indices_at_the_cutoff(tmp_path, capsys, space, law, count,
                                                       cutoff, indices):
    # at these (space, m, cutoff) scale * m^p once rounded one ulp below the cutoff
    obs = tmp_path / "obs.csv"
    main(["sample", "--space", space, "--law", law, "--count", str(count), "--out", str(obs)])
    assert main(["coeffs", "--in", str(obs), "--cutoff", cutoff]) == 0
    assert f"cutoff={cutoff} indices={indices} " in capsys.readouterr().out


@pytest.mark.parametrize("index", ["a", "", "1;x"])
def test_study_coeff_rejects_a_bad_index_by_its_field(capsys, index):
    assert main(["study-coeff", "--space", "torus:2", "--law", "wn:sigma=0.7",
                 "--index", index, "--m-grid", "100,200,300", "--replicates", "2"]) == 2
    assert (f"index must be integers separated by ';', got {index!r}"
            in capsys.readouterr().err)


def test_sample_rejects_a_bad_count_by_its_flag(capsys):
    assert main(["sample", "--space", "circle", "--law", "wn:sigma=0.7", "--count", "0"]) == 2
    assert "--count must be >= 1" in capsys.readouterr().err


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
    assert main(["census", "--space", "sphere:2", "--thresholds", "0,100,1000"]) == 2
    assert main(["study-coeff", "--space", "circle", "--law", "wn:sigma=0.7",
                 "--m-grid", "100,300,1000", "--replicates", "5", "--threads", "2",
                 "--observation-noise-tau", "-0.5"]) == 2
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
    # a non-finite study parameter is a config error, not a traceback
    for flag, value in (("--scale", "inf"), ("--s", "nan")):
        assert main(["study-density", "--space", "circle", "--law", "wn:sigma=0.7",
                     "--m-grid", "100,300,1000", "--replicates", "2", flag, value]) == 2
    # the untruncated variant is gone; --delta 0 is the untruncated estimator
    assert main(["study-coeff", "--space", "circle", "--law", "wn:sigma=0.7",
                 "--variant", "real-log-untruncated", "--m-grid", "100,300,1000",
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


def test_exit_code_3_when_every_estimate_is_truncated(tmp_path, capsys):
    # delta / m above |nu| at every m leaves no rate to fit
    out = tmp_path / "coeff"
    code = main(["study-coeff", "--space", "circle", "--law", "wn:sigma=0.7",
                 "--delta", "1e9", "--m-grid", "100,300,1000", "--replicates", "30",
                 "--assert", "--out", str(out)])
    assert code == 3
    assert "every estimate truncated" in capsys.readouterr().out
    fit = json.loads((out / "fit.json").read_text())
    assert fit["fit"]["slope"] is None and fit["passed"] is False


def test_census_config_echoes_only_the_fields_census_reads(tmp_path):
    out = tmp_path / "census"
    assert main(["census", "--space", "sphere:2", "--out", str(out)]) == 0
    lines = (out / "study.cfg").read_text().splitlines()
    assert lines[0] == "[study]"
    assert {line.split(" = ")[0] for line in lines[1:]} == {"space", "thresholds", "seed", "out"}


_REPLICATE_KEYS = {"space", "law", "intensity", "time", "variant", "delta", "noise_tau",
                   "observation_noise_tau", "m_grid", "replicates", "seed", "threads",
                   "emit_svg", "out"}


@pytest.mark.parametrize("verb,extra,keys", [
    ("study-density", ["--s", "2.5"], _REPLICATE_KEYS | {"s", "scale", "emit_coefficients"}),
    ("study-coeff", ["--index", "1"], _REPLICATE_KEYS | {"index"}),
])
def test_rate_study_config_echoes_only_the_fields_it_reads(tmp_path, verb, extra, keys):
    # no thresholds in either; no s, scale or emit_coefficients in a coefficient study
    out = tmp_path / verb
    assert main([verb, "--space", "circle", "--law", "wn:sigma=0.7",
                 "--observation-noise-tau", "0.1", "--m-grid", "100,300,1000",
                 "--replicates", "2", *extra, "--out", str(out)]) == 0
    lines = (out / "study.cfg").read_text().splitlines()
    assert lines[0] == "[study]"
    assert {line.split(" = ")[0] for line in lines[1:]} == keys


@pytest.mark.parametrize("flag", [["--s", "2.0"], ["--scale", "1.0"], ["--emit-coefficients"]])
def test_study_coeff_rejects_the_flags_it_does_not_read(capsys, flag):
    assert main(["study-coeff", "--space", "circle", "--law", "wn:sigma=0.7",
                 "--m-grid", "100,300,1000", "--replicates", "2", *flag]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and flag[0] in err


@pytest.mark.parametrize("argv, prefix", [
    (["--he", "census"], "--he"),
    (["study-density", "--space", "circle", "--m-grid", "100,300,1000", "--rep", "2"], "--rep"),
    (["study-coeff", "--space", "circle", "--m-grid", "100,300,1000", "--replicates", "2",
      "--ind", "1"], "--ind"),
    (["study-coeff", "--space", "circle", "--m-grid", "100,300,1000", "--replicates", "2",
      "--s", "2.0"], "--s"),
    (["census", "--space", "circle", "--thr", "100,1000,10000"], "--thr"),
    (["sample", "--space", "circle", "--law", "wn:sigma=0.7", "--count", "5", "--see", "1"],
     "--see"),
    (["coeffs", "--in", "obs.csv", "--cut", "9"], "--cut"),
])
def test_flags_are_given_whole(capsys, argv, prefix):
    # a prefix of a flag is no flag at all, on the parser and on every verb,
    # so a field added later cannot change what a command line means
    assert main(argv) == 2
    assert f"unrecognized arguments: {prefix}" in capsys.readouterr().err


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
    ("study-coeff", _STUDY_OPTIONS - {"--s", "--scale", "--emit-coefficients"} | {"--index"}),
    ("census", {"-h", "--help", "--space", "--thresholds", "--seed", "--out", "--assert"}),
    ("sample", {"-h", "--help", "--space", "--law", "--intensity", "--time",
                "--noise-tau", "--seed", "--count", "--out"}),
    ("coeffs", {"-h", "--help", "--in", "--variant", "--delta", "--s", "--scale",
                "--cutoff", "--intensity", "--time", "--noise-tau", "--out"}),
])
def test_verb_option_strings(verb, options):
    # the study verbs' flags are the StudyConfig fields their study reads;
    # adding a field must not add a flag to a verb unnoticed
    subs = next(a for a in _build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    got = {o for action in subs.choices[verb]._actions for o in action.option_strings}
    assert got == options
