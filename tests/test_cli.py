import contextlib
import dataclasses
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from haarprod import AspectConfig, RadialLaw, pipeline
from haarprod.cli import CONFIG_TYPES, DEFAULT_OUT_NAME, main
from haarprod.haar import product_chain
from haarprod.pipeline import ExperimentConfig, collect_sample
from haarprod.stats import ks_radial


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestAnalyticCdf:
    def test_grid_includes_support_endpoint(self, tmp_path):
        out = tmp_path / "cdf.csv"
        rc = main(["analytic-cdf", "--n", "8", "--dims", "4,4", "--grid", "3",
                   "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["t", "cdf", "pdf"]
        assert len(rows) == 3
        t_last, f_last = float(rows[-1][0]), float(rows[-1][1])
        assert t_last == pytest.approx(2**-0.5, rel=1e-15)
        assert f_last == 1.0

    def test_unequal_alpha_has_no_pdf_column(self, tmp_path):
        out = tmp_path / "cdf.csv"
        assert main(["analytic-cdf", "--n", "12", "--dims", "6,8,6",
                     "--grid", "5", "--out", str(out)]) == 0
        header, _ = read_csv(out)
        assert header == ["t", "cdf"]

    def test_degenerate_alpha_rejected(self, tmp_path):
        rc = main(["analytic-cdf", "--n", "8", "--dims", "8,8",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2


class TestSampleEigs:
    def test_schema_and_counts(self, tmp_path):
        out = tmp_path / "eigs.csv"
        rc = main(["sample-eigs", "--n", "16", "--dims", "8,8", "--trials", "3",
                   "--seed", "5", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["trial", "re", "im", "radius", "angle"]
        assert len(rows) == 24
        re, im, r = (np.array([float(row[i]) for row in rows]) for i in (1, 2, 3))
        assert np.max(np.abs(np.hypot(re, im) - np.minimum(r, 1.0))) <= 1e-8

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sample-eigs", "--n", "16", "--dims", "8,8", "--trials", "2", "--seed", "9"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestExactSample:
    def test_alpha_one_unit_circle(self, tmp_path):
        out = tmp_path / "draws.csv"
        rc = main(["exact-sample", "--n", "8", "--dims", "8,8", "--trials", "10",
                   "--seed", "1", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        radii = np.array([float(r[3]) for r in rows])
        assert np.max(np.abs(radii - 1.0)) <= 1e-15

    def test_draws_within_support(self, tmp_path):
        out = tmp_path / "draws.csv"
        assert main(["exact-sample", "--n", "8", "--dims", "4,4", "--trials", "100",
                     "--seed", "2", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        radii = np.array([float(r[3]) for r in rows])
        assert radii.max() <= 2**-0.5 + 1e-15


class TestSeriesCheck:
    def test_residuals_below_tolerance(self, tmp_path):
        out = tmp_path / "series.csv"
        rc = main(["series-check", "--n", "8", "--dims", "4,4,4", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["power", "closed_form", "pipeline", "residual"]
        assert max(float(r[3]) for r in rows) <= 1e-11


class TestVerify:
    def test_report_round_trips_and_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["verify", "--n", "80", "--dims", "40,40", "--trials", "3", "--seed", "3"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        report = json.loads(a.read_text())
        assert report["schema_version"] == 1
        assert report["config"]["dims"] == [40, 40]
        labels = {k["label"] for k in report["ks"]}
        assert labels == {"radial", "angular"}
        assert report["series_check"]["max_residual"] <= 1e-11
        # timings live in the sidecar, not the deterministic report
        meta = json.loads((tmp_path / "a.json.meta.json").read_text())
        assert "wall_clock_s" in meta
        assert "wall_clock_s" not in report

    def test_sidecar_records_the_environment(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["verify", "--n", "16", "--dims", "8,8", "--trials", "1",
                     "--out", str(out)]) == 0
        env = json.loads((tmp_path / "r.json.meta.json").read_text())["environment"]
        assert set(env) == {"numpy", "scipy", "blas", "threads_env", "cpu_count"}
        assert set(env["blas"]) == {"name", "version"}
        assert set(env["threads_env"]) == {
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
        assert env["cpu_count"] >= 1
        assert "environment" not in json.loads(out.read_text())


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(
            {"n": 16, "dims": [8, 8], "trials": 2, "master_seed": 1}))
        out = tmp_path / "eigs.csv"
        rc = main(["sample-eigs", "--config", str(cfgfile), "--trials", "1",
                   "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 8  # flag override wins over the file's trials=2

    def test_missing_dims_is_config_error(self):
        assert main(["sample-eigs", "--n", "8"]) == 2

    def test_invalid_dims_is_config_error(self, tmp_path):
        rc = main(["sample-eigs", "--n", "4", "--dims", "8,8",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        # the series and moment orders are fixed by the program, not config keys
        for key in ["bogus", "series_order", "moment_pmax"]:
            cfgfile = tmp_path / "cfg.json"
            cfgfile.write_text(json.dumps({"n": 8, "dims": [4, 4], key: 1}))
            assert main(["sample-eigs", "--config", str(cfgfile)]) == 2
            [line] = capsys.readouterr().err.splitlines()
            assert line.startswith("haarprod: config error: unknown config keys")
            assert key in line

    def test_config_keys_are_the_experiment_fields(self, tmp_path):
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert set(CONFIG_TYPES) == names
        out = tmp_path / "r.json"
        assert main(["verify", "--n", "16", "--dims", "8,8", "--trials", "2",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert set(report["config"]) == names | {"alphas", "series_order"}

    def test_env_var_sets_default_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HAARPROD_OUT", str(tmp_path))
        assert main(["series-check", "--n", "8", "--dims", "4,4"]) == 0
        assert (tmp_path / "series_check.csv").exists()

    @pytest.mark.parametrize("content", [
        None,  # no file at all
        '{"n": 8, "dims": [4, 4]',
        '{"n": "8", "dims": [4, 4]}',
    ], ids=["missing", "malformed-json", "string-n"])
    def test_bad_config_file_exits_2_with_one_line(self, tmp_path, capsys, content):
        cfgfile = tmp_path / "cfg.json"
        if content is not None:
            cfgfile.write_text(content)
        assert main(["sample-eigs", "--config", str(cfgfile),
                     "--out", str(tmp_path / "x.csv")]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("haarprod: config error: ")


def test_unsorted_middle_dims_run_without_warning(tmp_path, capsys):
    # alpha_1 = 2 is the largest; the middle alphas 1.5, 12/7 are not sorted
    runs = [["analytic-cdf", "--n", "12", "--dims", "6,8,7,6", "--grid", "8"],
            ["verify", "--n", "24", "--dims", "12,16,14,12", "--trials", "1"]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, argv in enumerate(runs):
            assert main(argv + ["--out", str(tmp_path / f"out{i}")]) == 0
    assert capsys.readouterr().err == ""


def assert_one_line_exit_2(argv, capsys, prefix):
    assert main(argv) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(prefix)


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "abc", "--dims", "4,4"],
    ["verify", "--n", "8", "--dims", "4,4", "--delta", "x"],
    ["bogus", "--n", "8", "--dims", "4,4"],
    [],
], ids=["non-integer-n", "non-float-delta", "unknown-mode", "no-mode"])
def test_bad_flag_exits_2_with_one_line(argv, capsys):
    assert_one_line_exit_2(argv, capsys, prefix="haarprod: config error: ")


@pytest.mark.parametrize("where", ["under-a-file", "a-directory"])
@pytest.mark.parametrize("mode", ["verify", "sample-eigs"])
def test_unusable_out_exits_2_with_one_line(tmp_path, capsys, monkeypatch, mode, where):
    calls = []

    def counted_product_chain(*args, **kwargs):
        calls.append(args)
        return product_chain(*args, **kwargs)

    monkeypatch.setattr(pipeline, "product_chain", counted_product_chain)
    regular = tmp_path / "file"
    regular.write_text("")
    out = regular / "out" if where == "under-a-file" else tmp_path
    assert_one_line_exit_2([mode, "--n", "8", "--dims", "4,4", "--trials", "3",
                            "--out", str(out)], capsys, prefix="haarprod: cannot write output: ")
    assert calls == []  # the destination is checked before the first trial
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
    assert not tmp_path.with_name(tmp_path.name + ".tmp").exists()


def _parses(text, kind) -> bool:
    try:
        kind(text)
    except ValueError:
        return False
    return True


VALID_FLAGS = {"--n": "8", "--dims": "4,4", "--trials": "1", "--seed": "0",
               "--delta": "0.01", "--grid": "4"}


def _valid_dims(text) -> bool:
    """The chain rules: k+1 >= 2 sizes in [1, n], the first and last equal and minimal."""
    if not all(_parses(part, int) for part in text.split(",")):
        return False
    dims = [int(part) for part in text.split(",")]
    n = int(VALID_FLAGS["--n"])
    return len(dims) >= 2 and all(1 <= d <= n for d in dims) and dims[0] == dims[-1] == min(dims)


NOT_AN_INT = st.text(max_size=8).filter(lambda t: not _parses(t, int))
INVALID_VALUES = {
    "--n": st.one_of(NOT_AN_INT, st.integers(max_value=0)),
    "--trials": st.one_of(NOT_AN_INT, st.integers(max_value=0)),
    "--seed": st.one_of(NOT_AN_INT, st.integers(max_value=-1), st.integers(min_value=2**64)),
    "--grid": st.one_of(NOT_AN_INT, st.integers(max_value=1)),
    "--delta": st.one_of(st.text(max_size=8).filter(lambda t: not _parses(t, float)),
                         st.floats(max_value=0.0), st.floats(min_value=1.0)),
    "--dims": st.one_of(
        st.text(max_size=12),
        st.lists(st.integers(-2, 12), max_size=5).map(lambda d: ",".join(map(str, d))),
    ).filter(lambda t: not _valid_dims(t)),
}


@given(data=st.data(), mode=st.sampled_from(sorted(DEFAULT_OUT_NAME)),
       flag=st.sampled_from(sorted(INVALID_VALUES)))
@settings(max_examples=200, deadline=None)
def test_every_invalid_flag_exits_2_with_one_line(tmp_path_factory, data, mode, flag):
    flags = dict(VALID_FLAGS, **{flag: data.draw(INVALID_VALUES[flag], label=flag)})
    out = tmp_path_factory.getbasetemp() / "never-written"
    argv = [mode, *(f"{k}={v}" for k, v in flags.items()), f"--out={out}"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(argv) == 2
    [line] = err.getvalue().splitlines()
    assert line.startswith("haarprod: ")
    assert not out.exists()


def fail_on_trial_1(monkeypatch):
    """Make the eigenvalues of trial 1 overflow the unit disk."""
    real = pipeline.eigenvalues
    calls = []

    def radius_overflow_on_trial_1(b, context=""):
        eigs = real(b, context)
        if len(calls) == 1:
            eigs[0] = 1.1
        calls.append(context)
        return eigs

    monkeypatch.setattr(pipeline, "eigenvalues", radius_overflow_on_trial_1)


@pytest.mark.parametrize("mode", ["verify", "sample-eigs"])
def test_numerical_failure_names_seed_and_trial(tmp_path, capsys, monkeypatch, mode):
    fail_on_trial_1(monkeypatch)
    assert main([mode, "--n", "16", "--dims", "8,8", "--trials", "3", "--seed", "4",
                 "--out", str(tmp_path / "out")]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("haarprod: numerical failure: ")
    assert "seed=4" in line and "trial=1" in line


def test_failed_run_keeps_the_earlier_table(tmp_path, monkeypatch):
    out = tmp_path / "eigs.csv"
    args = ["sample-eigs", "--n", "16", "--dims", "8,8", "--trials", "3", "--seed", "4",
            "--out", str(out)]
    assert main(args) == 0
    before = out.read_bytes()
    fail_on_trial_1(monkeypatch)
    assert main(args) == 1
    assert out.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["eigs.csv"]


def test_every_consumer_sees_the_same_draws(tmp_path):
    config = AspectConfig(n=24, dims=(12, 18, 12))
    sample = collect_sample(config, trials=3, master_seed=8)
    args = ["--n", "24", "--dims", "12,18,12", "--trials", "3", "--seed", "8"]

    eigs = tmp_path / "eigs.csv"
    assert main(["sample-eigs", *args, "--out", str(eigs)]) == 0
    _, rows = read_csv(eigs)
    assert np.array_equal(np.array([float(r[3]) for r in rows]), sample.radii)

    report_path = tmp_path / "report.json"
    assert main(["verify", *args, "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    radial = next(r for r in report["ks"] if r["label"] == "radial")
    expected = ks_radial(sample, RadialLaw(config.alphas), report["config"]["delta"])
    assert radial["statistic"] == expected.statistic
    assert radial["sample_size"] == expected.sample_size
    assert report["origin_eigenvalues"] == sample.origin_count
