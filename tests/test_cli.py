import contextlib
import dataclasses
import io
import json
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from haarprod import AspectConfig, RadialLaw, pipeline
from haarprod.cli import DEFAULT_OUT_NAME, main
from haarprod.haar import product_chain, trace_moment
from haarprod.pipeline import collect_sample
from haarprod.stats import ks_radial, polar


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestAnalyticCdf:
    def test_grid_includes_support_endpoint(self, tmp_path):
        # alphas (2) and (2, 2, 2): the last row has cdf 1 and pdf 0
        for dims, edge in [("4,4", 2**-0.5), ("4,4,4,4", 2**-1.5)]:
            out = tmp_path / "cdf.csv"
            rc = main(["analytic-cdf", "--n", "8", "--dims", dims, "--grid", "3",
                       "--out", str(out)])
            assert rc == 0
            header, rows = read_csv(out)
            assert header == ["t", "cdf", "pdf"]
            assert len(rows) == 3
            t_last, f_last, pdf_last = (float(x) for x in rows[-1])
            assert t_last == pytest.approx(edge, rel=1e-15)
            assert f_last == 1.0
            assert pdf_last == 0.0

    def test_unequal_alpha_has_no_pdf_column(self, tmp_path):
        out = tmp_path / "cdf.csv"
        assert main(["analytic-cdf", "--n", "12", "--dims", "6,8,6",
                     "--grid", "5", "--out", str(out)]) == 0
        header, _ = read_csv(out)
        assert header == ["t", "cdf"]

    # every mode that builds the analytic law rejects alpha = 1 (dims 8,8 at n = 8)
    @pytest.mark.parametrize("mode", ["analytic-cdf", "series-check", "verify"])
    def test_degenerate_alpha_rejected(self, tmp_path, capsys, monkeypatch, mode):
        calls = count_product_chain(monkeypatch)
        assert_one_line_exit_2(
            [mode, "--n", "8", "--dims", "8,8", "--out", str(tmp_path / "x")], capsys,
            prefix="haarprod: config error: the analytic law requires every alpha")
        assert list(tmp_path.iterdir()) == []
        assert calls == []  # verify rejects the law before the first trial


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
        assert [row[0] for row in rows] == ["0"] * 8 + ["1"] * 8 + ["2"] * 8

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

    def test_one_trial_report_is_strict_json(self, tmp_path):
        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        # the default delta, and subnormal deltas where 2 / delta overflows
        for i, delta in enumerate([[], ["--delta", "1e-310"], ["--delta", "5e-324"]]):
            out = tmp_path / f"r{i}.json"
            assert main(["verify", "--n", "16", "--dims", "8,8", "--trials", "1",
                         *delta, "--out", str(out)]) == 0
            report = json.loads(out.read_text(), parse_constant=reject)
            for row in report["moments"]:
                assert row["std_error"] is None and row["z_score"] is None

    def test_one_svd_per_trial(self, tmp_path, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counted_svd(*args, **kwargs):
            calls.append(args)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        # the trace moments take one SVD per verify trial; sample-eigs takes none
        for mode, svds in (("verify", 3), ("sample-eigs", 0)):
            calls.clear()
            assert main([mode, "--n", "16", "--dims", "8,8", "--trials", "3",
                         "--out", str(tmp_path / f"{mode}.out")]) == 0
            assert len(calls) == svds, mode

    def test_sidecar_records_the_environment(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["verify", "--n", "16", "--dims", "8,8", "--trials", "1",
                     "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "r.json.meta.json").read_text())
        env = meta["environment"]
        assert set(env) == {"numpy", "scipy", "blas", "scipy_blas", "threads_env",
                            "cpu_count"}
        assert set(env["blas"]) == {"name", "version"}
        assert set(env["scipy_blas"]) == {"name", "version"}
        assert set(env["threads_env"]) == {
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
        assert env["cpu_count"] >= 1
        # a process that has imported numpy and scipy holds tens of MB
        assert 10 < meta["peak_rss_mb"] < 1e5
        report = json.loads(out.read_text())
        assert "environment" not in report
        assert "peak_rss_mb" not in report


    def test_numpy_config_is_recorded_as_python_numbers(self, tmp_path):
        out = tmp_path / "r.json"
        cfg = AspectConfig(n=np.int64(8), dims=(np.int32(4), np.uint8(4)),
                           trials=np.int64(1), master_seed=np.uint64(3),
                           delta=np.float32(0.01), grid_points=np.int16(8))
        pipeline.write_verify(cfg, out)
        config = json.loads(out.read_text())["config"]
        assert config["dims"] == [4, 4] and config["delta"] == float(np.float32(0.01))
        assert (config["n"], config["trials"], config["master_seed"],
                config["grid_points"]) == (8, 1, 3, 8)
        assert all(type(getattr(cfg, name)) is int
                   for name in ("n", "trials", "master_seed", "grid_points"))
        assert type(cfg.delta) is float


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
        names = {f.name for f in dataclasses.fields(AspectConfig)}
        out = tmp_path / "r.json"
        assert main(["verify", "--n", "16", "--dims", "8,8", "--trials", "2",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert set(report["config"]) == names | {"alphas", "series_order"}

    def test_env_var_sets_default_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HAARPROD_OUT", str(tmp_path))
        assert main(["series-check", "--n", "8", "--dims", "4,4"]) == 0
        assert (tmp_path / "series_check.csv").exists()

    @pytest.mark.parametrize("content, named", [
        (None, "cannot read config file"),  # no file at all
        ('{"n": 8, "dims": [4, 4]', "cannot read config file"),
        ('{"n": "8", "dims": [4, 4]}', "n must be an integer, got '8'"),
        ('[1, 2]', "must hold a JSON object"),
        ('{"n": 8, "dims": [4.5, 4.5]}', "dims[0] must be an integer, got 4.5"),
        ('{"n": 8, "dims": 4}', "dims must be a sequence of integers, got 4"),
        ('{"n": 8, "dims": [4, 4], "trials": true}', "trials must be an integer, got True"),
        ('{"n": 8, "dims": [4, 4], "delta": "0.01"}', "delta must be a real number"),
        # a string or an object must not be read character by character or key by key
        ('{"n": 40, "dims": "20,20"}', "dims must be a sequence of integers, got '20,20'"),
        ('{"n": 40, "dims": {"a": 20}}', "dims must be a sequence of integers, got {'a': 20}"),
    ], ids=["missing", "malformed-json", "string-n", "not-an-object", "float-dims",
            "scalar-dims", "bool-trials", "string-delta", "string-dims", "object-dims"])
    def test_bad_config_file_exits_2_with_one_line(self, tmp_path, capsys, content, named):
        cfgfile = tmp_path / "cfg.json"
        if content is not None:
            cfgfile.write_text(content)
        assert main(["sample-eigs", "--config", str(cfgfile),
                     "--out", str(tmp_path / "x.csv")]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("haarprod: config error: ") and named in line


def test_unsorted_middle_dims_run_without_warning(tmp_path, capsys):
    # alpha_1 = 2 is the largest; the middle alphas 1.5, 12/7 are not sorted
    runs = [["analytic-cdf", "--n", "12", "--dims", "6,8,7,6", "--grid", "8"],
            ["verify", "--n", "24", "--dims", "12,16,14,12", "--trials", "1"]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, argv in enumerate(runs):
            assert main(argv + ["--out", str(tmp_path / f"out{i}")]) == 0
    assert capsys.readouterr().err == ""


def count_product_chain(monkeypatch) -> list:
    """Record the arguments of every `pipeline.product_chain` call in the returned list."""
    calls = []

    def counted_product_chain(*args, **kwargs):
        calls.append(args)
        return product_chain(*args, **kwargs)

    monkeypatch.setattr(pipeline, "product_chain", counted_product_chain)
    return calls


def assert_one_line_exit_2(argv, capsys, prefix):
    assert main(argv) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(prefix)


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "abc", "--dims", "4,4"],
    ["verify", "--n", "8", "--dims", "4,4", "--delta", "x"],
    ["bogus", "--n", "8", "--dims", "4,4"],
    [],
    ["sample-eigs", "--dims", "4,4"],
    ["exact-sample", "--n", "12", "--dims", "6,8,6"],
    ["verify", "--n", "8", "--dims", "4,4", "stray"],
    ["verify", "--bogus", "3", "--n", "8", "--dims", "4,4"],
    ["sample-eigs", "--n", "8", "--dims", "4,4", "--trials", "0"],
    # sizes no array can hold, rejected before anything is allocated
    ["sample-eigs", "--n", str(10**30), "--dims", "1,1"],
    ["analytic-cdf", "--n", "12", "--dims", "6,6", "--grid", str(10**30)],
    ["exact-sample", "--n", "12", "--dims", "6,6", "--trials", str(10**30)],
    ["analytic-cdf", "--n", str(10**400), "--dims", "1,1"],
    # sizes the record admits, but whose arrays (3.5-6.9 EiB) no machine can allocate
    ["analytic-cdf", "--n", "12", "--dims", "6,6", "--grid", str(5 * 10**17)],
    ["sample-eigs", "--n", str(5 * 10**17), "--dims", "1,1", "--trials", "1"],
    ["exact-sample", "--n", "2", "--dims", "1,1", "--trials", str(5 * 10**17)],
], ids=["non-integer-n", "non-float-delta", "unknown-mode", "no-mode", "missing-n",
        "unequal-exact-sample", "stray-positional", "unknown-flag", "zero-trials", "huge-n",
        "huge-grid", "huge-trials", "overflowing-n", "unallocatable-grid", "unallocatable-n",
        "unallocatable-trials"])
def test_bad_flag_exits_2_with_one_line(argv, capsys, tmp_path, monkeypatch):
    # run where the default output would land, and check that nothing is written
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("HAARPROD_OUT", raising=False)
    assert_one_line_exit_2(argv, capsys, prefix="haarprod: config error: ")
    assert list(tmp_path.iterdir()) == []


# each case: where --out points, and the directory made in the way beforehand
UNUSABLE_OUT = {"under-a-file": ("file/out", None), "a-directory": (".", None),
                "sidecar-a-directory": ("r.json", "r.json.meta.json"),
                "tmp-a-directory": ("r.json", "r.json.tmp"),
                "sidecar-tmp-a-directory": ("r.json", "r.json.meta.json.tmp")}


@pytest.mark.parametrize("mode, where", [
    ("verify", "under-a-file"), ("verify", "a-directory"), ("verify", "sidecar-a-directory"),
    ("verify", "tmp-a-directory"), ("verify", "sidecar-tmp-a-directory"),
    ("sample-eigs", "under-a-file"), ("sample-eigs", "a-directory"),
    ("sample-eigs", "tmp-a-directory"),
])
def test_unusable_out_exits_2_with_one_line(tmp_path, capsys, monkeypatch, mode, where):
    calls = count_product_chain(monkeypatch)
    (tmp_path / "file").write_text("")
    out, in_the_way = UNUSABLE_OUT[where]
    expected = ["file"]
    if in_the_way is not None:
        (tmp_path / in_the_way).mkdir()
        expected.append(in_the_way)
    assert_one_line_exit_2([mode, "--n", "8", "--dims", "4,4", "--trials", "3",
                            "--out", str(tmp_path / out)],
                           capsys, prefix="haarprod: cannot write output: ")
    assert calls == []  # the destination is checked before the first trial
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
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


def fail_on_trial_1(monkeypatch, kind="radius"):
    """Make trial 1 fail: an eigenvalue past the unit disk or NaN, or the eigen-solver or SVD."""
    calls = []
    if kind in ("radius", "nan"):
        real = pipeline.eigenvalues

        def bad_radius_on_trial_1(b):
            eigs = real(b)
            if len(calls) == 1:
                eigs[0] = 1.1 if kind == "radius" else np.nan
            calls.append(b.shape)
            return eigs

        monkeypatch.setattr(pipeline, "eigenvalues", bad_radius_on_trial_1)
    else:
        module, name, message = {
            "eigensolver": (scipy.linalg, "eigvals", "eigenvalues did not converge"),
            "svd": (np.linalg, "svd", "SVD did not converge"),
        }[kind]
        real = getattr(module, name)

        def fails_on_trial_1(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise np.linalg.LinAlgError(message)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, fails_on_trial_1)


RADIUS_MESSAGE = "eigenvalue radius 1.100e+00 exceeds 1 beyond roundoff slack"
NAN_MESSAGE = "eigenvalue radius nan exceeds 1 beyond roundoff slack"


# sample-eigs takes no SVD, so only verify has an svd case
@pytest.mark.parametrize("mode, kind, message", [
    ("verify", "radius", RADIUS_MESSAGE), ("sample-eigs", "radius", RADIUS_MESSAGE),
    ("verify", "nan", NAN_MESSAGE), ("sample-eigs", "nan", NAN_MESSAGE),
    ("verify", "eigensolver", "eigenvalues did not converge"),
    ("sample-eigs", "eigensolver", "eigenvalues did not converge"),
    ("verify", "svd", "SVD did not converge"),
], ids=["verify", "sample-eigs", "verify-nan", "sample-eigs-nan", "verify-eigensolver",
        "sample-eigs-eigensolver", "verify-svd"])
def test_numerical_failure_names_seed_and_trial(tmp_path, capsys, monkeypatch, mode, kind,
                                                message):
    fail_on_trial_1(monkeypatch, kind)
    assert main([mode, "--n", "16", "--dims", "8,8", "--trials", "3", "--seed", "4",
                 "--out", str(tmp_path / "out")]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == f"haarprod: numerical failure: {message} (seed=4 trial=1)"


@pytest.mark.parametrize("slacks, code, err", [
    (0.5, 0, ""),
    (2.0, 1, "haarprod: numerical failure: eigenvalue radius 1.000e+00 exceeds 1 "
             "beyond roundoff slack (seed=4 trial=0)\n"),
], ids=["within-slack", "past-slack"])
def test_radius_roundoff_slack(tmp_path, capsys, monkeypatch, slacks, code, err):
    # every trial's largest radius is 1 + slacks * RADIUS_SLACK
    real = pipeline.eigenvalues

    def with_radius(b):
        eigs = real(b)
        eigs[0] = 1.0 + slacks * pipeline.RADIUS_SLACK
        return eigs

    monkeypatch.setattr(pipeline, "eigenvalues", with_radius)
    assert main(["sample-eigs", "--n", "16", "--dims", "8,8", "--trials", "2", "--seed", "4",
                 "--out", str(tmp_path / "eigs.csv")]) == code
    assert capsys.readouterr().err == err


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


def test_write_table_bytes(tmp_path):
    p = tmp_path / "t.csv"
    reals = [0.1, 1 / 3, 1e-300]
    pipeline.write_table(p, {"i": np.arange(3), "x": reals})
    assert p.read_bytes() == b"i,x\n0,0.10000000000000001\n1,0.33333333333333331\n2,1e-300\n"
    _, rows = read_csv(p)
    assert [float(row[1]) for row in rows] == reals


def test_write_table_matches_row_by_row_format_across_blocks(tmp_path):
    # 2 full blocks of 1024 rows and a partial one, against one % per row
    rng = np.random.default_rng(3)
    x = rng.standard_normal(2500) * 10.0 ** rng.integers(-300, 300, 2500)
    cols = {"i": np.arange(2500), "x": x, "y": np.linspace(0.0, 1.0, 2500)}
    p = tmp_path / "t.csv"
    pipeline.write_table(p, cols)
    rows = "".join("%d,%.17g,%.17g\n" % row for row in zip(*cols.values()))
    assert p.read_text(encoding="utf-8") == "i,x,y\n" + rows
    pipeline.write_table(p, {"i": np.arange(0), "x": np.zeros(0)})
    assert p.read_text(encoding="utf-8") == "i,x\n"


def test_write_table_failure_while_formatting_keeps_the_earlier_file(tmp_path):
    p = tmp_path / "t.csv"
    pipeline.write_table(p, {"x": [0.5]})
    before = p.read_bytes()
    with pytest.raises(TypeError):  # "%.17g" of a string fails on the first block
        pipeline.write_table(p, {"x": np.array(["a", "b"])})
    assert p.read_bytes() == before
    assert sorted(q.name for q in tmp_path.iterdir()) == ["t.csv"]


def test_write_table_rejects_unequal_columns(tmp_path):
    p = tmp_path / "t.csv"
    for columns in ({"i": np.arange(3), "x": [0.5]}, {"i": np.arange(0), "x": [0.5]}):
        with pytest.raises(ValueError):
            pipeline.write_table(p, columns)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("consumer", [pipeline.run_verify, collect_sample],
                         ids=["run_verify", "collect_sample"])
def test_holds_one_trial_at_a_time(consumer):
    # A trial's matrices live inside pipeline.trial_spectrum and die when it
    # returns.  A B kept through the next trial's draw put 3 trials at 1.64x
    # one trial at k = 1 (B is a view that holds the whole 600 x 300 Q) and at
    # 1.23x at k = 2 (a 300 x 300 product).
    def peak(config):
        consumer(config)  # first calls may allocate caches
        tracemalloc.start()
        try:
            consumer(config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for dims in ((300, 300), (300, 400, 300)):
        config = AspectConfig(n=600, dims=dims, trials=1, master_seed=22)
        assert peak(dataclasses.replace(config, trials=3)) <= 1.05 * peak(config), dims


def test_every_consumer_sees_the_same_draws(tmp_path):
    config = AspectConfig(n=24, dims=(12, 18, 12), trials=3, master_seed=8)
    pooled, no_moments = collect_sample(config)
    assert no_moments is None
    # a trial's draw does not depend on how many trials follow it
    assert np.array_equal(collect_sample(dataclasses.replace(config, trials=2))[0], pooled[:24])
    _, table = collect_sample(config, pipeline.MOMENT_PMAX)
    for t in range(config.trials):
        eigs, moments = pipeline.trial_spectrum(config, t, 0)
        assert moments is None
        assert np.array_equal(eigs, pooled[12 * t:12 * (t + 1)])
        _, moments = pipeline.trial_spectrum(config, t, pipeline.MOMENT_PMAX)
        assert np.array_equal(moments, trace_moment(product_chain(config, t),
                                                    pipeline.MOMENT_PMAX))
        assert np.array_equal(moments, table[t])
    args = ["--n", "24", "--dims", "12,18,12", "--trials", "3", "--seed", "8"]

    eigs = tmp_path / "eigs.csv"
    assert main(["sample-eigs", *args, "--out", str(eigs)]) == 0
    _, rows = read_csv(eigs)
    assert np.array_equal(np.array([float(r[3]) for r in rows]), polar(pooled)[0])

    report_path = tmp_path / "report.json"
    assert main(["verify", *args, "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    radial = next(r for r in report["ks"] if r["label"] == "radial")
    expected = ks_radial(pooled, RadialLaw(config.alphas), report["config"]["delta"])
    assert radial["statistic"] == expected.statistic
    assert radial["sample_size"] == expected.sample_size
    assert report["origin_eigenvalues"] == int(np.count_nonzero(pooled == 0))
    for p, row in enumerate(report["moments"], start=1):
        assert row["empirical_mean"] == table[:, p - 1].mean()
