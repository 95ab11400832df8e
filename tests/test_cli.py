import dataclasses
import json
import math

import numpy as np
import pytest

from endosurv import cli
from endosurv import design as dz
from endosurv import inference as inf
from endosurv import optimizer as op
from endosurv import simulate as sim
from endosurv.errors import ConfigurationError, IngestionError, InferenceError


def write_sim_csv(path, n=350, seed=0, **kw):
    config = sim.DgpConfig(n=n, monotone_J=6, **kw)
    data = sim.generate(config, seed=seed)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("unemp.dur,status,agree,age,bonus\n")
        for i in range(data.n):
            fh.write(f"{float(data.time[i])!r},{int(data.status[i])},"
                     f"{int(data.treatment[i])},{float(data.covariates['x'][i])!r},"
                     f"{int(data.covariates['w'][i])}\n")
    return data


def write_config(path, data_path, out_dir, extra=""):
    path.write_text(f"""
# joint model configuration
data = {data_path}
time = unemp.dur
status = status
treatment = agree
out_dir = {out_dir}
seed = 7
draws = 30
grid_points = 12

outcome_term = monotone J=6
outcome_term = linear:age
outcome_term = treatment

selection_term = linear:age
selection_term = ridge:bonus
{extra}
""")


# --------------------------------------------------------------------------
# ingestion
# --------------------------------------------------------------------------

def test_ingest_three_row_toy(tmp_path):
    p = tmp_path / "toy.csv"
    p.write_text("unemp.dur,status,agree,age\n1.5,1,0,30\n2.5,0,1,40\n3.5,1,1,50\n")
    data = cli.ingest(str(p), "unemp.dur", "status", "agree")
    assert data.n == 3
    assert np.array_equal(data.covariates["age"], [30.0, 40.0, 50.0])


def test_ingest_hie_style_columns(tmp_path):
    p = tmp_path / "hie.csv"
    header = "agree,bonus,unemp.dur,status,age,prearn,benefit,gender,ethnicity"
    lines = [header]
    rng = np.random.default_rng(0)
    for i in range(25):
        lines.append(",".join(map(str, [
            rng.integers(0, 2), rng.integers(0, 2),
            round(rng.uniform(1, 26), 3), rng.integers(0, 2),
            rng.integers(20, 55), round(rng.uniform(500, 3000), 2),
            rng.integers(50, 200), rng.integers(0, 2), rng.integers(0, 2)])))
    p.write_text("\n".join(lines) + "\n")
    data = cli.ingest(str(p), "unemp.dur", "status", "agree")
    assert data.n == 25
    assert set(data.covariates) == {"bonus", "age", "prearn", "benefit",
                                    "gender", "ethnicity"}


def test_ingest_bad_status_names_row(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("unemp.dur,status,agree\n1.0,1,0\n2.0,2,1\n")
    with pytest.raises(IngestionError, match="row 2"):
        cli.ingest(str(p), "unemp.dur", "status", "agree")


def test_ingest_nonpositive_time_and_missing(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("unemp.dur,status,agree\n-1.0,1,0\n")
    with pytest.raises(IngestionError, match="row 1"):
        cli.ingest(str(p), "unemp.dur", "status", "agree")
    p.write_text("unemp.dur,status,agree\n1.0,1,\n")
    with pytest.raises(IngestionError, match="missing"):
        cli.ingest(str(p), "unemp.dur", "status", "agree")


@pytest.mark.parametrize("rows, got", [("0.0,1,0", "got '0.0'"),
                                       ("1.0,2.0,0", "got '2.0'"),
                                       ("1.0,1,0.5", "got '0.5'")])
def test_ingest_error_quotes_the_field_as_written(tmp_path, rows, got):
    p = tmp_path / "bad.csv"
    p.write_text("unemp.dur,status,agree\n1.5,1,0\n" + rows + "\n")
    with pytest.raises(IngestionError, match="row 2") as err:
        cli.ingest(str(p), "unemp.dur", "status", "agree")
    assert got in str(err.value) and "np.float64" not in str(err.value)


@pytest.mark.parametrize("header", ["unemp.dur,status,agree,age,age",
                                    "unemp.dur,status,agree,age,unemp.dur"])
def test_repeated_header_column_exit_code(tmp_path, capsys, header):
    data_path = tmp_path / "d.csv"
    data_path.write_text(header + "\n" + "\n".join(
        f"{1.0 + i},{i % 2},{(i // 2) % 2},{30 + i},{40 + i}"
        for i in range(40)) + "\n")
    cfg = tmp_path / "c.cfg"
    write_config(cfg, data_path, tmp_path / "o")
    assert cli.main(["fit", "--config", str(cfg)]) == 3
    column = header.rsplit(",", 1)[1]
    assert f"column {column!r} appears twice" in capsys.readouterr().err


HEADER = "unemp.dur,status,agree,age,bonus\n"


@pytest.mark.parametrize("text, message", [
    pytest.param("", "is empty", id="empty-file"),
    pytest.param(HEADER, "contains no data rows", id="header-only"),
    pytest.param(HEADER + "1.5,1,0,30,1\n2.5,0,1,40\n",
                 "row 2: expected 5 fields, got 4", id="short-row"),
    pytest.param("unemp.dur,agree,age,bonus\n1.5,0,30,1\n",
                 "unknown column 'status'", id="missing-role-column"),
    pytest.param(HEADER + "soon,1,0,30,1\n",
                 "row 1: column 'unemp.dur' has non-numeric value 'soon'",
                 id="non-numeric-time"),
    pytest.param(HEADER + "1.5,1,0,30,1\n2.5,0,1,inf,0\n",
                 "row 2: column 'age' is not finite", id="infinite-covariate"),
])
def test_ingest_error_exit_code(tmp_path, capsys, text, message):
    data_path = tmp_path / "d.csv"
    data_path.write_text(text)
    cfg = tmp_path / "c.cfg"
    write_config(cfg, data_path, tmp_path / "o")
    assert cli.main(["fit", "--config", str(cfg)]) == 3
    assert message in capsys.readouterr().err


def test_ingest_records_level_map(tmp_path):
    p = tmp_path / "cat.csv"
    p.write_text("unemp.dur,status,agree,eth\n1.0,1,0,white\n2.0,0,1,black\n"
                 "3.0,1,1,white\n")
    data = cli.ingest(str(p), "unemp.dur", "status", "agree")
    assert data.level_maps["eth"] == {"black": 0.0, "white": 1.0}
    assert np.array_equal(data.covariates["eth"], [1.0, 0.0, 1.0])


# --------------------------------------------------------------------------
# config parsing
# --------------------------------------------------------------------------

def test_config_unknown_key_fails_before_data(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("data = nonexistent.csv\ntime = t\nstatus = s\n"
                   "treatment = d\nbogus_key = 1\noutcome_term = monotone\n")
    assert cli.main(["fit", "--config", str(cfg)]) == 2


def test_python_dash_m_runs_the_cli(tmp_path):
    # `python -m endosurv` from a checkout, with no installed script
    import os
    import pathlib
    import subprocess
    import sys

    cfg = tmp_path / "bad.cfg"
    cfg.write_text("data = nonexistent.csv\ntime = t\nstatus = s\n"
                   "treatment = d\nbogus_key = 1\noutcome_term = monotone\n")
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "endosurv", "fit", "--config",
                           str(cfg)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 2
    assert "bogus_key" in done.stderr and "Traceback" not in done.stderr


@pytest.mark.parametrize("J", [1, 2, 1001])
def test_extreme_smooth_J_exit_code(tmp_path, capsys, J):
    # 1100 distinct ages: the radial centres cap K at 1000, below J = 1001
    data_path = tmp_path / "d.csv"
    write_sim_csv(data_path, n=1100)
    cfg = tmp_path / "c.cfg"
    write_config(cfg, data_path, tmp_path / "o")
    cfg.write_text(cfg.read_text().replace(
        "outcome_term = linear:age", f"outcome_term = smooth:age J={J}", 1))
    assert cli.main(["fit", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "3 <= J <= K=1000" in err and "Traceback" not in err


@pytest.mark.parametrize("key,value", [("monotone_j", "10"), ("jobs", "2")])
def test_config_rejects_keys_it_would_ignore(tmp_path, capsys, key, value):
    # the monotone J belongs on its term and jobs to `simulate --jobs`;
    # a config key is honoured or rejected, never dropped
    cfg = tmp_path / "c.cfg"
    cfg.write_text("data = nonexistent.csv\ntime = t\nstatus = s\n"
                   f"treatment = d\n{key} = {value}\noutcome_term = monotone\n")
    with pytest.raises(ConfigurationError, match=f"line 5: unknown config key '{key}'"):
        cli.parse_config(str(cfg))
    assert cli.main(["fit", "--config", str(cfg)]) == 2
    assert "line 5" in capsys.readouterr().err


BAD_NUMBERS = [("draws", "abc"), ("draws", "-3"), ("draws", "2.5"),
               ("level", "3"), ("level", "0"), ("level", "nan"),
               ("grid_points", "-1"), ("grid_points", "0"),
               ("seed", "abc"), ("seed", "-1"),
               ("sate_week", "soon"), ("sate_week", "inf"),
               ("lambda_fixed", "-5"), ("lambda_fixed", "1,nan"),
               ("lambda_fixed", "1,x"),
               ("group", "w=abc"), ("outcome_term", "monotone J=six"),
               ("fit_univariate", "flase")]


def rejection(key):
    """What the error for a bad ``key`` says after naming its line."""
    if key in ("monotone_j", "jobs"):
        return f"unknown config key '{key}'"
    return f"{'J' if 'term' in key else key} must be"


@pytest.mark.parametrize("key,value", BAD_NUMBERS)
def test_config_rejects_bad_numbers(tmp_path, capsys, key, value):
    # each used to end in a traceback, a late error, a fit run to the
    # iteration cap or (draws = -3, fit_univariate = flase) a silent answer
    cfg = tmp_path / "c.cfg"
    cfg.write_text("data = nonexistent.csv\ntime = t\nstatus = s\n"
                   f"treatment = d\n{key} = {value}\noutcome_term = monotone\n")
    with pytest.raises(ConfigurationError, match=f"line 5: {rejection(key)}"):
        cli.parse_config(str(cfg))
    assert cli.main(["fit", "--config", str(cfg)]) == 2
    assert "line 5" in capsys.readouterr().err


def test_config_rejects_repeated_key(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("data = nonexistent.csv\ntime = t\nstatus = s\n"
                   "draws = 3\ntreatment = d\noutcome_term = monotone\n"
                   "draws = 7\n")
    with pytest.raises(ConfigurationError,
                       match="line 7: draws is already set on line 4"):
        cli.parse_config(str(cfg))
    assert cli.main(["fit", "--config", str(cfg)]) == 2
    assert "line 7" in capsys.readouterr().err
    # JSON keeps the last of a repeated key unless the reader refuses it
    manifest = tmp_path / "manifest.json"
    manifest.write_text('{"config": {"data": "x.csv", "time": "t", "status": "s",'
                        ' "treatment": "d", "outcome_terms": ["monotone"],'
                        ' "draws": 3, "draws": 7}}')
    with pytest.raises(ConfigurationError, match="draws is given twice"):
        cli.parse_config(str(manifest))
    assert cli.main(["fit", "--config", str(manifest)]) == 2


@pytest.mark.parametrize("key,value", [
    ("draws", "abc"), ("draws", -3), ("draws", 2.5), ("level", 3.0),
    ("grid_points", -1), ("seed", "abc"), ("sate_week", float("inf")),
    ("lambda_fixed", [1.0, -5.0]),
    ("monotone_j", 12), ("jobs", 4), ("fit_univariate", "maybe"),
    ("group", {"w": "abc"}), ("outcome_terms", ["monotone J=six"]),
    ("lambda_fixed", [[1.0, 1.0, 1.0]])])
def test_manifest_rejects_bad_numbers(tmp_path, capsys, key, value):
    config = {"data": "nonexistent.csv", "time": "t", "status": "s",
              "treatment": "d", "outcome_terms": ["monotone"],
              "selection_terms": [], key: value}
    text = json.dumps({"tool": "endosurv", "config": config}, indent=2)
    line = next(i for i, s in enumerate(text.splitlines(), start=1)
                if s.strip().startswith(f'"{key}"'))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(text)
    with pytest.raises(ConfigurationError, match=f"line {line}: {rejection(key)}"):
        cli.parse_config(str(manifest))
    assert cli.main(["fit", "--config", str(manifest)]) == 2
    assert f"line {line}" in capsys.readouterr().err


def test_command_line_overrides_are_checked(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("data = nonexistent.csv\ntime = t\nstatus = s\n"
                   "treatment = d\noutcome_term = monotone\n")
    assert cli.main(["fit", "--config", str(cfg), "--seed", "-1"]) == 2
    assert "--seed: seed must be" in capsys.readouterr().err
    assert cli.main(["sate", "--config", str(cfg), "--sate-week", "nan"]) == 2
    assert "--sate-week: sate_week must be" in capsys.readouterr().err
    # both used to end in a ValueError traceback (exit 1)
    assert cli.main(["sate", "--config", str(cfg), "--group", "noeq"]) == 2
    assert "--group: group must be" in capsys.readouterr().err
    assert cli.main(["curves", "--config", str(cfg), "--group", "w=abc"]) == 2
    assert "--group: group must be" in capsys.readouterr().err


def test_config_rejects_repeated_group_column(tmp_path, capsys):
    # the second line used to overwrite the first silently
    cfg = tmp_path / "c.cfg"
    cfg.write_text("data = nonexistent.csv\ntime = t\nstatus = s\n"
                   "treatment = d\noutcome_term = monotone\ngroup = w=1\n"
                   "group = w=0\n")
    with pytest.raises(ConfigurationError,
                       match="line 7: group column 'w' is already set on line 6"):
        cli.parse_config(str(cfg))
    assert cli.main(["fit", "--config", str(cfg)]) == 2
    assert "line 7" in capsys.readouterr().err
    # different columns accumulate, and a --group flag still overrides
    cfg.write_text("data = nonexistent.csv\ntime = t\nstatus = s\n"
                   "treatment = d\noutcome_term = monotone\ngroup = w=1\n"
                   "group = x=2\n")
    assert cli.parse_config(str(cfg)).group == {"w": 1.0, "x": 2.0}
    flag = [("group", ["w=0"], "--group")]
    assert cli.parse_config(str(cfg), flag).group == {"w": 0.0, "x": 2.0}
    with pytest.raises(ConfigurationError, match="--group: group column 'w' is given twice"):
        cli.parse_config(str(cfg), [("group", ["w=0", "w=3"], "--group")])


def test_lambda_fixed_for_univariate_fit_checked_before_data(tmp_path,
                                                             monkeypatch, capsys):
    # the joint model has two penalties, the outcome-only fit one; this used
    # to run the joint fit, write manifest.json and only then exit 2
    out = tmp_path / "o"
    cfg = tmp_path / "c.cfg"
    write_config(cfg, tmp_path / "d.csv", out,
                 "fit_univariate = true\nlambda_fixed = 1,2")

    def no_reading(*args):
        raise AssertionError("data read before the config was checked")

    monkeypatch.setattr(cli, "ingest", no_reading)
    assert cli.main(["fit", "--config", str(cfg)]) == 2
    assert "lambda_fixed has 2 entries" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["0", "-2"])
def test_simulate_jobs_checked(tmp_path, capsys, flag):
    argv = ["simulate", "--n", "250", "--replicates", "1",
            "--out", str(tmp_path / "study"), "--jobs", flag]
    assert cli.main(argv) == 2
    assert "--jobs: jobs must be an integer >= 1" in capsys.readouterr().err
    assert not (tmp_path / "study").exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "-5", "--replicates", "1", "--out", "{out}"],
    ["simulate", "--n", "0", "--emit-data", "{out}/d.csv"],
    ["check", "--n", "-1"]])
def test_sample_size_checked(tmp_path, capsys, argv):
    # n < 0 used to end in a "negative dimensions" ValueError traceback, and
    # --n 0 --emit-data wrote a header-only CSV and exited 0
    out = tmp_path / "out"
    assert cli.main([arg.format(out=out) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert "n must be an integer >= 1" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--emit-data", "{out}/d.csv", "--seed", "-1"],
    ["simulate", "--replicates", "1", "--n", "50", "--out", "{out}",
     "--seed", "-1"],
    ["check", "--seed", "-1"]], ids=["emit-data", "study", "check"])
def test_negative_seed_checked(tmp_path, capsys, argv):
    # numpy's generator rejected -1 with a ValueError traceback, and a study
    # reported "no replicate produced a converged fit"
    out = tmp_path / "out"
    assert cli.main([arg.format(out=out) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert "--seed: seed must be an integer >= 0" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_simulate_rejects_nonfinite_coefficient(tmp_path, capsys, value):
    # checked before any data is made or any replicate fitted
    out = tmp_path / "study"
    argv = ["simulate", "--n", "250", "--beta-d", value, "--replicates", "2",
            "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "beta_d must be finite" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_text_and_manifest_parse_to_equal_configs(tmp_path):
    text = tmp_path / "c.cfg"
    write_config(text, "d.csv", "out", "sate_week = 2.5\ngroup = bonus=1\n"
                 "fit_univariate = no\nlambda_fixed = 1,0.5")
    # the manifest spells the boolean and the group filter as text
    config = {"data": "d.csv", "time": "unemp.dur", "status": "status",
              "treatment": "agree", "out_dir": "out", "seed": 7, "draws": 30,
              "grid_points": 12,
              "outcome_terms": ["monotone J=6", "linear:age", "treatment"],
              "selection_terms": ["linear:age", "ridge:bonus"],
              "sate_week": 2.5, "group": ["bonus=1"],
              "fit_univariate": "false", "lambda_fixed": [1, 0.5]}
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"tool": "endosurv", "config": config}))
    parsed = cli.parse_config(str(text))
    assert parsed == cli.parse_config(str(manifest))
    assert parsed.group == {"bonus": 1.0} and parsed.fit_univariate is False
    # a run's own manifest reads back to the same config
    cli.write_json(str(manifest), {"config": dataclasses.asdict(parsed)})
    assert cli.parse_config(str(manifest)) == parsed


def test_byte_order_mark_is_dropped(tmp_path):
    # a UTF-8 byte-order mark used to become part of the first CSV column's
    # name and of the first config key, and to hide a manifest's "{"
    bom = "\ufeff".encode("utf-8")
    text = tmp_path / "c.cfg"
    write_config(text, "d.csv", "out")
    manifest = tmp_path / "manifest.json"
    cli.write_json(str(manifest),
                   {"config": dataclasses.asdict(cli.parse_config(str(text)))})
    csv = tmp_path / "d.csv"
    csv.write_text("unemp.dur,status,agree,age\n1.5,1,0,30\n2.5,0,1,40\n")
    plain = (cli.parse_config(str(text)), cli.parse_config(str(manifest)),
             cli.ingest(str(csv), "unemp.dur", "status", "agree"))
    for path in (text, manifest, csv):
        path.write_bytes(bom + path.read_bytes())
    assert cli.parse_config(str(text)) == plain[0]
    assert cli.parse_config(str(manifest)) == plain[1]
    data = cli.ingest(str(csv), "unemp.dur", "status", "agree")
    assert np.array_equal(data.time, plain[2].time)
    assert np.array_equal(data.covariates["age"], plain[2].covariates["age"])


def test_config_term_parsing():
    t = cli._parse_term("smooth:age J=12")
    assert t.kind == "smooth" and t.column == "age" and t.J == 12
    t = cli._parse_term("interaction:gender")
    assert t.column == "gender"
    with pytest.raises(ConfigurationError):
        cli._parse_term("smooth")
    with pytest.raises(ConfigurationError):
        cli._parse_term("monotone K=3")
    with pytest.raises(ConfigurationError,
                       match="line 3: unknown term kind 'spline'"):
        cli._parse_term("spline:age", "line 3")


def test_ridge_on_a_continuous_column_exit_code(tmp_path, capsys):
    # one indicator per distinct value would be one per row: refused
    # before any fit, so no output is written
    write_sim_csv(tmp_path / "d.csv", n=350)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"data = {tmp_path / 'd.csv'}\ntime = unemp.dur\n"
                   f"status = status\ntreatment = agree\n"
                   f"out_dir = {tmp_path / 'out'}\noutcome_term = monotone\n"
                   "outcome_term = treatment\nselection_term = ridge:age\n")
    assert cli.main(["fit", "--config", str(cfg)]) == 2
    assert "ridge(age) has 350 levels" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_role_column_clash(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("data = d.csv\ntime = t\nstatus = s\ntreatment = d\n"
                   "outcome_term = monotone\noutcome_term = treatment\n"
                   "outcome_term = linear:s\nselection_term = linear:x\n")
    with pytest.raises(ConfigurationError, match="role"):
        cli.build_model_spec(cli.parse_config(str(cfg)))
    # one column in two roles, found before the data file (absent) is read
    cfg.write_text("data = d.csv\ntime = t\nstatus = d\ntreatment = d\n"
                   "outcome_term = monotone\noutcome_term = treatment\n"
                   "selection_term = linear:x\n")
    with pytest.raises(ConfigurationError, match="three different columns"):
        cli.build_model_spec(cli.parse_config(str(cfg)))
    assert cli.main(["fit", "--config", str(cfg)]) == 2


def test_unidentified_terms_fail_before_data(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("data = nonexistent.csv\ntime = t\nstatus = s\n"
                   "treatment = d\noutcome_term = monotone\n"
                   "outcome_term = treatment\noutcome_term = linear:x\n"
                   "outcome_term = smooth:x J=6\nselection_term = linear:x\n")
    assert cli.main(["fit", "--config", str(cfg)]) == 2
    assert "more than once as linear: or smooth:" in capsys.readouterr().err


# --------------------------------------------------------------------------
# end-to-end pipeline
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fit_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data_path = root / "sim.csv"
    write_sim_csv(str(data_path), n=350, seed=1)
    cfg = root / "model.cfg"
    out = root / "out"
    write_config(cfg, data_path, out)
    code = cli.main(["fit", "--config", str(cfg)])
    assert code == 0
    return root, cfg, out


def test_fit_writes_outputs(fit_run):
    _, _, out = fit_run
    for name in ("summary.json", "curves.tsv", "sate.tsv", "manifest.json"):
        assert (out / name).exists()
    payload = json.loads((out / "summary.json").read_text())
    assert payload["converged"] is True
    assert "rho" in payload
    assert {r["name"] for r in payload["terms"]} >= {"intercept", "treatment",
                                                     "mono(time)"}


def test_curves_non_increasing(fit_run):
    _, _, out = fit_run
    lines = (out / "curves.tsv").read_text().strip().splitlines()[1:]
    by_group = {}
    for line in lines:
        t, group, est, lo, hi = line.split("\t")
        by_group.setdefault(group, []).append((float(t), float(est)))
    assert set(by_group) == {"treated", "control"}
    for pts in by_group.values():
        est = [e for _, e in sorted(pts)]
        assert all(b - a <= 1e-12 for a, b in zip(est, est[1:]))


def test_manifest_replay_byte_identical(fit_run):
    root, _, out = fit_run
    out2 = root / "replay"
    code = cli.main(["fit", "--config", str(out / "manifest.json"),
                     "--out", str(out2)])
    assert code == 0
    assert (out / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    assert (out / "curves.tsv").read_bytes() == (out2 / "curves.tsv").read_bytes()
    assert (out / "sate.tsv").read_bytes() == (out2 / "sate.tsv").read_bytes()


def test_sate_week_single_row(fit_run):
    root, cfg, _ = fit_run
    out = root / "sate-week"
    code = cli.main(["sate", "--config", str(cfg), "--out", str(out),
                     "--sate-week", "2.0"])
    assert code == 0
    lines = (out / "sate.tsv").read_text().strip().splitlines()
    assert len(lines) == 2
    assert float(lines[1].split("\t")[0]) == 2.0


@pytest.mark.parametrize("argv,extra,code,message", [
    pytest.param(["fit", "--config"], "sate_week = 1000", 2,
                 "sate_week 1000.0 lies outside", id="argv0-1000.0"),
    pytest.param(["sate", "--sate-week", "-3", "--config"], "sate_week = 1000",
                 2, "sate_week -3.0 lies outside", id="argv1--3.0"),
    pytest.param(["fit", "--config"], "group = nosuch=1", 2,
                 "'nosuch', which is not a covariate", id="group-no-column"),
    pytest.param(["fit", "--config"], "group = bonus=99", 5,
                 "selects no rows", id="group-no-row")])
def test_sate_week_outside_fitted_interval_exit_code(tmp_path, capsys,
                                                     monkeypatch, argv, extra,
                                                     code, message):
    # checked before the fit, so no output is written; a bad group filter
    # used to fail only after the joint fit, leaving manifest and summary
    data_path = tmp_path / "d.csv"
    data = write_sim_csv(str(data_path), n=150, seed=4)
    cfg = tmp_path / "c.cfg"
    out = tmp_path / "o"
    write_config(cfg, data_path, out, extra=extra)
    assert data.time.max() < 1000
    monkeypatch.setattr(op, "fit", None)   # no fit may run
    assert cli.main(argv + [str(cfg)]) == code
    assert message in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def read_table(path):
    lines = path.read_text().strip().splitlines()
    return [line.split("\t") for line in lines[1:]]


@pytest.mark.parametrize("extra", ["", "sate_week = 2.0\ngroup = bonus=1"])
def test_fit_tables_match_separate_calls(tmp_path, monkeypatch, extra):
    data_path = tmp_path / "sim.csv"
    write_sim_csv(str(data_path), n=200, seed=5)
    cfg = tmp_path / "model.cfg"
    write_config(cfg, data_path, tmp_path / "out",
                 extra + "\nlambda_fixed = 1,1")
    moments, series = [], []
    real_moments, real_series = inf._moments, inf._series

    def counted_moments(off):  # the posterior's binned-moment passes
        moments.append(off.size)
        return real_moments(off)

    def counted_series(s, mom):
        series.append(s.size)
        return real_series(s, mom)

    monkeypatch.setattr(inf, "_moments", counted_moments)
    monkeypatch.setattr(inf, "_series", counted_series)
    assert cli.main(["fit", "--config", str(cfg)]) == 0

    config = cli.parse_config(str(cfg))
    data = cli.ingest(config.data, config.time, config.status,
                      config.treatment)
    fit = op.fit(dz.assemble(cli.build_model_spec(config), data),
                 op.FitOptions(lambda_fixed=config.lambda_fixed))
    grid = np.linspace(data.time.min(), data.time.max(), config.grid_points)
    n_rows = int(inf.GroupDef("all", where=config.group).rows(fit.bundle).sum())
    n_t = grid.size + (config.sate_week is not None)
    # one moments pass per draw over the group's rows, shared by both arms
    # and by curves.tsv and sate.tsv, and one series at both arms' grids
    assert moments == [n_rows] * (config.draws + 1)
    assert series == [2 * n_t] * (config.draws + 1)

    kw = dict(level=config.level, draws=config.draws, seed=config.seed)
    groups = [inf.GroupDef("treated", d=1, where=config.group),
              inf.GroupDef("control", d=0, where=config.group)]
    curves = inf.survival_curves(fit, grid, groups=groups, **kw)
    table = read_table(tmp_path / "out" / "curves.tsv")
    for name, band in curves.groups.items():
        got = np.array([[float(v) for v in r[2:]] for r in table
                        if r[1] == name])
        assert np.array_equal([float(r[0]) for r in table if r[1] == name],
                              grid)
        assert np.abs(got - np.column_stack(band)).max() <= 1e-12
    sate_grid = grid if config.sate_week is None else [config.sate_week]
    effect = inf.sate(fit, sate_grid, where=config.group, **kw)
    got = np.array([[float(v) for v in r] for r in
                    read_table(tmp_path / "out" / "sate.tsv")])
    assert np.array_equal(got[:, 0], sate_grid)
    assert np.abs(got[:, 1:] - np.column_stack(effect.sate)).max() <= 1e-12


def test_missing_data_file_exit_code(tmp_path):
    cfg = tmp_path / "c.cfg"
    write_config(cfg, tmp_path / "nope.csv", tmp_path / "o")
    assert cli.main(["fit", "--config", str(cfg)]) == 3


def test_nonconvergence_exit_code(tmp_path, monkeypatch):
    data_path = tmp_path / "d.csv"
    write_sim_csv(str(data_path), n=120, seed=2)
    cfg = tmp_path / "c.cfg"
    write_config(cfg, data_path, tmp_path / "o")

    real_fit = cli.op.fit

    def tired_fit(bundle, options=None):
        fit = real_fit(bundle, options)
        fit.convergence.converged = False
        return fit

    monkeypatch.setattr(cli.op, "fit", tired_fit)
    assert cli.main(["fit", "--config", str(cfg)]) == 4


def test_inference_failure_exit_code(tmp_path, monkeypatch):
    data_path = tmp_path / "d.csv"
    write_sim_csv(str(data_path), n=150, seed=4)
    cfg = tmp_path / "c.cfg"
    write_config(cfg, data_path, tmp_path / "o")

    from endosurv.errors import InferenceError

    def broken_summary(fit, level=0.05):
        raise InferenceError("synthetic failure")

    monkeypatch.setattr(cli.inference, "summary", broken_summary)
    assert cli.main(["fit", "--config", str(cfg)]) == 5


def test_internal_key_error_is_not_a_configuration_error(tmp_path, monkeypatch):
    data_path = tmp_path / "d.csv"
    write_sim_csv(str(data_path), n=150, seed=4)
    cfg = tmp_path / "c.cfg"
    write_config(cfg, data_path, tmp_path / "o")

    def broken_summary(fit, level=0.05):
        raise KeyError("internal")

    monkeypatch.setattr(cli.inference, "summary", broken_summary)
    with pytest.raises(KeyError, match="internal"):
        cli.main(["fit", "--config", str(cfg)])


def test_malformed_manifest_exit_code(tmp_path):
    bad = tmp_path / "manifest.json"
    bad.write_text("{ not json")
    assert cli.main(["fit", "--config", str(bad)]) == 2
    bad.write_text('{"config": {"data": "x.csv"}}')  # missing required keys
    assert cli.main(["fit", "--config", str(bad)]) == 2


def test_univariate_summary_included(tmp_path):
    data_path = tmp_path / "d.csv"
    write_sim_csv(str(data_path), n=300, seed=3)
    cfg = tmp_path / "c.cfg"
    out = tmp_path / "o"
    write_config(cfg, data_path, out, extra="fit_univariate = true\n")
    assert cli.main(["fit", "--config", str(cfg)]) == 0
    payload = json.loads((out / "summary.json").read_text())
    assert payload["univariate"]["converged"] is True
    assert "rho" not in payload["univariate"]


def test_summary_lists_each_lambda_with_its_equation(tmp_path, monkeypatch):
    # s(age) in both equations: two smoothing parameters under one label
    data_path = tmp_path / "d.csv"
    write_sim_csv(str(data_path), n=350, seed=2)
    cfg = tmp_path / "c.cfg"
    out = tmp_path / "o"
    cfg.write_text(f"data = {data_path}\ntime = unemp.dur\nstatus = status\n"
                   f"treatment = agree\nout_dir = {out}\ndraws = 0\n"
                   "outcome_term = monotone J=8\noutcome_term = smooth:age J=6\n"
                   "outcome_term = treatment\nselection_term = smooth:age J=6\n"
                   "selection_term = ridge:bonus\n")
    fits = []
    real_fit = op.fit

    def recorded(*args):
        fits.append(real_fit(*args))
        return fits[-1]

    monkeypatch.setattr(op, "fit", recorded)
    assert cli.main(["fit", "--config", str(cfg)]) == 0
    lam = json.loads((out / "summary.json").read_text())["lambda"]
    assert [(r["equation"], r["name"]) for r in lam] == [
        (1, "mono(time)"), (1, "s(age)"), (2, "s(age)"), (2, "ridge(bonus)")]
    assert [r["value"] for r in lam] == fits[0].lam.tolist()


def test_tiny_level_fits(tmp_path):
    # 1 - level / 2 rounds to 1 here, so the rho interval's normal quantile
    # is taken at level / 2, which is still inside (0, 1)
    data_path = tmp_path / "d.csv"
    write_sim_csv(str(data_path), n=300, seed=3)
    cfg = tmp_path / "c.cfg"
    out = tmp_path / "o"
    write_config(cfg, data_path, out, extra="level = 1e-17\n")
    assert cli.main(["fit", "--config", str(cfg)]) == 0
    rho = json.loads((out / "summary.json").read_text())["rho"]
    assert rho["lo"] <= rho["estimate"] <= rho["hi"]


def test_simulate_emit_data(tmp_path):
    target = tmp_path / "sim.csv"
    code = cli.main(["simulate", "--preset", "strong", "--n", "80",
                     "--seed", "5", "--emit-data", str(target)])
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "time,status,treatment,x,w"
    assert len(lines) == 81


def test_simulate_small_study(tmp_path):
    out = tmp_path / "study"
    code = cli.main(["simulate", "--preset", "strong", "--n", "250",
                     "--replicates", "2", "--seed", "9", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["replicates"] == 2
    assert (out / "report.tsv").exists()


def test_simulate_reports_an_uncovered_grid_point_as_missing(tmp_path):
    # at n = 10 the last study grid point lies beyond the one replicate's
    # fitted interval, so no fit estimates the SATE there
    config = sim.DgpConfig(n=10)
    bundle = dz.assemble(sim.model_spec(config), sim.generate(config, seed=(0, 0)))
    assert sim.default_study_grid(config)[-1] > bundle.mono_interval[1]
    out = tmp_path / "study"
    assert cli.main(["simulate", "--n", "10", "--replicates", "1",
                     "--out", str(out)]) == 0
    bias = json.loads((out / "report.json").read_text())["sate_bias"]
    assert bias[-1] is None and None not in bias[:-1]
    rows = [line.split("\t") for line in (out / "report.tsv").read_text().splitlines()]
    assert [row[2] for row in rows[1:]] == [repr(b) for b in bias[:-1]] + ["NA"]


def test_check_subcommand_passes():
    assert cli.main(["check", "--n", "50", "--seed", "0"]) == 0


def test_scripted_runs_recover_beta_d(tmp_path):
    # simulated datasets round-trip through the CLI: the fitted 95% interval
    # for the treatment coefficient covers the truth in most runs
    runs, hits = 10, 0
    truth_gamma = -0.6  # working-scale coefficient of D in eta1
    for r in range(runs):
        data_path = tmp_path / f"d{r}.csv"
        write_sim_csv(str(data_path), n=400, seed=(60, r), beta_d=0.6,
                      transform="spline", censor_max=14.0)
        cfg = tmp_path / f"c{r}.cfg"
        out = tmp_path / f"o{r}"
        write_config(cfg, data_path, out)
        if cli.main(["fit", "--config", str(cfg)]) != 0:
            continue
        payload = json.loads((out / "summary.json").read_text())
        row = next(t for t in payload["terms"] if t["name"] == "treatment")
        lo = row["estimate"] - 1.959963984540054 * row["std_error"]
        hi = row["estimate"] + 1.959963984540054 * row["std_error"]
        if lo <= truth_gamma <= hi:
            hits += 1
    assert hits >= 0.9 * runs


def test_written_floats_read_back_equal_and_as_floats(tmp_path):
    # shortest round-trip form: a whole value is written 1e7 as 10000000.0,
    # never as an integer, and the sign of -0.0 survives
    values = [1.0 / 3.0, 1e7, 5e-324, -0.0]
    cli.write_json(str(tmp_path / "v.json"), {"v": values})
    cli.write_tsv(str(tmp_path / "v.tsv"), ("a", "b", "c", "d"), [values])
    from_json = json.loads((tmp_path / "v.json").read_text())["v"]
    tsv_text = (tmp_path / "v.tsv").read_text().splitlines()[1].split("\t")
    from_tsv = [float(v) for v in tsv_text]
    assert tsv_text == [repr(v) for v in values]
    for got in (from_json, from_tsv):
        assert got == values and [type(v) for v in got] == [float] * 4
        assert math.copysign(1.0, got[3]) == -1.0


def test_non_finite_write_is_refused_and_leaves_no_file(tmp_path):
    with pytest.raises(InferenceError, match="non-finite"):
        cli.write_json(str(tmp_path / "v.json"), {"v": [1.0, float("nan")]})
    with pytest.raises(InferenceError, match="non-finite"):
        cli.write_tsv(str(tmp_path / "v.tsv"), ("a",), [(1.0,), (float("inf"),)])
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def fixed_lambda_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("fixed")
    write_sim_csv(str(root / "d.csv"), n=350, seed=1)
    write_config(root / "c.cfg", root / "d.csv", root / "o", "lambda_fixed = 1,1")
    assert cli.main(["fit", "--config", str(root / "c.cfg")]) == 0
    return root


def test_whole_valued_lambdas_read_back_as_floats(fixed_lambda_run):
    out = fixed_lambda_run / "o"
    lam = [r["value"] for r in json.loads((out / "summary.json").read_text())["lambda"]]
    fixed = json.loads((out / "manifest.json").read_text())["config"]["lambda_fixed"]
    assert lam == fixed == [1.0, 1.0]
    assert [type(v) for v in lam + fixed] == [float] * 4


def test_manifest_in_17_digit_form_replays_to_the_same_run(fixed_lambda_run):
    # a manifest as the earlier writer wrote it: 17 significant digits, and
    # whole-valued floats as integers
    root = fixed_lambda_run
    text = json.dumps(json.loads((root / "o" / "manifest.json").read_text()),
                      indent=2)
    for new, old in (('"level": 0.05,', '"level": 0.050000000000000003,'),
                     ('"lambda_fixed": [\n      1.0,\n      1.0\n    ]',
                      '"lambda_fixed": [\n      1,\n      1\n    ]')):
        assert text.count(new) == 1
        text = text.replace(new, old)
    (root / "old.json").write_text(text)
    assert cli.main(["fit", "--config", str(root / "old.json"),
                     "--out", str(root / "replay")]) == 0
    for name in ("summary.json", "curves.tsv", "sate.tsv"):
        assert (root / "o" / name).read_bytes() == (root / "replay" / name).read_bytes()


def _columns(n=300, seed=3):
    data = sim.generate(sim.DgpConfig(n=n, transform="spline"), seed=seed)
    return {"time": data.time, "status": data.status,
            "treatment": data.treatment, "x": data.covariates["x"],
            "w": data.covariates["w"]}


# (input, how the 300-row spline data is altered, exit code)
DEGENERATE_INPUTS = [
    ("all censored", lambda c: {**c, "status": 0 * c["status"]}, 2),
    ("two distinct times", lambda c: {
        **c, "time": np.where(c["time"] < np.median(c["time"]), 1.0, 2.0)}, 2),
    ("n = 12", lambda c: {key: col[:12] for key, col in c.items()}, 4),
    ("no treated", lambda c: {**c, "treatment": 0 * c["treatment"]}, 2),
    ("all treated", lambda c: {**c, "treatment": 0 * c["treatment"] + 1}, 2),
    ("one-level instrument", lambda c: {**c, "w": 0.0 * c["w"]}, 2),
    ("constant covariate", lambda c: {**c, "x": 0.0 * c["x"] + 1.0}, 2),
    ("all events", lambda c: {**c, "status": 0 * c["status"] + 1}, 0),
    ("perfect instrument", lambda c: {**c, "w": c["treatment"] + 0.0}, 0),
    ("times x 1e8", lambda c: {**c, "time": c["time"] * 1e8}, 0),
    # the smooth is built on x's median and sd, so -H_p at lambda = 1 is
    # positive definite and the lambda search runs
    ("far outlier in x", lambda c: {**c, "x": np.where(
        np.arange(c["x"].size) == 0, 1e4, c["x"])}, 0),
    # the covariance's residual bound is taken on the equilibrated -H_p, so
    # a covariate's units do not fail it
    ("x times 1e5", lambda c: {**c, "x": c["x"] * 1e5}, 0),
    ("x times 1e8", lambda c: {**c, "x": c["x"] * 1e8}, 0),
    # the smooth's cubed distances would overflow: rejected before any power
    ("x times 1e120", lambda c: {**c, "x": c["x"] * 1e120}, 2),
]


@pytest.mark.parametrize("alter,code", [case[1:] for case in DEGENERATE_INPUTS],
                         ids=[case[0] for case in DEGENERATE_INPUTS])
def test_degenerate_input_exit_code(tmp_path, capsys, alter, code):
    # the joint fit and both univariate fits see the degenerate data; each
    # case ends in its typed exit code, never a traceback
    cols = alter(_columns())
    data_path = tmp_path / "d.csv"
    with open(data_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for row in zip(*cols.values()):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    cfg = tmp_path / "c.cfg"
    cfg.write_text("\n".join([
        f"data = {data_path}", "time = time", "status = status",
        "treatment = treatment", f"out_dir = {tmp_path / 'o'}",
        "draws = 10", "grid_points = 12", "fit_univariate = true",
        "outcome_term = monotone J=10", "outcome_term = smooth:x",
        "outcome_term = treatment", "selection_term = linear:x",
        "selection_term = ridge:w"]) + "\n")
    assert cli.main(["fit", "--config", str(cfg)]) == code
    assert "Traceback" not in capsys.readouterr().err
