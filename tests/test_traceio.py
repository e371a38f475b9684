"""Trace CSV round trips, comparison reports, scenario files, and the CLI."""

import contextlib
import io
import os
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dppd
from dppd import (
    ConfigError,
    DppdConfig,
    load_scenario,
    make_schedule,
    read_trace,
    report_compare,
    run,
    run_csp_sg,
    running_eval_error,
    write_trace,
)
from dppd import cli
from dppd.cli import main


# ----------------------------------------------------------------- round trip


@pytest.fixture(scope="module")
def small_trace(paper_problem):
    s = make_schedule(N=100, Q=2, a=0.1, seed=0, family="chorded")
    ref = dppd.paper_example_reference()
    cfg = DppdConfig(K=80, U0=10.0, stride=10, f_star=ref.f_star)
    return run(paper_problem, s, cfg)


def test_write_read_round_trip_exact(small_trace, tmp_path):
    path = tmp_path / "t.csv"
    write_trace(small_trace, path)
    cols = read_trace(path)
    assert np.array_equal(cols["k"], small_trace.k)
    for name, ref in (
        ("alpha", small_trace.alpha),
        ("xbar_0", small_trace.xbar[:, 0]),
        ("cons_x", small_trace.cons_x),
        ("cons_mu", small_trace.cons_mu),
        ("lagrangian", small_trace.lagrangian),
        ("run_eval_err", small_trace.run_eval_err),
        ("constr_viol", small_trace.constr_viol),
    ):
        assert np.array_equal(cols[name], ref), name  # bitwise, 17 digits


def test_comparator_trace_uses_ergodic_column(paper_problem, tmp_path):
    s = make_schedule(N=100, Q=2, a=0.1, seed=0, family="chorded")
    ref = dppd.paper_example_reference()
    tr = run_csp_sg(paper_problem, s, DppdConfig(K=40, U0=10.0, stride=10, f_star=ref.f_star))
    path = tmp_path / "b.csv"
    write_trace(tr, path)
    cols = read_trace(path)
    assert "ergodic_eval_err" in cols and "run_eval_err" not in cols
    assert np.array_equal(cols["ergodic_eval_err"], tr.ergodic_eval_err)


def test_one_round_trace_reads_back_as_empty_columns(paper_problem, tmp_path):
    s = make_schedule(N=100, Q=2, a=0.1, seed=0, family="chorded")
    tr = run(paper_problem, s, DppdConfig(K=1, U0=10.0))
    path = tmp_path / "one.csv"
    write_trace(tr, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cols = read_trace(path)
    assert list(cols) == ["k", "alpha", "xbar_0", "cons_x", "cons_mu", "lagrangian",
                          "run_eval_err", "constr_viol"]
    assert all(c.shape == (0,) for c in cols.values()) and cols["k"].dtype == int
    with pytest.raises(ValueError, match="no Lagrangian records"):
        running_eval_error(tr, 0.0)


def test_read_trace_schema_guard(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("k,alpha\n1,0.5\n")
    with pytest.raises(ValueError):
        read_trace(bad)
    bad.write_text("# schema=99\nk,alpha\n1,0.5\n")
    with pytest.raises(ValueError):
        read_trace(bad)


# ------------------------------------------------------------------ compare


def _synthetic_cols(ks, errs):
    return {
        "k": np.asarray(ks, dtype=int),
        "run_eval_err": np.asarray(errs, dtype=float),
        "lagrangian": np.zeros(len(ks)),
    }


def test_report_compare_identical_traces_ratio_one():
    ks = np.arange(10, 2001, 10)
    t = _synthetic_cols(ks, 3.0 / np.sqrt(ks))
    rows = report_compare(t, t, ks=(100, 1000))
    for k, ea, eb, ratio in rows:
        assert ea == eb and ratio == 1.0


def test_report_compare_rate_separation_pattern():
    # err_a = c/sqrt(k), err_b = c/k: the ratio grows like sqrt(k)
    ks = np.arange(10, 10001, 10)
    ta = _synthetic_cols(ks, 2.0 / np.sqrt(ks))
    tb = _synthetic_cols(ks, 2.0 / ks.astype(float))
    rows = report_compare(ta, tb, ks=(100, 1000, 10000))
    for k, ea, eb, ratio in rows:
        assert ratio == pytest.approx(np.sqrt(k), rel=1e-12)


def test_report_compare_coverage_and_nan_fallback():
    ks = np.arange(1, 51)
    ta = _synthetic_cols(ks, 1.0 / ks)
    with pytest.raises(ValueError):
        report_compare(ta, ta, ks=(100,))
    # stored errors NaN: fall back to the cumulative Lagrangian mean
    tb = {
        "k": ks,
        "run_eval_err": np.full(50, np.nan),
        "lagrangian": np.full(50, 4.0),
    }
    rows = report_compare(tb, tb, f_star=1.5, ks=(50,))
    assert rows[0][1] == pytest.approx(2.5)
    with pytest.raises(ValueError):
        report_compare(tb, tb, ks=(50,))  # NaN without f_star


def test_report_compare_reads_a_comparator_trace_without_f_star_as_stored(tmp_path):
    # a comparator's Lagrangian column is its ergodic metric, so the error
    # of a trace written without f_star is |lagrangian_k - f_star|, bit for
    # bit the column a run with f_star stores
    p = dppd.build_paper_example(N=20, b=1.0)
    f_star = dppd.paper_example_reference(N=20, b=1.0).f_star
    s = make_schedule(N=20, Q=1, family="ring")
    cols = {}
    for name, fs in (("run", f_star), ("with", f_star), ("without", None)):
        solve = run if name == "run" else run_csp_sg
        path = tmp_path / f"{name}.csv"
        write_trace(solve(p, s, DppdConfig(K=1001, U0=10.0, stride=10, f_star=fs)), path)
        cols[name] = read_trace(path)
    assert np.isnan(cols["without"]["ergodic_eval_err"]).all()
    rows = report_compare(cols["run"], cols["with"], f_star=f_star, ks=(100, 1000))
    assert report_compare(cols["run"], cols["without"], f_star=f_star, ks=(100, 1000)) == rows


# ------------------------------------------------------------------ scenarios


SCENARIO_TEXT = """
[scenario]
name = demo
solver = dppd
K = 60
stride = 10

[problem]
builtin = paper_example
N = 20
b = 1.0

[graph]
family = chorded
Q = 2
a = 0.1
seed = 0

[dual]
U0 = 5.0

[output]
trace = demo.csv
"""


def test_load_scenario_happy_path(tmp_path):
    path = tmp_path / "demo.ini"
    path.write_text(SCENARIO_TEXT)
    scen = load_scenario(path)
    assert scen.name == "demo"
    assert scen.solver == "dppd"
    assert scen.problem.N == 20
    assert scen.schedule.Q == 2
    assert scen.config.K == 60
    assert scen.config.U0 == 5.0
    assert scen.trace_path == "demo.csv"
    assert scen.config.f_star is not None


@pytest.mark.parametrize(
    "mangle",
    [
        lambda t: t.replace("[graph]", "[grap]"),  # missing section
        lambda t: t.replace("K = 60", ""),  # missing required key
        lambda t: t.replace("K = 60", "K = sixty"),  # bad cast
        lambda t: t.replace("solver = dppd", "solver = nope"),
        lambda t: t.replace("builtin = paper_example", "builtin = nope"),
        lambda t: t.replace("family = chorded", "family = nope"),
        lambda t: t.replace("K = 60", "K = 0"),
        lambda t: t.replace("K = 60", "K = 1"),  # dppd traces rounds k >= 1
        lambda t: t.replace("K = 60", "K = 1").replace("solver = dppd", "solver = csp_sg"),
        lambda t: t.replace("stride = 10", "stride = 0"),
        lambda t: t.replace("U0 = 5.0", "U0 = -1.0"),
    ],
)
def test_load_scenario_config_errors(tmp_path, mangle):
    path = tmp_path / "bad.ini"
    path.write_text(mangle(SCENARIO_TEXT))
    with pytest.raises(ConfigError):
        load_scenario(path)


@pytest.mark.parametrize("solver", ["slater", "dualbound"])
def test_load_scenario_protocol_solvers_accept_one_round(tmp_path, solver):
    path = tmp_path / "one.ini"
    text = SCENARIO_TEXT.replace("K = 60", "K = 1")
    path.write_text(text.replace("solver = dppd", f"solver = {solver}"))
    assert load_scenario(path).config.K == 1


def test_load_scenario_defaults(tmp_path, monkeypatch, capsys):
    # no [dual] section: U0 = 10; no [output] section: the trace is
    # <name>.csv; hi = 0.05 leaves the binding point outside the box, so
    # the closed-form reference gives no f_star and the run prints none
    text = SCENARIO_TEXT.split("[dual]")[0].replace("b = 1.0\n", "b = 1.0\nhi = 0.05\n")
    path = tmp_path / "defaults.ini"
    path.write_text(text)
    scen = load_scenario(path)
    assert scen.config.U0 == 10.0
    assert scen.trace_path == "demo.csv"
    assert scen.config.f_star is None
    monkeypatch.setenv("DPPD_OUTPUT_DIR", str(tmp_path / "out"))
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "trace:" in out and "f_star:" not in out


@pytest.mark.parametrize(
    "dual, source, U0",
    [
        ("U0 = 5.0", "fixed", 5.0),
        ("source = fixed", "fixed", 10.0),
        # the protocol resolves U0 at run time; the config holds a placeholder
        ("source = dualbound\nU0 = 3.0", "dualbound", 1.0),
    ],
)
def test_load_scenario_dual_radius_source(tmp_path, dual, source, U0):
    path = tmp_path / "dual.ini"
    path.write_text(SCENARIO_TEXT.replace("U0 = 5.0", dual))
    scen = load_scenario(path)
    assert (scen.u0_source, scen.config.U0) == (source, U0)


def test_load_scenario_missing_file():
    with pytest.raises(ConfigError):
        load_scenario("/nonexistent/scenario.ini")


def test_load_scenario_reads_percent_signs_as_written(tmp_path):
    # no interpolation: a lone % is a character, and %% is two of them
    path = tmp_path / "pct.ini"
    path.write_text(SCENARIO_TEXT.replace("name = demo", "name = demo%").replace("demo.csv", "100%%.csv"))
    scen = load_scenario(path)
    assert (scen.name, scen.trace_path) == ("demo%", "100%%.csv")


# ------------------------------------------------------------------------ CLI


def _write_scenario(tmp_path, text=SCENARIO_TEXT, name="s.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_run_writes_trace_and_summary(tmp_path, monkeypatch, capsys):
    cfgfile = _write_scenario(tmp_path)
    monkeypatch.setenv("DPPD_OUTPUT_DIR", str(tmp_path / "out"))
    assert main(["run", cfgfile]) == 0
    out = capsys.readouterr().out
    assert "trace:" in out and "final_cons_x:" in out
    cols = read_trace(tmp_path / "out" / "demo.csv")
    assert cols["k"][-1] == 59
    assert (tmp_path / "out" / "demo.csv.summary.txt").exists()


def test_cli_run_rejects_bad_config_before_writing(tmp_path, monkeypatch, capsys):
    cfgfile = _write_scenario(tmp_path, SCENARIO_TEXT.replace("K = 60", "K = 1"))
    monkeypatch.setenv("DPPD_OUTPUT_DIR", str(tmp_path / "out"))
    assert main(["run", cfgfile]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_run_comparator_solver(tmp_path, monkeypatch, capsys):
    text = SCENARIO_TEXT.replace("solver = dppd", "solver = csp_sg")
    cfgfile = _write_scenario(tmp_path, text)
    monkeypatch.setenv("DPPD_OUTPUT_DIR", str(tmp_path / "out2"))
    assert main(["run", cfgfile]) == 0
    cols = read_trace(tmp_path / "out2" / "demo.csv")
    assert "ergodic_eval_err" in cols


def test_cli_run_slater_solver_reports_the_strictly_feasible_point(tmp_path, monkeypatch, capsys):
    cfgfile = _write_scenario(tmp_path, SCENARIO_TEXT.replace("solver = dppd", "solver = slater"))
    monkeypatch.setenv("DPPD_OUTPUT_DIR", str(tmp_path / "out"))
    assert main(["run", cfgfile]) == 0
    summary = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    scen = load_scenario(cfgfile)
    x_check = dppd.find_slater(scen.problem, scen.schedule, scen.config.stepsize, scen.config.K)
    g = [float(v) for v in summary["constraint_sum"].split()]
    assert [float(v) for v in summary["x_check"].split()] == pytest.approx(x_check, rel=1e-11)
    assert g == pytest.approx(scen.problem.constraint(x_check), rel=1e-11) and max(g) < 0
    assert (tmp_path / "out" / "demo.csv.summary.txt").exists()


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda t: t.replace("U0 = 5.0", "source = nope"), "unknown dual radius source 'nope'"),
        (lambda t: t + "\n[stepsize]\nrule = inv-pow\npower = 1.5\n", "[stepsize] inv-pow exponent"),
        (lambda t: t.replace("N = 20", "N = 0"), "[problem] a problem needs at least one agent"),
        (lambda t: t.replace("b = 1.0", "b = 1.0\nlo = 1\nhi = 0"), "[problem] invalid box bounds"),
        (lambda t: t.replace("b = 1.0", "b = nan"), "[problem] b = 'nan': not a finite number"),
        (lambda t: t.replace("b = 1.0", "b = inf"), "[problem] b = 'inf': not a finite number"),
        (lambda t: t.replace("a = 0.1", "a = -inf"), "[graph] a = '-inf': not a finite number"),
        (lambda t: t.replace("U0 = 5.0", "U0 = nan"), "[dual] U0 = 'nan': not a finite number"),
        (
            lambda t: t.replace("family = chorded", "famly = complete"),
            "[graph] unknown key 'famly'; [graph] defines family, Q, a, seed",
        ),
        (lambda t: t + "\n[extra]\nkey = 1\n", "[extra] unknown key 'key'; [extra] defines no keys"),
        (lambda t: "[DEFAULT]\nN = 5\n" + t, "[DEFAULT] keys are not supported: n"),
        (
            lambda t: t.replace("b = 1.0", "b = 1.0\nlo = -1"),
            "[problem] the set reaches x = -1, outside the log terms' domain",
        ),
        (lambda t: t.replace("trace = demo.csv", "trace ="), "[output] trace = '' names no file"),
    ],
    ids=["dual-source", "stepsize", "no-agents", "empty-box", "nan", "inf", "minus-inf", "U0-nan",
         "misspelt-key", "unknown-section", "default", "log-domain", "no-trace-file"],
)
def test_cli_run_bad_dual_source_or_stepsize_exits_2(tmp_path, monkeypatch, capsys, mangle, message):
    monkeypatch.setenv("DPPD_OUTPUT_DIR", str(tmp_path / "out"))
    assert main(["run", _write_scenario(tmp_path, mangle(SCENARIO_TEXT))]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_validate_reports_schedule_health(tmp_path, capsys):
    cfgfile = _write_scenario(tmp_path)
    assert main(["validate", cfgfile, "--rounds", "8"]) == 0
    out = capsys.readouterr().out
    assert "windows_connected: True" in out
    assert "ok: True" in out


def test_cli_dump_graph_blocks_are_stochastic(tmp_path, monkeypatch, capsys):
    cfgfile = _write_scenario(tmp_path)
    monkeypatch.setenv("DPPD_OUTPUT_DIR", str(tmp_path / "g"))
    assert main(["dump-graph", cfgfile, "--rounds", "4"]) == 0
    raw = (tmp_path / "g" / "demo_graph.csv").read_text().strip().split("\n\n")
    assert len(raw) == 4
    for block in raw:
        A = np.array([[float(v) for v in line.split(",")] for line in block.splitlines()])
        assert A.shape == (20, 20)
        assert np.abs(A.sum(axis=0) - 1).max() < 1e-12
        assert np.abs(A.sum(axis=1) - 1).max() < 1e-12


def test_cli_dualbound_reports_radius(tmp_path, capsys):
    text = SCENARIO_TEXT.replace("K = 60", "K = 200")
    cfgfile = _write_scenario(tmp_path, text)
    assert main(["dualbound", cfgfile]) == 0
    out = capsys.readouterr().out
    u0 = float([l for l in out.splitlines() if l.startswith("U0:")][0].split()[1])
    assert u0 > 0
    # the line after slater_rounds reports the blocks the protocol used
    scen = load_scenario(cfgfile)
    res = dppd.compute_dual_radius(
        scen.problem, scen.schedule, scen.config.stepsize, K=scen.config.K
    )
    lines = out.splitlines()
    i = next(i for i, l in enumerate(lines) if l.startswith("slater_rounds:"))
    assert lines[i + 1] == f"certify_blocks: {res.certify_blocks}"


DUALBOUND_TEXT = SCENARIO_TEXT.replace("K = 60", "K = 200").replace(
    "U0 = 5.0", "source = dualbound"
)


def _count_dual_radius_calls(monkeypatch):
    """Wrap cli.compute_dual_radius; returns the list of its results."""
    results = []
    protocol = cli.compute_dual_radius

    def counted(*args, **kwargs):
        results.append(protocol(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "compute_dual_radius", counted)
    return results


def test_cli_run_dualbound_solver_runs_protocol_once(tmp_path, monkeypatch, capsys):
    cfgfile = _write_scenario(tmp_path, DUALBOUND_TEXT.replace("solver = dppd", "solver = dualbound"))
    results = _count_dual_radius_calls(monkeypatch)
    assert main(["run", cfgfile]) == 0
    assert len(results) == 1
    assert f"U0: {results[0].U0:.12g}" in capsys.readouterr().out


def test_cli_run_dualbound_source_runs_protocol_once(tmp_path, monkeypatch, capsys):
    cfgfile = _write_scenario(tmp_path, DUALBOUND_TEXT)
    monkeypatch.setenv("DPPD_OUTPUT_DIR", str(tmp_path / "out"))
    results = _count_dual_radius_calls(monkeypatch)
    configs = []
    solve = cli.run

    def recorded(p, sched, cfg):
        configs.append(cfg)
        return solve(p, sched, cfg)

    monkeypatch.setattr(cli, "run", recorded)
    assert main(["run", cfgfile]) == 0
    assert len(results) == 1
    assert [cfg.U0 for cfg in configs] == [results[0].U0]
    assert read_trace(tmp_path / "out" / "demo.csv")["k"][-1] == 199


def test_cli_run_dualbound_solver_loads_scenario_once(tmp_path, monkeypatch, capsys):
    cfgfile = _write_scenario(tmp_path, DUALBOUND_TEXT.replace("solver = dppd", "solver = dualbound"))
    loads = []
    load = cli.load_scenario

    def counted(path):
        loads.append(path)
        return load(path)

    monkeypatch.setattr(cli, "load_scenario", counted)
    assert main(["run", cfgfile]) == 0
    assert loads == [cfgfile]
    assert "U0:" in capsys.readouterr().out


def test_cli_run_summary_is_the_same_for_both_solvers(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DPPD_OUTPUT_DIR", str(tmp_path / "out"))
    keys = {}
    for solver in ("dppd", "csp_sg"):
        text = SCENARIO_TEXT.replace("solver = dppd", f"solver = {solver}")
        assert main(["run", _write_scenario(tmp_path, text)]) == 0
        summary = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        keys[solver] = list(summary)
        err = read_trace(tmp_path / "out" / "demo.csv")
        name = "run_eval_err" if solver == "dppd" else "ergodic_eval_err"
        assert float(summary[f"final_{name}"]) == pytest.approx(err[name][-1], rel=1e-11)
    assert keys["csp_sg"] == [
        k.replace("run_eval_err", "ergodic_eval_err") for k in keys["dppd"]
    ]


def test_cli_compare_subcommand(tmp_path, capsys, paper_problem):
    s = make_schedule(N=100, Q=2, a=0.1, seed=0, family="chorded")
    ref = dppd.paper_example_reference()
    cfg = DppdConfig(K=150, U0=10.0, stride=10, f_star=ref.f_star)
    tr = run(paper_problem, s, cfg)
    pa, pb = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_trace(tr, pa)
    write_trace(tr, pb)
    assert main(["compare", pa, pb, "--at", "100"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "k,err_a,err_b,ratio"
    assert out[1].split(",")[3] == "1"


CORPUS_TEXT = """
[scenario]
name = corpus
solver = dppd
K = 5
stride = 2
seed = 0

[problem]
builtin = paper_example
N = 8
b = 1.0
lo = 0.0
hi = 1.0

[graph]
family = chorded
Q = 2
a = 0.1
seed = 3

[stepsize]
rule = inv-sqrt
power = 0.5

[dual]
source = fixed
U0 = 5.0

[output]
trace = corpus.csv
"""


def _corpus_sections():
    """CORPUS_TEXT as [(section, [(key, value), ...]), ...]."""
    sections = []
    for line in CORPUS_TEXT.strip().splitlines():
        if line.startswith("["):
            sections.append((line[1:-1], []))
        elif line:
            key, value = line.split(" = ")
            sections[-1][1].append((key, value))
    return sections


def _corpus_text(sections):
    return "\n".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in items) for name, items in sections
    )


# values that the corpus puts in place of a key's value; none of them asks
# for more than N = 12 agents or K = 5 rounds
_BAD_VALUES = ["", "abc", "%", "nan", "inf", "-inf", "-1", "0", "2.5", "1e-300"]


@st.composite
def _mutated_scenarios(draw):
    """CORPUS_TEXT after one or two mutations: replace, negate or %-suffix a
    value, or drop, rename or duplicate a key or a section."""
    sections = _corpus_sections()
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(sections) - 1))
        name, items = sections[i]
        kind = draw(st.sampled_from(
            ["value", "negate", "percent", "drop-key", "rename-key", "duplicate-key",
             "drop-section", "rename-section", "duplicate-section"]
        ))
        if kind == "drop-section":
            del sections[i]
        elif kind == "duplicate-section":
            sections.insert(i, (name, list(items)))
        elif kind == "rename-section":
            sections[i] = (draw(st.sampled_from([name + "s", name[:-1], "DEFAULT", "extra"])), items)
        elif not items:
            continue
        else:
            j = draw(st.integers(0, len(items) - 1))
            key, value = items[j]
            if kind == "drop-key":
                del items[j]
            elif kind == "duplicate-key":
                items.insert(j, (key, value))
            elif kind == "rename-key":
                items[j] = (draw(st.sampled_from([key + "x", key.upper(), "Q", "b", "seed"])), value)
            elif kind == "value":
                items[j] = (key, draw(st.sampled_from(_BAD_VALUES)))
            elif kind == "negate":
                items[j] = (key, "-" + value)
            else:
                items[j] = (key, value + "%")
        if not sections:
            break
    return _corpus_text(sections)


def _main_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        return main(argv), err.getvalue()


@settings(max_examples=200)
@given(text=_mutated_scenarios())
def test_mutated_scenarios_run_as_written_or_exit_2(text):
    # every file either validates and runs, writing a finite trace, or
    # exits 2 naming why before anything is written; exit 1 is a failure
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        path = os.path.join(tmp, "s.ini")
        with open(path, "w") as fh:
            fh.write(text)
        with mock.patch.dict(os.environ, {"DPPD_OUTPUT_DIR": out}):
            code, err = _main_quietly(["validate", path])
            assert code in (0, 2), err
            if code == 2:
                assert _main_quietly(["run", path]) == (2, err)
                assert not os.path.exists(out)
                return
            code, err = _main_quietly(["run", path])
            assert code == 0, err
        scen = load_scenario(path)
        cols = read_trace(os.path.join(out, os.path.basename(scen.trace_path)))
        assert cols["k"][-1] == scen.config.K - 1
        for name, col in cols.items():
            if name != "run_eval_err" or scen.config.f_star is not None:
                assert np.all(np.isfinite(col)), name


def test_cli_malformed_config_exit_code(tmp_path, capsys):
    cfgfile = _write_scenario(tmp_path, "not an ini file [", name="bad.ini")
    assert main(["run", cfgfile]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_runtime_error_exit_code(tmp_path, capsys):
    assert main(["compare", "/no/a.csv", "/no/b.csv"]) == 1
