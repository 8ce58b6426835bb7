import json
import warnings
from fractions import Fraction as F

import pytest

from polya_net import cli, graph


@pytest.fixture
def k2_path(tmp_path):
    path = tmp_path / "k2.edges"
    graph.write_edge_list(graph.generate_complete(2), path)
    return str(path)


@pytest.fixture
def single_path(tmp_path):
    path = tmp_path / "single.edges"
    graph.write_edge_list(graph.generate_complete(1), path)
    return str(path)


def run(*argv):
    return cli.main(list(argv))


def test_graph_gen_writes_edge_list(tmp_path):
    out = tmp_path / "g.edges"
    assert run("graph-gen", "--kind", "ba", "--nodes", "10", "--attach", "2",
               "--seed", "3", "--out", str(out)) == 0
    net = graph.read_edge_list(out)
    assert net.node_count == 10
    assert len(net.edges) == 1 + 2 * 8


def test_graph_gen_stdout(capsys):
    assert run("graph-gen", "--kind", "complete", "--nodes", "3") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "3"
    assert len(lines) == 4


def test_enumerate_table_sums_to_one(k2_path, tmp_path):
    out = tmp_path / "table.csv"
    assert run("enumerate", "--graph", k2_path, "--red", "1,1", "--black", "1,1",
               "--delta", "1", "--horizon", "2", "--out", str(out)) == 0
    total = F(0)
    for line in out.read_text().splitlines():
        if line.startswith("#") or line.startswith("a_"):
            continue
        cells = line.split(",")
        total += F(int(cells[-2]), int(cells[-1]))
    assert total == 1


def test_fit_single_node_outputs_classical_parameter(single_path, tmp_path, capsys):
    out = tmp_path / "fit.json"
    assert run("fit", "--graph", single_path, "--red", "1", "--black", "1",
               "--delta", "1", "--horizon", "8", "--out", str(out)) == 0
    record = json.loads(out.read_text())
    assert record["delta_hat"] == pytest.approx(0.5, abs=1e-6)
    assert abs(record["kl"]) <= 1e-9
    assert record["rho"] == 0.5


def test_sis_threshold_run(tmp_path, capsys):
    k5 = tmp_path / "k5.edges"
    graph.write_edge_list(graph.generate_complete(5), k5)
    out = tmp_path / "sis.csv"
    assert run("sis", "--graph", str(k5), "--beta", "0.2", "--delta-sis", "0.9",
               "--horizon", "200", "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert "classification=dies_out" in printed
    last = out.read_text().strip().splitlines()[-1].split(",")
    assert float(last[-1]) <= 1e-6


def test_simulate_writes_header_with_seed(k2_path, tmp_path):
    out = tmp_path / "traj.csv"
    assert run("simulate", "--graph", k2_path, "--delta", "1", "--horizon", "5",
               "--trials", "100", "--seed", "9", "--out", str(out)) == 0
    first = out.read_text().splitlines()[0]
    assert "master_seed=9" in first
    assert "config_sha256=" in first


def test_simulate_defaults_seed_zero(k2_path, tmp_path):
    out = tmp_path / "traj.csv"
    assert run("simulate", "--graph", k2_path, "--delta", "1", "--horizon", "3",
               "--trials", "10", "--out", str(out)) == 0
    assert "master_seed=0" in out.read_text().splitlines()[0]


def test_simulate_rerun_is_bit_identical(k2_path, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--graph", k2_path, "--delta", "2", "--horizon", "10",
            "--trials", "500", "--seed", "77"]
    assert run(*args, "--out", str(a)) == 0
    assert run(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_usage_errors_return_one(k2_path, capsys):
    assert run("bogus-command") == 1
    assert run("simulate", "--graph", k2_path, "--delta", "-1",
               "--horizon", "2", "--trials", "1") == 1
    assert "delta must be >= 0" in capsys.readouterr().err
    assert run("simulate", "--graph", k2_path, "--red", "0,1", "--delta", "1",
               "--horizon", "2", "--trials", "1") == 1
    err = capsys.readouterr().err
    assert "red must be > 0" in err and "both colors" in err
    assert run("fit", "--graph", k2_path, "--delta", "1", "--horizon", "2",
               "--node", "7") == 1


@pytest.mark.parametrize("text", ["2\n0 x\n", "abc"], ids=["letter", "no_count"])
def test_malformed_edge_list_is_a_usage_error(tmp_path, capsys, text):
    path = tmp_path / "bad.edges"
    path.write_text(text)
    assert run("fit", "--graph", str(path), "--delta", "1", "--horizon", "2") == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "Traceback" not in err


def test_runtime_errors_return_two(k2_path, capsys):
    assert run("fit", "--graph", "missing.edges", "--delta", "1", "--horizon", "2") == 2
    assert run("enumerate", "--graph", k2_path, "--delta", "1",
               "--horizon", "30") == 2
    assert "exceeds the cap" in capsys.readouterr().err


def test_fit_count_dp_past_the_cap_is_a_runtime_error(tmp_path, capsys):
    # 2^40 x 121 cells: rejected before the count DP allocates its first level
    path = tmp_path / "k3.edges"
    graph.write_edge_list(graph.generate_complete(3), path)
    assert run("fit", "--graph", str(path), "--delta", "1", "--horizon", "40") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "more than the cap of 2^24" in err


def test_config_file_with_flag_override(k2_path, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "graph": k2_path, "red": "1,1", "black": "1,1", "delta": "1",
        "horizon": "2", "trials": "50", "seed": "5",
    }))
    out = tmp_path / "t.csv"
    assert run("simulate", "--config", str(cfg), "--seed", "8",
               "--out", str(out)) == 0
    assert "master_seed=8" in out.read_text().splitlines()[0]


def test_config_round_trip_preserves_decimal_strings(tmp_path):
    # decimal strings parse to exact rationals and serialize back unchanged
    cfg = {"red": "0.1", "black": "2", "delta": "0.3"}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    loaded = cli.load_config(path)
    assert loaded == cfg
    assert cli._fraction(loaded["red"], "red") == F(1, 10)
    assert json.loads(json.dumps(loaded)) == cfg


def test_config_rejects_unknown_fields_and_bad_json(tmp_path, k2_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("simulate", "--config", str(bad)) == 1
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"graph": k2_path, "frobnicate": 1}))
    assert run("simulate", "--config", str(unknown)) == 1


@pytest.mark.parametrize("top", ["[1, 2]", "\"graph\"", "3", "null"])
def test_config_that_is_not_an_object_is_a_usage_error(top, tmp_path, capsys):
    path = tmp_path / "top.json"
    path.write_text(top)
    assert run("simulate", "--config", str(path)) == 1
    err = capsys.readouterr().err
    assert "must be a JSON object" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["sis", "--beta", "1e999", "--delta-sis", "0.1", "--horizon", "3"],
    ["sis", "--beta", "1e-999", "--delta-sis", "0.1", "--horizon", "3"],
    ["sis", "--red", "1e999", "--beta", "0.1", "--delta-sis", "0.1", "--horizon", "3"],
    ["simulate", "--red", "1e999", "--horizon", "3", "--trials", "2"],
    ["simulate", "--delta", "1e999", "--horizon", "3", "--trials", "2"],
    ["simulate", "--curing-multiplier", "1e999", "--horizon", "3", "--trials", "2"],
    ["enumerate", "--delta-black", "1e999", "--horizon", "2"],
    ["fit", "--delta", "1e999", "--horizon", "2"],
    ["fit", "--black", "1e999", "--horizon", "2"],
], ids=lambda argv: "_".join(argv[:3]))
def test_values_outside_the_float_range_are_usage_errors(argv, k2_path, capsys):
    assert run(*argv, "--graph", k2_path) == 1
    err = capsys.readouterr().err
    assert "outside the float range" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--trials", "2"],
    ["fit"],
    ["sis", "--beta", "0.1", "--delta-sis", "0.1"],
], ids=lambda argv: argv[0])
def test_urn_totals_that_overflow_are_usage_errors(argv, k2_path, capsys):
    # simulate used to run on infinite totals: every proportion NaN, every
    # draw black, where the true rate is 1/2
    assert run(*argv, "--graph", k2_path, "--red", "1e308", "--black", "1e308",
               "--horizon", "3") == 1
    err = capsys.readouterr().err
    assert "urn totals must be finite" in err and "Traceback" not in err


def test_bad_thread_environment_is_a_usage_error(k2_path, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("POLYA_NET_THREADS", "abc")
    assert run("simulate", "--graph", k2_path, "--delta", "1", "--horizon", "2",
               "--trials", "1") == 1
    assert run("reproduce", "fig5", "--out-dir", str(tmp_path / "r"), "--trials", "1") == 1
    err = capsys.readouterr().err
    assert err.count("POLYA_NET_THREADS must be an integer") == 2
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--trials", "--threads"])
def test_reproduce_rejects_nonpositive_counts(flag, tmp_path, capsys):
    out = tmp_path / "results"
    assert run("reproduce", "fig5", "--out-dir", str(out), flag, "0") == 1
    assert f"{flag} must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def assert_numeric_csvs(out):
    """Every data field of every CSV in ``out`` parses as a float."""
    for path in out.glob("*.csv"):
        rows = [line for line in path.read_text().splitlines() if not line.startswith("#")]
        for row in rows[1:]:
            for cell in row.split(","):
                float(cell)


def test_reproduce_smoke_runs_scaled_down(tmp_path):
    out = tmp_path / "results"
    assert run("reproduce", "fig5", "--out-dir", str(out), "--trials", "4",
               "--threads", "1") == 0
    files = sorted(p.name for p in out.iterdir())
    assert "sis_comparison_low_inf.csv" in files
    assert "sis_reference_same.csv" in files
    assert (out / "sis_reference_low.csv").read_text().splitlines()[1] == "t,mean"
    assert_numeric_csvs(out)


def test_reproduce_fig2_smoke(tmp_path):
    out = tmp_path / "results"
    assert run("reproduce", "fig2", "--out-dir", str(out), "--trials", "50",
               "--threads", "1") == 0
    assert (out / "stationarity.csv").exists()


def test_reproduce_fig4_smoke(tmp_path):
    out = tmp_path / "results"
    assert run("reproduce", "fig4", "--out-dir", str(out), "--trials", "60",
               "--threads", "1") == 0
    assert (out / "histogram_classical.csv").exists()
    assert (out / "histogram_ba100.csv").exists()
    assert (out / "beta_density_ba100.csv").read_text().splitlines()[1] == "x,pdf"
    assert_numeric_csvs(out)


@pytest.fixture
def path3(tmp_path):
    path = tmp_path / "path3.edges"
    graph.write_edge_list(graph.build_network(3, [(0, 1), (1, 2)]), path)
    return str(path)


@pytest.mark.parametrize("masses", [
    ["--delta-red", "1e308", "--delta-black", "1e308"],  # totals overflow mid-run
    ["--red", "5e307", "--black", "5e307", "--delta", "1"],  # pooled totals from step 1
], ids=["reinforcements", "pooled"])
def test_urn_masses_that_overflow_mid_run_are_runtime_errors(masses, path3, tmp_path, capsys):
    # both used to exit 0 with numpy warnings and an all-zero trajectory
    out = tmp_path / "traj.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("simulate", "--graph", path3, *masses, "--horizon", "20",
                   "--trials", "4", "--threads", "1", "--out", str(out)) == 2
    assert not caught
    err = capsys.readouterr().err
    assert err.startswith("error: urn masses left the float range during steps 1-20")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not out.exists()


def test_exact_table_beyond_the_int_string_limit_is_a_runtime_error(path3, tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert run("enumerate", "--graph", path3, "--red", "1e999", "--horizon", "2",
               "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "int-to-string limit" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not out.exists()
    assert run("enumerate", "--graph", path3, "--red", "1e999", "--horizon", "2") == 2
    assert capsys.readouterr().out == ""
