import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from polya_net import cli, contagion as cg, exact, graph, montecarlo as mc


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


HUGE_HORIZON = "1" + "0" * 30


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


def test_enumerate_csv_ends_lines_with_newline_only(k2_path, tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert run("enumerate", "--graph", k2_path, "--horizon", "1", "--out", str(out)) == 0
    assert b"\r" not in out.read_bytes()
    assert run("enumerate", "--graph", k2_path, "--horizon", "1") == 0
    assert "\r" not in capsys.readouterr().out


def _enumerated_csv(tmp_path, kind, nodes, *flags):
    edges = tmp_path / "g.edges"
    graph.write_edge_list(graph.generate(kind, nodes), edges)
    out = tmp_path / "table.csv"
    assert run("enumerate", "--graph", str(edges), *flags, "--out", str(out)) == 0
    return out.read_bytes()


def _written_csv(sched, horizon, memory=None):
    # enumerate has no memory or curing option, so these cases write the
    # library's table, with the command's header
    init = cg.UrnInit(red=(F(1), F(2)), black=(F(2), F(1)))
    buf = io.StringIO()
    exact.enumerate_joint(graph.generate_complete(2), init, sched, horizon,
                          memory=memory).write_csv(buf, [f"nodes=2 horizon={horizon} exact=True"])
    return buf.getvalue().encode()


@pytest.mark.parametrize("table, digest", [
    (lambda p: _enumerated_csv(p, "cycle", 4, "--horizon", "3"),
     "9d4f7dddcb323690705f66ed46a47f59e4945f21a214a2e40f0c8b20d15b9a2e"),
    (lambda p: _enumerated_csv(p, "complete", 2, "--horizon", "3", "--red", "1,2",
                               "--black", "2,1", "--delta-red", "1,1/2", "--delta-black", "2,3"),
     "29f83afb9a0dd7f1ff3c6c83bf24522174e81af2f4348bc5448b5ff1390e83c5"),
    (lambda p: _written_csv(cg.ConstantDelta(F(1), F(2)), 4, memory=2),
     "813a361c7fc7fac9097718f2c09f29725551aa0b0b597c22910578a21f93e95c"),
    (lambda p: _written_csv(cg.CuringDelta(F(1), F(3, 2)), 4),
     "a5663c423c95023ce69f2a7f2e6c7f5a9d4363a42da6e5a3d221f4f58e43f6e4"),
    (lambda p: _enumerated_csv(p, "cycle", 4, "--horizon", "3", "--float"),
     "18a53fed05b883cc19d7a464545217b6cb0ac93b6f22d5347bd908202d3f7314"),
], ids=["cycle4_h3", "K2_per_node_h3", "K2_memory2_h4", "K2_curing_h4", "cycle4_h3_float"])
def test_exact_enumeration_writes_pinned_bytes(table, digest, tmp_path):
    # exact tables use no BLAS product, and the float table pools integer
    # urns, whose sums are exact, so these bytes are the same on any CPU; a
    # change to how tables are built or written must leave them as they are
    assert hashlib.sha256(table(tmp_path)).hexdigest() == digest


FIG4_HISTOGRAM_DIGESTS = {
    "classical": "68e0a1d117a491d11346765a57bef4e17da384bea43b10d198e00ab5acf6e0c1",
    "ba5": "54009bd31e4ed7ffa34e25b19a9ace12726a9a0d35b6cd4907a460a99e69ef8b",
    "ba100": "88537eab2c70938ba9be2704c58fd6c877e249b437ccb6e77c20adc220defe64",
}


FIG4_BETA_DENSITY_DIGESTS = {
    "classical": "deafe7fad97c51ac5db657a9e07fdc2726b8e53f74c13843f9ef3a5ef58e4bd3",
    "ba5": "0292188eee6f79e844616194c114a7a6b95a026432cf49e05ca01b8e39371900",
    "ba100": "cce142fcb52791be948583057f11a9ae6b6fbf248d92240dc481622adb07a3f2",
}


def test_fig4_histograms_write_pinned_bytes(tmp_path):
    # a histogram is binned from integer draw counts, so a change to the
    # steps that moved one draw changes these bytes; a Beta density takes
    # only its case's closed-form parameters
    assert run("reproduce", "fig4", "--trials", "40", "--threads", "1",
               "--out-dir", str(tmp_path)) == 0
    for prefix, pinned in (("histogram", FIG4_HISTOGRAM_DIGESTS),
                           ("beta_density", FIG4_BETA_DENSITY_DIGESTS)):
        digests = {name: hashlib.sha256((tmp_path / f"{prefix}_{name}.csv").read_bytes())
                   .hexdigest() for name in pinned}
        assert digests == pinned, prefix


@pytest.mark.parametrize("kind, nodes, horizon, digest", [
    ("cycle", 4, "4", "3cf0813163a0d250f740fe10eb3f13f8f5fa201946e239fe01599f6100bf9fb7"),
    ("ba", 10, "2", "9cde40a8a93601d921d1316d874633f603e79cf7dfeea773c7ffa529568221a0"),
    ("complete", 100, "12", "5fbca304fb0a3e791e4b5369106ea1aefee0e8c44b28d6b963df6f48a99dcd1a"),
], ids=["cycle4_h4", "ba10_h2", "K100_h12"])
def test_fit_writes_pinned_bytes(kind, nodes, horizon, digest, tmp_path, capsys):
    # the cycle and BA fits merge histories of integer urns; K100 takes the
    # count DP's products, whose bits can follow the BLAS kernel
    edges = tmp_path / "g.edges"
    graph.write_edge_list(graph.generate(kind, nodes, m=2, seed=1), edges)
    out = tmp_path / "fit.json"
    assert run("fit", "--graph", str(edges), "--horizon", horizon, "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert capsys.readouterr().out == out.read_text()


def test_simulate_writes_pinned_bytes(tmp_path):
    # integer urns and masses pool exactly, so these bytes are the same on
    # any CPU
    edges = tmp_path / "cycle4.edges"
    graph.write_edge_list(graph.generate_cycle(4), edges)
    out = tmp_path / "sim.csv"
    assert run("simulate", "--graph", str(edges), "--horizon", "30", "--trials", "64",
               "--seed", "7", "--pair-node", "1", "--threads", "1", "--out", str(out)) == 0
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == "562921337dd250e1c2edabf5ada44022719141f9704333e8650019a3148b5b40")


def test_sis_writes_pinned_bytes(tmp_path):
    # the recursion takes each neighbourhood's product by reduceat and the
    # rest elementwise, with no BLAS product, so these bytes are the same on
    # any CPU; the header's classification is far from the threshold
    edges = tmp_path / "ba10.edges"
    graph.write_edge_list(graph.generate("ba", 10, m=2, seed=1), edges)
    out = tmp_path / "sis.csv"
    assert run("sis", "--graph", str(edges), "--beta", "0.3", "--delta-sis", "0.2",
               "--horizon", "100", "--out", str(out)) == 0
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == "61d57b647117bf650b0dd02454f92bad7b055a55ff12f30490a742079e743b14")


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


_SCIPY_LOADS = """
import json, sys
from polya_net import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
heavy = ("scipy.stats", "scipy.special", "scipy.sparse")
print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith(heavy))]))
"""


def _heavy_scipy_modules_after(argvs):
    """Exit codes of ``cli.main`` on each argv, run in a fresh interpreter,
    and the scipy.stats / special / sparse modules it then has loaded."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run([sys.executable, "-c", _SCIPY_LOADS, json.dumps(argvs)],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_the_cli_loads_no_heavy_scipy_module():
    assert _heavy_scipy_modules_after([]) == [[], []]


def test_commands_that_need_no_scipy_load_none(tmp_path):
    k4, k100 = str(tmp_path / "k4.edges"), str(tmp_path / "k100.edges")
    ba100 = str(tmp_path / "ba100.edges")
    argvs = [["graph-gen", "--kind", "complete", "--nodes", "4", "--out", k4],
             ["graph-gen", "--kind", "complete", "--nodes", "100", "--out", k100],
             ["enumerate", "--graph", k4, "--horizon", "2", "--out", str(tmp_path / "t.csv")],
             ["sis", "--graph", k4, "--beta", "0.2", "--delta-sis", "0.9", "--horizon", "20",
              "--out", str(tmp_path / "sis.csv")],
             ["fit", "--graph", k100, "--delta", "1", "--horizon", "6",
              "--out", str(tmp_path / "fit.json")],
             # fig4's ba100 leg pools by dense products, its KS distance
             # takes the numpy Beta CDF
             ["reproduce", "fig4", "--trials", "40", "--threads", "1",
              "--out-dir", str(tmp_path / "fig4")],
             ["graph-gen", "--kind", "ba", "--nodes", "100", "--attach", "2", "--out", ba100],
             ["simulate", "--graph", ba100, "--delta", "1", "--horizon", "20", "--trials", "8",
              "--threads", "1"]]
    assert cg.DENSE_POOLING_MAX_NODES >= 100
    assert _heavy_scipy_modules_after(argvs) == [[0] * len(argvs), []]
    assert json.loads((tmp_path / "fit.json").read_text())["node"] == 0


def test_a_run_above_the_dense_cap_loads_only_scipy_sparse(tmp_path):
    path = str(tmp_path / "big.edges")
    n = str(cg.DENSE_POOLING_MAX_NODES + 1)
    argvs = [["graph-gen", "--kind", "ba", "--nodes", n, "--attach", "2", "--out", path],
             ["simulate", "--graph", path, "--delta", "1", "--horizon", "20", "--trials", "8",
              "--threads", "1"]]
    codes, loaded = _heavy_scipy_modules_after(argvs)
    assert codes == [0, 0] and "scipy.sparse" in loaded
    assert all(m.startswith("scipy.sparse") for m in loaded), loaded


@pytest.mark.parametrize("flags, sched, memory", [
    (["--delta-red", "1", "--delta-black", "2", "--memory", "2"],
     cg.ConstantDelta(F(1), F(2)), 2),
    (["--delta-red", "1", "--curing-multiplier", "3/2"], cg.CuringDelta(F(1), F(3, 2)), None),
], ids=["memory", "curing"])
def test_enumerate_writes_finite_memory_and_curing_tables(tmp_path, flags, sched, memory):
    net = graph.build_network(3, [(0, 1), (1, 2)])
    path, out = tmp_path / "path3.edges", tmp_path / "table.csv"
    graph.write_edge_list(net, path)
    assert run("enumerate", "--graph", str(path), "--red", "1,2,1", "--black", "2,1,1",
               "--horizon", "3", *flags, "--out", str(out)) == 0
    init = cg.UrnInit(red=(F(1), F(2), F(1)), black=(F(2), F(1), F(1)))
    expected = io.StringIO()
    exact.enumerate_joint(net, init, sched, 3, memory=memory).write_csv(
        expected, header_lines=["nodes=3 horizon=3 exact=True"])
    assert out.read_bytes() == expected.getvalue().encode()


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


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--horizon", HUGE_HORIZON, "--trials", "2"], "per-step statistics"),
    (["sis", "--beta", "0.1", "--delta-sis", "0.1", "--horizon", HUGE_HORIZON], "a trajectory"),
    (["fit", "--horizon", HUGE_HORIZON], "the count DP"),
    (["fit", "--red", "1e-300", "--black", "1e-300", "--delta", "1e300", "--horizon", "2"],
     "search range"),
    (["enumerate", "--float", "--delta", "5e307", "--horizon", "3"], "left the float range"),
    (["enumerate", "--horizon", "20", "--cap", "40"], "above the largest allowed"),
], ids=["simulate_horizon", "sis_horizon", "fit_horizon", "fit_search", "float_table",
        "enumerate_cap"])
def test_sizes_and_masses_out_of_range_are_runtime_errors(argv, message, k2_path, capsys):
    # each used to end in a traceback (ValueError, OverflowError) or, for the
    # float table, in NaN probabilities and exit code 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(*argv, "--graph", k2_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1


def test_fit_with_log_probabilities_out_of_float_range_is_a_runtime_error(tmp_path, capsys):
    # delta passed the 10 x d range check, the coarse grid overflowed, and
    # the record said "kl": NaN with exit code 0
    path = tmp_path / "k3.edges"
    graph.write_edge_list(graph.generate_complete(3), path)
    assert run("fit", "--graph", str(path), "--red", "1", "--black", "1",
               "--delta", "5e306", "--horizon", "12") == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: the classical log-probabilities at delta ")


def test_fit_names_a_red_fraction_that_rounds_to_one(k2_path, capsys):
    # 1e300 / (1e300 + 1) is 1.0 in float; the count DP used to say only
    # "need 0 < rho < 1 and delta >= 0"
    assert run("fit", "--graph", k2_path, "--red", "1e300", "--black", "1",
               "--horizon", "2") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0] == "error: rho must lie in (0, 1), got 1.0"


def test_a_memory_past_the_horizon_runs_as_infinite_memory(k2_path, tmp_path):
    # the ring buffer of 10^17 steps used to be allocated up front
    base = ["simulate", "--graph", k2_path, "--horizon", "5", "--trials", "30", "--seed", "3"]
    assert run(*base, "--memory", "100000000000000000", "--out", str(tmp_path / "a.csv")) == 0
    assert run(*base, "--out", str(tmp_path / "b.csv")) == 0
    a, b = ((tmp_path / f).read_text().splitlines() for f in ("a.csv", "b.csv"))
    assert a[1:] == b[1:]  # the header's config hash records the memory


def test_a_trial_count_past_the_philox_key_is_refused_at_once(k2_path, capsys):
    # 10^30 trials used to build about 10^24 chunk bounds in a list
    start = time.perf_counter()
    assert run("simulate", "--graph", k2_path, "--horizon", "5",
               "--trials", "1" + "0" * 30) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: trials must be below 2^64")


def test_an_edge_list_of_too_few_edges_for_its_node_count_is_refused_at_once(tmp_path, capsys):
    # building the neighbour lists of 10^12 nodes used to run out of memory
    path = tmp_path / "huge.edges"
    path.write_text("1000000000000\n0 1\n")
    assert run("sis", "--graph", str(path), "--beta", "0.1", "--delta-sis", "0.1",
               "--horizon", "1") == 2
    assert "is not connected" in capsys.readouterr().err


def test_sis_on_a_network_past_the_dense_cell_cap_is_refused(tmp_path, capsys):
    # the spectral radius's dense N x N adjacency used to be allocated for any N
    path = tmp_path / "cycle4097.edges"
    graph.write_edge_list(graph.generate_cycle(4097), path)
    assert run("sis", "--graph", str(path), "--beta", "0.1", "--delta-sis", "0.5",
               "--horizon", "1") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "4097 nodes" in err[0]


def test_a_negative_graph_seed_is_refused(capsys):
    assert run("graph-gen", "--kind", "ba", "--nodes", "5", "--seed", "-5") == 2
    assert "seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["graph", "out"])
def test_config_paths_must_be_strings(key, k2_path, tmp_path, capsys):
    # open(1, "w") is standard output, and closing it broke the process
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"graph": k2_path, key: 1}))
    assert run("sis", "--config", str(config), "--beta", "0.1", "--delta-sis", "0.1",
               "--horizon", "1") == 1
    assert f"{key} must be a path string" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["complete", "ba"])
def test_a_graph_past_the_edge_budget_is_refused_at_once(kind, capsys):
    # building the n(n-1)/2 edges of a complete graph on 10^20 nodes hung
    start = time.perf_counter()
    assert run("graph-gen", "--kind", kind, "--nodes", "1" + "0" * 20, "--attach", "2") == 2
    assert time.perf_counter() - start < 1
    assert "past the budget" in capsys.readouterr().err


@pytest.mark.parametrize("value, exact_table", [
    ("no", None), ("false", None), (1, None), (True, False), (False, True),
])
def test_the_float_config_field_takes_only_booleans(value, exact_table, k2_path, tmp_path,
                                                    capsys):
    config, out = tmp_path / "c.json", tmp_path / "t.csv"
    config.write_text(json.dumps({"graph": k2_path, "horizon": "1", "float": value}))
    code = run("enumerate", "--config", str(config), "--out", str(out))
    if exact_table is None:
        assert code == 1
        assert "float must be true or false" in capsys.readouterr().err
    else:
        assert code == 0
        assert out.read_text().splitlines()[0].endswith(f"exact={exact_table}")


@pytest.mark.parametrize("config, flags", [({"delta": 0}, ["--delta", "0"]),
                                           ({}, ["--delta", "1"])], ids=["zero", "absent"])
def test_fit_delta_default_applies_only_when_the_field_is_absent(config, flags, k2_path,
                                                                 tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"graph": k2_path, "horizon": "2", **config}))
    assert run("fit", "--config", str(path)) == 0
    from_config = capsys.readouterr().out
    assert run("fit", "--graph", k2_path, "--horizon", "2", *flags) == 0
    assert capsys.readouterr().out == from_config


def _store(flag, dest, choices=None, type=None):
    return (flag,), dest, "_StoreAction", None, choices, type


_HELP = ("-h", "--help"), "help", "_HelpAction", None, None, None
_NET_FLAGS = {_store("--graph", "graph"), _store("--red", "red"), _store("--black", "black")}
# (option strings, dest, action, const, choices, type) of every option, as
# the subcommands had them when each flag was still written out by hand
PINNED_OPTIONS = {
    "graph-gen": {_HELP, _store("--config", "config"),
                  _store("--kind", "kind", ("complete", "cycle", "star", "ba")),
                  _store("--nodes", "nodes"), _store("--attach", "attach"),
                  _store("--seed", "seed"), _store("--out", "out")},
    "simulate": {_HELP, _store("--config", "config"), *_NET_FLAGS, _store("--delta", "delta"),
                 _store("--delta-red", "delta_red"), _store("--delta-black", "delta_black"),
                 _store("--curing-multiplier", "curing_multiplier"),
                 _store("--memory", "memory"), _store("--horizon", "horizon"),
                 _store("--trials", "trials"), _store("--seed", "seed"),
                 _store("--pair-node", "pair_node"), _store("--threads", "threads"),
                 _store("--out", "out")},
    "enumerate": {_HELP, _store("--config", "config"), *_NET_FLAGS, _store("--delta", "delta"),
                  _store("--delta-red", "delta_red"), _store("--delta-black", "delta_black"),
                  _store("--curing-multiplier", "curing_multiplier"),
                  _store("--memory", "memory"),
                  _store("--horizon", "horizon"), _store("--cap", "cap"),
                  (("--float",), "float", "_StoreConstAction", True, None, None),
                  _store("--out", "out")},
    "fit": {_HELP, _store("--config", "config"), *_NET_FLAGS, _store("--delta", "delta"),
            _store("--horizon", "horizon"), _store("--node", "node"), _store("--out", "out")},
    "sis": {_HELP, _store("--config", "config"), *_NET_FLAGS, _store("--beta", "beta"),
            _store("--delta-sis", "delta_sis"), _store("--horizon", "horizon"),
            _store("--out", "out")},
    "reproduce": {_HELP, ((), "figure", "_StoreAction", None, ("fig2", "fig4", "fig5"), None),
                  _store("--out-dir", "out_dir"), _store("--trials", "trials", type="int"),
                  _store("--threads", "threads", type="int")},
}


def test_every_subcommand_keeps_its_option_set():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {
        command: {(tuple(a.option_strings), a.dest, type(a).__name__, a.const,
                   tuple(a.choices) if a.choices else None, getattr(a.type, "__name__", None))
                  for a in parser._actions}
        for command, parser in sub.choices.items()}
    assert options == PINNED_OPTIONS


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("command", sorted(PINNED_OPTIONS))
def test_one_subcommands_parser_is_that_of_the_full_parser(command):
    full = _subparsers(cli.build_parser())[command]
    alone = _subparsers(cli.build_parser(command))
    assert list(alone) == [command]
    options = {(tuple(a.option_strings), a.dest, type(a).__name__, a.const,
                tuple(a.choices) if a.choices else None, getattr(a.type, "__name__", None))
               for a in alone[command]._actions}
    assert options == PINNED_OPTIONS[command]
    assert alone[command].format_help() == full.format_help()


def test_a_parser_of_no_subcommand_is_refused():
    with pytest.raises(ValueError):
        cli.build_parser("nope")


@pytest.mark.parametrize("argv, code, err", [
    ([], 1, "usage error: the following arguments are required: command"),
    (["-h"], 0, ""),
    # the choices' quoting follows the Python version
    (["nope"], 1, "usage error: argument command: invalid choice: 'nope' "),
    (["fit", "--bogus"], 1, "usage error: unrecognized arguments: --bogus"),
])
def test_calls_that_name_no_subcommand_read_as_with_every_subcommand(argv, code, err, capsys):
    try:
        got = cli.main(argv)
    except SystemExit as e:  # -h prints the help and exits
        got = e.code
    out, printed = capsys.readouterr()
    assert got == code
    assert printed.startswith(err) and len(printed.splitlines()) == (code != 0)
    if argv == ["-h"]:
        assert out == cli.build_parser().format_help()


# sha256 of canned outputs whose bits are the same on any CPU: the SIS
# recursion is elementwise plus reduceat, and the urn runs here pool
# integer masses, whose sums are exact
CANNED_DIGESTS = {
    ("fig5", "8"): {
        "sis_reference_low.csv":
            "8d2435155f82eb9d55c47ed6cc4ec4f2660984d938c04dec0cf3caed1308822c",
        "sis_reference_met.csv":
            "f8e9996c3526bf61d9b9a5ddca93fa0304e969a9e61a3734834acef0992cfb5c",
        "sis_reference_same.csv":
            "9341742e95f17614c225fd652063145c94e1321d5d878a1fdf42fe8fe61b4527",
        "sis_comparison_same_inf.csv":
            "c40882c3f39136489b9b23cc5fd932117a63c7fdc71588e469f5cdae585b9812",
        "sis_comparison_same_m50.csv":
            "d16245e90038baf2655325d99ce099d46412438ec080b6609b515e14df185eb6",
    },
    ("fig2", "32"): {
        "stationarity.csv": "3e6ade12176892d74251bd2678d17f90ff3878ec20bfa89556dd525d5d256f02",
    },
}


@pytest.mark.parametrize("figure, trials", sorted(CANNED_DIGESTS))
def test_canned_outputs_write_pinned_bytes(figure, trials, tmp_path):
    assert run("reproduce", figure, "--trials", trials, "--threads", "1",
               "--out-dir", str(tmp_path)) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in CANNED_DIGESTS[figure, trials]}
    assert digests == CANNED_DIGESTS[figure, trials]


# ----------------------------------------------------------------------
# Property: every argument list ends in a documented exit code
# ----------------------------------------------------------------------

HUGE = "1" + "0" * 30


def field(valid, edge):
    """A flag value: one of ``valid`` seven times in eight, else an ``edge``."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(valid), st.sampled_from(valid),
                     st.sampled_from(valid), st.sampled_from(valid), st.sampled_from(valid),
                     st.sampled_from(valid), st.sampled_from(edge))


# mass fields: huge, tiny, negative, non-finite, rational and junk numbers,
# and comma lists of a length that fits no network here
MASS_EDGE = ["0", "-1", "-3/2", "1e-400", "1e-300", "5e307", "1e308", "1e999", "-1e999",
             HUGE, "nan", "inf", "1/0", "x", "", "1,2,3,4,5", "1,,2"]
MASS = field(["0.5", "1", "2", "1/3", "3/7", "100"], MASS_EDGE)
DELTA = field(["0", "0.5", "1", "2", "1/3"], MASS_EDGE)
PROB = field(["0", "0.1", "0.5", "1"], ["1.5", "-0.1", "1e-400", "1e999", HUGE, "nan", "x"])
# counts whose huge values must be refused before any work is done
HORIZON = field(["1", "2", "3"], ["-1", "0", "1.5", "1e3", "x", "", HUGE, str(2 ** 63)])
INDEX = field(["0", "1"], ["-1", "5", "1.5", "x", HUGE])
FIELDS = {
    "red": MASS, "black": MASS, "delta": DELTA, "delta_red": DELTA, "delta_black": DELTA,
    "curing_multiplier": DELTA, "beta": PROB, "delta_sis": PROB, "horizon": HORIZON,
    "memory": field(["1", "2", "inf", HUGE], ["-1", "0", "x"]),
    "seed": field(["0", "7", "-5", HUGE, "-" + HUGE], ["1.5", "x"]),
    "pair_node": INDEX, "node": INDEX,
    "cap": field(["4", "24"], ["-1", "0", "40", "1e999", "x"]),
    # counts whose huge values are merely long runs stay small
    "trials": field(["1", "7", "40"], ["-1", "0", "1.5", "x"]),
    "threads": field(["1", "2"], ["0", "-1", "x"]),
    "kind": field(["complete", "cycle", "star", "ba"], ["x", ""]),
    "nodes": field(["1", "2", "5"], ["-1", "0", "1.5", "x", HUGE]),
    "attach": field(["1", "2"], ["0", "9", "x"]),
}
REQUIRED = {"horizon", "beta", "delta_sis", "kind", "nodes"}
RARE = {"delta_red", "delta_black", "curing_multiplier"}  # each excludes --delta
COMMANDS = {
    "graph-gen": cli._GRAPH_KEYS, "simulate": cli._SIM_KEYS, "enumerate": cli._ENUM_KEYS,
    "fit": cli._FIT_KEYS, "sis": cli._SIS_KEYS,
}
EDGE_TEXT = field(
    ["1\n", "2\n0 1\n", "3\n0 1\n1 2\n", "3\n1 0\n0 1\n2 1\n", "4\n0 1\n1 2\n2 3\n3 0\n"],
    ["", "x", "2\n0 0\n", "2\n0 5\n", "3\n0 1\n", "-1\n", "0\n", "2\n0 1 1\n",
     "2\n0 1.5\n", HUGE + "\n0 1\n"])
JSON_VALUE = st.one_of(st.none(), st.booleans(), st.integers(-3, 5),
                       st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
                       st.lists(st.integers(0, 3), max_size=3))


@st.composite
def argvs(draw, root):
    """(argv, files): an argument list, and the text of each file it names."""
    files = {}
    command = draw(st.sampled_from([*COMMANDS, "reproduce", "bogus"]))
    if command == "reproduce":  # only arguments that are refused before a run
        return [command, draw(st.sampled_from(["fig2", "fig5", "fig9"])),
                draw(st.sampled_from(["--trials", "--threads"])),
                draw(st.sampled_from(["0", "-3", "x"])), "--out-dir", str(root / "r")], files
    argv = [command]
    keys = COMMANDS.get(command, [])
    for key in keys:
        odds = 9 if key in REQUIRED else 1 if key in RARE else 4  # in 10
        if key in ("graph", "out") or draw(st.integers(0, 9)) >= odds:
            continue
        if key == "float":
            argv.append("--float")
        else:
            argv += ["--" + key.replace("_", "-"), draw(FIELDS[key])]
    if "graph" in keys and draw(st.integers(0, 9)):
        files["g.edges"] = draw(EDGE_TEXT)
        argv += ["--graph", str(root / "g.edges")]
    if "out" in keys and draw(st.booleans()):
        argv += ["--out", str(draw(st.sampled_from([root / "o.txt", root, root / "no/o.txt"])))]
    if draw(st.integers(0, 5)) == 0:
        top = draw(st.one_of(
            st.dictionaries(st.sampled_from([*keys, "bogus"]), JSON_VALUE, max_size=4),
            JSON_VALUE))
        files["c.json"] = draw(st.sampled_from([json.dumps(top), "{not json"]))
        argv += ["--config", str(root / "c.json")]
    if draw(st.integers(0, 19)) == 0:
        argv.append("--bogus")
    return argv, files


@pytest.fixture(scope="module")
def argv_root(tmp_path_factory):
    return tmp_path_factory.mktemp("argv")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_argv_exits_with_a_documented_code_and_one_line(data, argv_root, capfd):
    argv, files = data.draw(argvs(argv_root))
    for name, text in files.items():
        (argv_root / name).write_text(text)
    # 16 trials per chunk, so that --threads 2 runs several chunks in workers
    with mock.patch.object(mc, "UNIFORM_BUFFER_BYTES", 0), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv)
    err = capfd.readouterr().err  # fd-level: worker processes write there too
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert len(err.splitlines()) == (code != 0), err
