"""The benchmark's workloads: their inputs, their operations and the checks
on what those operations write.

Every operation is one ``polya_net.cli.main`` call made in-process with the
argument list a user would type for ``polya-net reproduce`` or
``polya-net fit``.  Two things are bound before the first call, because the
canned ``reproduce`` command has no flag for them: the master seed of the
canned experiment (so a claim can be re-checked on a seed that was not used
while the change was written) and, for fig4, the restriction to its
``ba100`` leg.  With the default seed, the outputs are those of the canned
experiment at the chosen trial count.

Output checks use only digests that do not depend on chunk size or thread
count: integer red-draw counts, pair counts and histogram bin counts, all
recovered from the CSVs, plus floats compared within a stated tolerance.
Whole CSVs are never hashed, since their header carries the config hash,
which includes the chunk size.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import json
import math
import os
import re
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from io import StringIO

# Float tolerances, per kind of output.
CSV_REL_TOL = 1e-9        # sums of repr-written floats; accumulation order may change
PRINTED_ABS_TOL = 1.1e-4  # values the CLI prints with 4 or 6 decimals
FIT_REL_TOL = 1e-6        # fit records; the golden-section refinement stops at 1e-6
INTEGRAL_TOL = 1e-6       # how far a recovered count may sit from an integer


class OutputError(Exception):
    """An operation's outputs are missing, malformed or wrong."""


@dataclass
class Outputs:
    """What one operation produced, reduced to checkable values."""

    ints: dict = field(default_factory=dict)    # name -> list of counts
    floats: dict = field(default_factory=dict)  # name -> (value, rel_tol, abs_tol)
    configs: list = field(default_factory=list)  # (file, config_hash, master_seed)

    def digest(self) -> dict:
        blob = json.dumps(self.ints, sort_keys=True).encode()
        return {"ints": hashlib.sha256(blob).hexdigest()[:16],
                "floats": {k: v[0] for k, v in sorted(self.floats.items())}}


def mismatches(got: Outputs, want: dict, exact: bool = False) -> list[str]:
    """Differences between an operation's outputs and a digest.

    ``exact`` requires bit-identical floats (same configuration, same code);
    otherwise each float is compared within its tolerance.
    """
    mine = got.digest()
    out = []
    if mine["ints"] != want["ints"]:
        out.append(f"integer counts differ: {mine['ints']} != {want['ints']}")
    if set(mine["floats"]) != set(want["floats"]):
        out.append(f"float outputs differ in names: {sorted(mine['floats'])}")
        return out
    for key, (value, rel, abs_) in got.floats.items():
        other = want["floats"][key]
        same = value == other if exact else math.isclose(value, other, rel_tol=rel, abs_tol=abs_)
        if not same:
            out.append(f"{key}: {value!r} != {other!r}")
    return out


@dataclass(frozen=True)
class Leg:
    """One operation: a CLI argument list whose outputs go to ``out_dir``."""

    name: str
    argv: tuple
    out_dir: str


def call_cli(cli, argv) -> tuple[int, str]:
    buf = StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


# ----------------------------------------------------------------------
# Output readers
# ----------------------------------------------------------------------

_HEADER = re.compile(r"config_sha256=(\w+) master_seed=(\d+)")


def _read_csv(path):
    if not os.path.exists(path):
        raise OutputError(f"missing output {path}")
    with open(path, newline="") as fh:
        first = fh.readline()
        rows = list(csv.reader(fh))
    return first, rows[0], rows[1:]


def _config_of(path, first_line):
    m = _HEADER.search(first_line)
    if not m:
        raise OutputError(f"{path} has no provenance header")
    return os.path.basename(path), m.group(1), int(m.group(2))


def _number(text: str) -> float:
    """A float as the CLI writes it: ``repr`` of a float or, for numpy
    scalars under numpy 2, ``np.float64(x)``."""
    m = re.fullmatch(r"np\.float64\((.*)\)", text)
    return float(m.group(1) if m else text)


def _integral(values, scale, what):
    out = []
    for v in values:
        x = v * scale
        k = round(x)
        if abs(x - k) > INTEGRAL_TOL or k < 0:
            raise OutputError(f"{what}: {x!r} is not a count")
        out.append(k)
    return out


def _printed(text, key):
    m = re.search(rf"{key}=(-?[0-9.]+)", text)
    if not m:
        raise OutputError(f"the CLI printed no {key}")
    return float(m.group(1))


def read_trajectory(path, trials, nodes, out: Outputs, tag: str) -> None:
    """Red-draw counts per step (and node-0 pair counts when present)."""
    first, cols, rows = _read_csv(path)
    out.configs.append(_config_of(path, first))
    out.ints[f"{tag}.red_draws"] = _integral([_number(r[1]) for r in rows], trials * nodes, path)
    if "pair_freq" in cols:
        out.ints[f"{tag}.pair_counts"] = _integral([_number(r[3]) for r in rows[1:]], trials, path)
    out.floats[f"{tag}.susceptibility_sum"] = (
        math.fsum(_number(r[2]) for r in rows), CSV_REL_TOL, 0.0)


def read_histogram(path, trials, out: Outputs, tag: str) -> None:
    """Bin counts of the per-trial sample averages, which are exact."""
    first, _, rows = _read_csv(path)
    out.configs.append(_config_of(path, first))
    counts = [_number(d) * trials * (_number(hi) - _number(lo)) for lo, hi, d in rows]
    out.ints[f"{tag}.bin_counts"] = _integral(counts, 1, path)
    if sum(out.ints[f"{tag}.bin_counts"]) != trials:
        raise OutputError(f"{path}: bin counts do not add up to {trials} trials")


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

class Workload:
    name: str
    threads = 1   # threads the workload's commands run on

    def default_seed(self, pkg) -> int:
        raise NotImplementedError

    def bind(self, pkg, seed: int) -> None:
        """Bind the inputs the CLI has no flag for (before any tracing)."""
        self.seed = seed

    def setup(self, pkg, work_dir: str, sizes: str) -> list[Leg]:
        """Write input files and warm lazy set-up."""
        raise NotImplementedError

    def node_steps(self, pkg, sizes: str) -> int:
        """trials * horizon * nodes of one round of legs (0 without Monte Carlo)."""
        return 0

    def read(self, pkg, leg: Leg, stdout: str) -> Outputs:
        raise NotImplementedError

    def reference(self, pkg, leg: Leg) -> Outputs | None:
        """The leg's outputs by a second route that must agree, or None."""
        return None


class CannedRun(Workload):
    """One ``polya-net reproduce`` figure at a chosen trial count."""

    def __init__(self, name, figure, threads, trials, warm_trials, seeded, seed_const):
        self.name, self.figure, self.threads = name, figure, threads
        self.trials = trials            # sizes -> trials
        self.warm_trials = warm_trials
        self.seeded = seeded            # experiments function that takes the seed
        self.seed_const = seed_const    # experiments constant holding the canned seed

    def default_seed(self, pkg):
        return getattr(pkg.experiments, self.seed_const)

    def _argv(self, trials, out_dir):
        return ("reproduce", self.figure, "--trials", str(trials),
                "--threads", str(self.threads), "--out-dir", out_dir)

    def bind(self, pkg, seed):
        super().bind(pkg, seed)
        xp = pkg.experiments
        if self.figure == "fig4":
            xp.HIST_CASES = {"ba100": xp.HIST_CASES["ba100"]}
        setattr(xp, self.seeded, _with_seed(getattr(xp, self.seeded), seed))

    def setup(self, pkg, work_dir, sizes):
        warm = os.path.join(work_dir, "warm")
        os.makedirs(warm, exist_ok=True)
        code, _ = call_cli(pkg.cli, self._argv(self.warm_trials, warm))
        if code != 0:
            raise OutputError(f"warm-up run exited with {code}")
        out_dir = os.path.join(work_dir, self.figure)
        return [Leg(self.figure, self._argv(self.trials[sizes], out_dir), out_dir)]

    def _shape(self, pkg):
        """(runs, horizon, nodes) of the figure's Monte Carlo runs."""
        xp = pkg.experiments
        if self.figure == "fig4":
            return 1, xp.HIST_HORIZON, xp.HIST_CASES["ba100"]["net"][1]
        if self.figure == "fig2":
            return 1, xp.STATIONARITY_HORIZON, xp.STATIONARITY_NET[1]
        return 6, xp.SIS_HORIZON, xp.SIS_NET[1]  # three ratios x memory {inf, M}

    def node_steps(self, pkg, sizes):
        runs, h, n = self._shape(pkg)
        return runs * self.trials[sizes] * h * n

    def read(self, pkg, leg, stdout):
        out = self._read(pkg, leg, stdout)
        for name, _, master in out.configs:
            if master != self.seed:
                raise OutputError(f"{name} was run with master seed {master}, not {self.seed}")
        return out

    def _read(self, pkg, leg, stdout):
        out = Outputs()
        trials = int(leg.argv[3])
        _, _, nodes = self._shape(pkg)
        if self.figure == "fig4":
            read_histogram(os.path.join(leg.out_dir, "histogram_ba100.csv"), trials, out, "ba100")
            out.floats["ba100.ks"] = (_printed(stdout, "ks"), 0.0, PRINTED_ABS_TOL)
        elif self.figure == "fig2":
            read_trajectory(os.path.join(leg.out_dir, "stationarity.csv"), trials, nodes,
                            out, "stationarity")
            for key in ("settled", "max_successive_deviation"):
                out.floats[f"stationarity.{key}"] = (_printed(stdout, key), 0.0, PRINTED_ABS_TOL)
        else:
            for name in ("low", "met", "same"):
                for tag in ("inf", f"m{pkg.experiments.SIS_MEMORY}"):
                    path = os.path.join(leg.out_dir, f"sis_comparison_{name}_{tag}.csv")
                    read_trajectory(path, trials, nodes, out, f"{name}_{tag}")
                _, _, rows = _read_csv(os.path.join(leg.out_dir, f"sis_reference_{name}.csv"))
                out.floats[f"{name}.sis_mean_sum"] = (
                    math.fsum(_number(r[1]) for r in rows), CSV_REL_TOL, 0.0)
        return out

    def reference(self, pkg, leg):
        """The same command with every run re-chunked into three chunks.

        Statistics are documented to be independent of chunking, so the
        integer counts must match exactly and the floats within tolerance.
        """
        mc = pkg.montecarlo
        original = mc.run_trials

        def rechunked(cfg):
            return original(dataclasses.replace(cfg, chunk_size=-(-cfg.trials // 3)))

        mc.run_trials = rechunked
        try:
            code, stdout = call_cli(pkg.cli, leg.argv)
        finally:
            mc.run_trials = original
        if code != 0:
            raise OutputError(f"re-chunked run exited with {code}")
        return self.read(pkg, leg, stdout)


def _with_seed(fn, seed):
    """``fn`` with its ``seed`` argument bound; keeps fn's name and module."""
    @functools.wraps(fn)
    def seeded(*args, **kwargs):
        kwargs["seed"] = seed
        return fn(*args, **kwargs)

    return seeded


@dataclass(frozen=True)
class FitCase:
    name: str
    kind: str
    nodes: int
    attach: int | None
    horizon: int
    rational: bool = False   # nodes * horizon <= 16: the fit enumerates in Fractions


class ExactFit(Workload):
    """``polya-net fit`` on node 0 with delta 1 and rational 1/1 urns.

    The seed picks the preferential-attachment graph; the other networks
    are fixed.
    """

    name = "exact_fit"
    CASES = {
        "full": (FitCase("cycle4_h5", "cycle", 4, None, 5),
                 FitCase("cycle4_h4", "cycle", 4, None, 4, rational=True),
                 FitCase("ba10_h2", "ba", 10, 2, 2),
                 FitCase("k100_h12", "complete", 100, None, 12)),
        "tiny": (FitCase("cycle4_h3", "cycle", 4, None, 3, rational=True),
                 FitCase("ba9_h2", "ba", 9, 2, 2),
                 FitCase("k20_h4", "complete", 20, None, 4)),
    }
    # a small fit that pays the count DP's lazy import of scipy.stats
    WARM = (FitCase("k3_h2", "complete", 3, None, 2),)

    def default_seed(self, pkg):
        return 1

    def _legs(self, pkg, cases, work_dir, seed):
        legs = []
        for case in cases:
            net = pkg.graph.generate(case.kind, case.nodes, m=case.attach, seed=seed)
            path = os.path.join(work_dir, f"{case.name}.edges")
            pkg.graph.write_edge_list(net, path)
            argv = ("fit", "--graph", path, "--red", "1", "--black", "1", "--delta", "1",
                    "--horizon", str(case.horizon), "--node", "0",
                    "--out", os.path.join(work_dir, case.name, "fit.json"))
            legs.append(Leg(case.name, argv, os.path.join(work_dir, case.name)))
        return legs

    def setup(self, pkg, work_dir, sizes):
        os.makedirs(work_dir, exist_ok=True)
        for leg in self._legs(pkg, self.WARM, work_dir, self.seed):
            os.makedirs(leg.out_dir, exist_ok=True)
            code, _ = call_cli(pkg.cli, leg.argv)
            if code != 0:
                raise OutputError(f"warm-up fit {leg.name} exited with {code}")
        self._cases = {c.name: c for c in self.CASES[sizes]}
        return self._legs(pkg, self.CASES[sizes], work_dir, self.seed)

    def read(self, pkg, leg, stdout):
        path = leg.argv[-1]
        if not os.path.exists(path):
            raise OutputError(f"missing output {path}")
        with open(path) as fh:
            return _fit_outputs(leg.name, json.load(fh))

    def reference(self, pkg, leg):
        """For the rational leg: the exact table by the public API must have
        unit mass (compared with ==), and fitting its marginal must give the
        record the CLI wrote."""
        case = self._cases[leg.name]
        if not case.rational:
            return None
        ConstantDelta, uniform_init = pkg.contagion.ConstantDelta, pkg.contagion.uniform_init
        net = pkg.graph.read_edge_list(leg.argv[2])
        init = uniform_init(case.nodes, Fraction(1), Fraction(1))
        table = pkg.exact.enumerate_joint(net, init, ConstantDelta(Fraction(1)), case.horizon,
                                          exact=True)
        if table.total() != 1:
            raise OutputError(f"{leg.name}: exact table mass {table.total()} != 1")
        marginal = table.node_marginal(0)
        if sum(marginal.values()) != 1:
            raise OutputError(f"{leg.name}: exact node marginal does not sum to 1")
        record = pkg.approx.fit_node(net, init, Fraction(1), 0, case.horizon, marginal=marginal)
        return _fit_outputs(leg.name, record)


def _fit_outputs(name, record) -> Outputs:
    out = Outputs()
    out.ints[f"{name}.node"] = [record["node"]]
    for key, value in record.items():
        if key != "node":
            if not math.isfinite(value):
                raise OutputError(f"{name}: {key} = {value!r}")
            out.floats[f"{name}.{key}"] = (value, FIT_REL_TOL, 1e-12)
    return out


# Trial counts fill whole auto-sized chunks where the figure has several
# (83 trials per chunk for ba100, 1677 for fig2), so a run has the chunk
# shape of the canned figure; fig2's four chunks keep both threads busy.
WORKLOADS = {
    w.name: w for w in (
        CannedRun("mc_ba100", "fig4", threads=1, trials={"full": 166, "tiny": 40},
                  warm_trials=40, seeded="histogram_case", seed_const="HIST_SEED"),
        CannedRun("mc_stationarity", "fig2", threads=2, trials={"full": 6708, "tiny": 64},
                  warm_trials=16, seeded="run_stationarity", seed_const="STATIONARITY_SEED"),
        CannedRun("mc_sis_memory", "fig5", threads=1, trials={"full": 200, "tiny": 8},
                  warm_trials=2, seeded="run_sis_comparison", seed_const="SIS_SEED"),
        ExactFit(),
    )
}
