"""Canned experiment definitions shared by ``polya-net reproduce`` and the
acceptance suite, so a figure reproduction is one config in one place.

Parameter choices the model itself does not force (networks, seeds, urn
contents) are pinned here; every run is reproducible from the master seed
embedded in its outputs.
"""

from __future__ import annotations

import os

import numpy as np

from . import approx, exact, graph, montecarlo as mc, sis
from .contagion import ConstantDelta, UrnInit, uniform_init
from .errors import ValidationError


# ----------------------------------------------------------------------
# Asymptotic-stationarity diagnostic (pair frequencies settling)
# ----------------------------------------------------------------------

STATIONARITY_NET = ("ba", 5, 1, 1)     # kind, nodes, attach, seed
STATIONARITY_RED = 1
STATIONARITY_BLACK = 3
STATIONARITY_DELTA = 1
STATIONARITY_TRIALS = 50_000
STATIONARITY_HORIZON = 1_000
STATIONARITY_WINDOW = 200
STATIONARITY_NODE = 0
STATIONARITY_SEED = 2024


def stationarity_config(trials: int = STATIONARITY_TRIALS,
                        seed: int = STATIONARITY_SEED,
                        threads: int = 1) -> mc.RunConfig:
    kind, n, m, gseed = STATIONARITY_NET
    net = graph.generate(kind, n, m=m, seed=gseed)
    return mc.RunConfig(
        net=net,
        init=uniform_init(n, float(STATIONARITY_RED), float(STATIONARITY_BLACK)),
        sched=ConstantDelta(float(STATIONARITY_DELTA)),
        horizon=STATIONARITY_HORIZON,
        trials=trials,
        seed=seed,
        collect_pair_freq=True,
        threads=threads,
    )


def run_stationarity(trials: int = STATIONARITY_TRIALS, seed: int = STATIONARITY_SEED,
                     threads: int = 1):
    cfg = stationarity_config(trials=trials, seed=seed, threads=threads)
    stats = mc.run_trials(cfg)
    report = mc.stationarity_diagnostic(stats, node=STATIONARITY_NODE,
                                        window=STATIONARITY_WINDOW)
    return cfg, stats, report


# ----------------------------------------------------------------------
# Sample-average histograms against limiting Beta densities
# ----------------------------------------------------------------------

HIST_HORIZON = 1_000
HIST_TRIALS = 5_000
HIST_SEED = 512

HIST_CASES = {
    # classical single-urn reference: sample average is uniform in the limit
    "classical": dict(net=("complete", 1, None, None), red=1, black=1, delta=1,
                      node=0, model="I"),
    # small network, small-network analytic model
    "ba5": dict(net=("ba", 5, 2, 1), red=1, black=1, delta=100,
                node=2, model="IIb"),
    # large network, large-network analytic model
    "ba100": dict(net=("ba", 100, 2, 3), red=1, black=1, delta=1,
                  node=9, model="IIa"),
}


def histogram_case(name: str, trials: int = HIST_TRIALS, seed: int = HIST_SEED,
                   threads: int = 1):
    """Run one histogram case; returns (cfg, stats, node, beta params, ks)."""
    case = HIST_CASES[name]
    kind, n, m, gseed = case["net"]
    net = graph.generate(kind, n, m=m, seed=gseed)
    init = uniform_init(n, float(case["red"]), float(case["black"]))
    delta = float(case["delta"])
    cfg = mc.RunConfig(
        net=net,
        init=init,
        sched=ConstantDelta(delta),
        horizon=HIST_HORIZON,
        trials=trials,
        seed=seed,
        collect_sample_averages=True,
        collect_trajectory=False,  # the histogram reads the sample averages only
        threads=threads,
    )
    stats = mc.run_trials(cfg)
    node = case["node"]
    rho = float(approx.rho_for_node(net, init, node))
    if case["model"] == "I":
        fitted = float(case["delta"]) / float(init.totals[node])
    elif case["model"] == "IIa":
        fitted = float(approx.model2a_delta(net, init, node, delta))
    else:
        fitted = float(approx.model2b_delta(net, init, node, delta))
    beta = exact.BetaParams.from_polya(exact.PolyaParams(rho, fitted))
    ks = mc.ks_fit(stats.sample_averages[:, node], beta)
    return cfg, stats, node, beta, ks


# ----------------------------------------------------------------------
# SIS comparison trajectories at threshold-linked reinforcement ratios
# ----------------------------------------------------------------------

SIS_NET = ("ba", 20, 2, 7)
SIS_BETA = 0.15
SIS_DELTA_RED = 2.0
SIS_TRIALS = 500
SIS_HORIZON = 1_000
SIS_MEMORY = 50
SIS_SEED = 99
SIS_URN_SEED = 41


def sis_comparison_network() -> graph.Network:
    kind, n, m, gseed = SIS_NET
    return graph.generate(kind, n, m=m, seed=gseed)


def sis_comparison_init(net: graph.Network) -> UrnInit:
    rng = np.random.default_rng(SIS_URN_SEED)
    red = tuple(float(v) for v in rng.integers(1, 6, size=net.node_count))
    black = tuple(float(v) for v in rng.integers(1, 6, size=net.node_count))
    return UrnInit(red=red, black=black)


def sis_ratio_cases(net: graph.Network) -> dict:
    lam = net.spectral_radius
    return {"low": lam / 10.0, "met": 1.01 * lam, "same": 1.0}


def run_sis_comparison(ratios, memories=(None, SIS_MEMORY), *,
                       trials: int = SIS_TRIALS, seed: int = SIS_SEED, threads: int = 1):
    """Urn-process trajectories at each reinforcement ratio
    delta_black/delta_red in ``ratios``, one for each memory in
    ``memories`` (None: infinite): per ratio, a list of (cfg, stats) in
    ``memories``' order.  All the runs share a stream, so they run as one
    group (:func:`montecarlo.run_many`), which draws each block's uniforms
    once."""
    net = sis_comparison_network()
    init = sis_comparison_init(net)
    cfgs = [mc.RunConfig(
        net=net,
        init=init,
        sched=ConstantDelta(SIS_DELTA_RED, SIS_DELTA_RED * ratio),
        horizon=SIS_HORIZON,
        trials=trials,
        seed=seed,
        memory=memory,
        threads=threads,
    ) for ratio in ratios for memory in memories]
    runs = list(zip(cfgs, mc.run_many(cfgs)))
    return [runs[i:i + len(memories)] for i in range(0, len(runs), len(memories))]


def run_sis_reference(ratio: float, horizon: int = SIS_HORIZON):
    """Deterministic SIS recursion coupled to the same network and urns."""
    net = sis_comparison_network()
    init = sis_comparison_init(net)
    params = sis.SisParams(beta=SIS_BETA, delta_sis=min(1.0, SIS_BETA * ratio))
    return sis.sis_run(net, sis.default_initial_probs(init), params, horizon)


def default_threads() -> int:
    env = os.environ.get("POLYA_NET_THREADS")
    if not env:
        return os.cpu_count() or 1
    if not env.strip().isdecimal() or int(env) < 1:
        raise ValidationError(f"POLYA_NET_THREADS must be an integer >= 1, got {env!r}")
    return int(env)
