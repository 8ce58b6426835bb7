"""Command-line interface: graph generation, simulation, enumeration,
model fits, the SIS comparator, and canned figure reproductions.

Numeric config fields travel as decimal strings (parsed exactly via
``Fraction``) so exact-arithmetic runs are not polluted by float
round-tripping.  Command-line flags override config-file fields.  Exit
codes: 0 success, 1 usage/validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import __version__, approx, exact, experiments, graph, montecarlo as mc, sis
from .contagion import ConstantDelta, CuringDelta, UrnInit
from .errors import InvalidParameter, ParseError, PolyaNetError, ValidationError


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Usage(message)


def load_config(path) -> dict:
    """Read a JSON config file; errors carry position information."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise ParseError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ParseError(
            f"config {path} is not valid JSON (line {e.lineno}, column {e.colno}): {e.msg}"
        ) from e
    if not isinstance(data, dict):
        raise ValidationError(
            f"config {path} must be a JSON object of fields, got a {type(data).__name__}")
    return data


def _merged(args: argparse.Namespace, keys: list[str]) -> dict:
    """Overlay: defaults < config file < explicitly given flags."""
    cfg = load_config(args.config) if getattr(args, "config", None) else {}
    unknown = set(cfg) - set(keys)
    if unknown:
        raise ValidationError(f"unknown config fields: {sorted(unknown)}")
    out = {}
    for key in keys:
        flag = getattr(args, key, None)
        out[key] = flag if flag is not None else cfg.get(key)
    for key in _PATH_KEYS & set(keys):
        # open() takes an integer as a file descriptor: {"out": 1} would
        # write to, and then close, standard output
        if out[key] is not None and not isinstance(out[key], str):
            raise ValidationError(f"{key} must be a path string, got {out[key]!r}")
    return out


def _fraction(text, field: str) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as e:
        raise ValidationError(f"{field} must be a decimal or rational string, got {text!r}") from e


def _float(value: Fraction, field: str) -> float:
    """``float(value)``; a value that overflows, or that is nonzero and
    rounds to zero, is outside the float range and a usage error."""
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if math.isinf(out) or (out == 0 and value != 0):
        exponent = math.log10(abs(value.numerator)) - math.log10(value.denominator)
        raise ValidationError(f"{field} of about 1e{exponent:+.0f} is outside the float range")
    return out


def _mass_list(text, field: str, n: int, *, positive: bool) -> tuple:
    if text is None:
        values = [Fraction(1)] * n
    else:
        parts = str(text).split(",")
        values = [_fraction(p, field) for p in parts]
        if len(values) == 1:
            values = values * n
        if len(values) != n:
            raise ValidationError(
                f"{field} needs 1 or {n} comma-separated values, got {len(values)}"
            )
    for i, v in enumerate(values):
        if positive and v <= 0:
            raise ValidationError(
                f"{field} must be > 0 for every node (urns need both colors); "
                f"node {i} has {v}"
            )
        if not positive and v < 0:
            raise ValidationError(f"{field} must be >= 0; node {i} has {v}")
    return tuple(values)


def _require(cond: bool, message: str):
    if not cond:
        raise ValidationError(message)


def _load_net(settings) -> graph.Network:
    _require(settings.get("graph") is not None, "a --graph edge-list file is required")
    return graph.read_edge_list(settings["graph"])


def _int_field(settings, field, default=None, minimum=None):
    raw = settings.get(field)
    if raw is None:
        raw = default
    _require(raw is not None, f"{field} is required")
    try:
        value = int(str(raw))
    except ValueError:
        raise ValidationError(f"{field} must be an integer, got {raw!r}")
    if minimum is not None:
        _require(value >= minimum, f"{field} must be >= {minimum}, got {value}")
    return value


def _urns(settings, n: int) -> UrnInit:
    red = _mass_list(settings.get("red"), "red", n, positive=True)
    black = _mass_list(settings.get("black"), "black", n, positive=True)
    return UrnInit(red=red, black=black)


def _schedule(settings, n: int, exact_mode: bool):
    delta = settings.get("delta")
    delta_red = settings.get("delta_red", None)
    delta_black = settings.get("delta_black", None)
    mult = settings.get("curing_multiplier")
    if delta is not None and (delta_red is not None or delta_black is not None):
        raise ValidationError("give either --delta or --delta-red/--delta-black, not both")

    def conv(v, field):  # every schedule keeps float masses for the batched paths
        f = _float(v, field)
        return v if exact_mode else f

    if mult is not None:
        dr = _fraction(delta_red if delta_red is not None else delta or 0, "delta_red")
        _require(dr >= 0, f"delta_red must be >= 0, got {dr}")
        m = _fraction(mult, "curing_multiplier")
        _require(m >= 0, f"curing_multiplier must be >= 0, got {m}")
        return CuringDelta(conv(dr, "delta_red"), conv(m, "curing_multiplier"))
    if delta is not None:
        masses = _mass_list(delta, "delta", n, positive=False)
        return ConstantDelta(tuple(conv(v, "delta") for v in masses))
    red = _mass_list(delta_red if delta_red is not None else "0", "delta_red", n,
                     positive=False)
    black = _mass_list(delta_black if delta_black is not None else "0", "delta_black", n,
                       positive=False)
    return ConstantDelta(tuple(conv(v, "delta_red") for v in red),
                         tuple(conv(v, "delta_black") for v in black))


def _to_float_init(init: UrnInit) -> UrnInit:
    try:
        return UrnInit(red=tuple(_float(v, "red") for v in init.red),
                       black=tuple(_float(v, "black") for v in init.black))
    except InvalidParameter as e:  # finite masses whose totals overflow
        raise ValidationError(str(e)) from e


# ----------------------------------------------------------------------
# Subcommand handlers
# ----------------------------------------------------------------------

_PATH_KEYS = {"graph", "out"}
_KINDS = ("complete", "cycle", "star", "ba")
_GRAPH_KEYS = ["kind", "nodes", "attach", "seed", "out"]
_SIM_KEYS = ["graph", "red", "black", "delta", "delta_red", "delta_black",
             "curing_multiplier", "memory", "horizon", "trials", "seed",
             "pair_node", "out", "threads"]
_ENUM_KEYS = ["graph", "red", "black", "delta", "delta_red", "delta_black",
              "horizon", "cap", "float", "out"]
_FIT_KEYS = ["graph", "red", "black", "delta", "horizon", "node", "out"]
_SIS_KEYS = ["graph", "red", "black", "beta", "delta_sis", "horizon", "out"]


def _cmd_graph_gen(args) -> int:
    s = _merged(args, _GRAPH_KEYS)
    _require(s["kind"] in _KINDS, f"kind must be {'|'.join(_KINDS)}, got {s['kind']!r}")
    n = _int_field(s, "nodes", minimum=1)
    m = _int_field(s, "attach", default=1, minimum=1) if s["kind"] == "ba" else None
    seed = _int_field(s, "seed", default=0)
    net = graph.generate(s["kind"], n, m=m, seed=seed)
    if s["out"]:
        graph.write_edge_list(net, s["out"])
    else:
        sys.stdout.write(f"{net.node_count}\n")
        for i, j in net.edges:
            sys.stdout.write(f"{i} {j}\n")
    return 0


def _cmd_simulate(args) -> int:
    s = _merged(args, _SIM_KEYS)
    net = _load_net(s)
    init = _to_float_init(_urns(s, net.node_count))
    sched = _schedule(s, net.node_count, exact_mode=False)
    horizon = _int_field(s, "horizon", minimum=1)
    trials = _int_field(s, "trials", default=1000, minimum=1)
    seed = _int_field(s, "seed", default=0)
    memory = s.get("memory")
    memory = None if memory in (None, "", "inf") else _int_field(s, "memory", minimum=1)
    pair_node = s.get("pair_node")
    pair_node = None if pair_node is None else _int_field(s, "pair_node", minimum=0)
    if pair_node is not None:
        _require(pair_node < net.node_count, f"pair_node {pair_node} not in the network")
    threads = _int_field(s, "threads", default=experiments.default_threads(), minimum=1)
    cfg = mc.RunConfig(net=net, init=init, sched=sched, horizon=horizon,
                       trials=trials, seed=seed, memory=memory,
                       collect_pair_freq=pair_node is not None, threads=threads)
    stats = mc.run_trials(cfg)
    if s["out"]:
        mc.write_trajectory_csv(stats, cfg, s["out"], pair_node=pair_node)
    final = stats.infection_rate[horizon]
    print(f"config={mc.config_hash(cfg)} seed={seed} trials={trials} "
          f"final_infection_rate={final:.6f} "
          f"final_susceptibility={stats.susceptibility[horizon]:.6f}")
    return 0


def _cmd_enumerate(args) -> int:
    s = _merged(args, _ENUM_KEYS)
    net = _load_net(s)
    init = _urns(s, net.node_count)
    horizon = _int_field(s, "horizon", minimum=1)
    cap = _int_field(s, "cap", default=exact.ENUMERATION_CAP, minimum=1)
    # a config string such as "no" is not a boolean
    _require(s["float"] is None or isinstance(s["float"], bool),
             f"float must be true or false, got {s['float']!r}")
    use_float = bool(s["float"])
    sched = _schedule(s, net.node_count, exact_mode=not use_float)
    if use_float:
        init = _to_float_init(init)
    table = exact.enumerate_joint(net, init, sched, horizon, exact=not use_float, cap=cap)
    header = [f"nodes={net.node_count} horizon={horizon} exact={table.exact}"]
    if s["out"]:
        table.write_csv(s["out"], header_lines=header)
        print(f"wrote {2 ** (net.node_count * horizon)} assignments to {s['out']}")
    else:
        table.write_csv(sys.stdout, header_lines=header)
    return 0


def _cmd_fit(args) -> int:
    s = _merged(args, _FIT_KEYS)
    net = _load_net(s)
    init = _urns(s, net.node_count)
    delta = _fraction("1" if s["delta"] is None else s["delta"], "delta")
    _require(delta >= 0, f"delta must be >= 0, got {delta}")
    # only a range check: the urns stay exact, so the fit sums the super urn
    # in Fractions and rounds rho and the node delta once
    _to_float_init(init)
    _float(delta, "delta")
    horizon = _int_field(s, "horizon", minimum=1)
    node = _int_field(s, "node", default=0, minimum=0)
    _require(node < net.node_count, f"node {node} not in the network")
    record = approx.fit_node(net, init, delta, node, horizon)
    blob = json.dumps(record, indent=2)
    if s["out"]:
        with open(s["out"], "w") as fh:
            fh.write(blob + "\n")
    print(blob)
    return 0


def _cmd_sis(args) -> int:
    s = _merged(args, _SIS_KEYS)
    net = _load_net(s)
    init = _urns(s, net.node_count)
    _require(s.get("beta") is not None, "--beta is required")
    _require(s.get("delta_sis") is not None, "--delta-sis is required")
    _to_float_init(init)  # the recursion starts from float(red) / float(total)
    beta = _float(_fraction(s["beta"], "beta"), "beta")
    delta_sis = _float(_fraction(s["delta_sis"], "delta_sis"), "delta_sis")
    horizon = _int_field(s, "horizon", minimum=0)
    params = sis.SisParams(beta=beta, delta_sis=delta_sis)
    traj = sis.sis_run(net, sis.default_initial_probs(init), params, horizon)
    verdict = sis.threshold_classify(net, params)
    if s["out"]:
        mc.write_csv(s["out"], {"beta": beta, "delta_sis": delta_sis,
                                "classification": verdict, "version": __version__},
                     ["t", *(f"P_{i + 1}" for i in range(net.node_count)), "mean"],
                     ((t, *traj.probs[t], traj.mean[t]) for t in range(horizon + 1)))
    print(f"classification={verdict} lambda_max={net.spectral_radius:.6f} "
          f"final_mean={traj.mean[-1]:.3e}")
    return 0


def _cmd_reproduce(args) -> int:
    for flag in ("trials", "threads"):
        value = getattr(args, flag)
        _require(value is None or value >= 1, f"--{flag} must be >= 1, got {value}")
    out_dir = args.out_dir or "results"
    os.makedirs(out_dir, exist_ok=True)
    threads = args.threads or experiments.default_threads()
    if args.figure == "fig2":
        trials = args.trials or experiments.STATIONARITY_TRIALS
        cfg, stats, report = experiments.run_stationarity(trials=trials, threads=threads)
        path = os.path.join(out_dir, "stationarity.csv")
        mc.write_trajectory_csv(stats, cfg, path, pair_node=experiments.STATIONARITY_NODE)
        print(f"wrote {path}; settled={report.settled_value:.6f} "
              f"max_successive_deviation={report.max_successive_deviation:.6f}")
        return 0
    if args.figure == "fig4":
        trials = args.trials or experiments.HIST_TRIALS
        for name in experiments.HIST_CASES:
            cfg, stats, node, beta, ks = experiments.histogram_case(name, trials=trials,
                                                                    threads=threads)
            hist = mc.histogram(stats.sample_averages[:, node], bins=40)
            path = os.path.join(out_dir, f"histogram_{name}.csv")
            mc.write_histogram_csv(hist, cfg, path)
            mc.write_csv(os.path.join(out_dir, f"beta_density_{name}.csv"),
                         {"alpha": beta.alpha, "beta": beta.beta, "node": node}, ["x", "pdf"],
                         ((f"{x:.3f}", exact.beta_pdf(beta, x))
                          for x in np.linspace(0.005, 0.995, 199)))
            print(f"wrote {path}; node={node} beta=({beta.alpha:.4f},{beta.beta:.4f}) "
                  f"ks={ks:.4f}")
        return 0
    if args.figure == "fig5":
        trials = args.trials or experiments.SIS_TRIALS
        net = experiments.sis_comparison_network()
        lam = net.spectral_radius
        for name, ratio in experiments.sis_ratio_cases(net).items():
            for memory in (None, experiments.SIS_MEMORY):
                cfg, stats = experiments.run_sis_comparison(
                    ratio, memory, trials=trials, threads=threads)
                tag = "inf" if memory is None else f"m{memory}"
                path = os.path.join(out_dir, f"sis_comparison_{name}_{tag}.csv")
                mc.write_trajectory_csv(stats, cfg, path)
                print(f"wrote {path}; ratio={ratio:.4f} "
                      f"final={stats.infection_rate[cfg.horizon]:.4f}")
            traj = experiments.run_sis_reference(ratio)
            path = os.path.join(out_dir, f"sis_reference_{name}.csv")
            mc.write_csv(path, {"ratio": ratio, "beta": experiments.SIS_BETA, "lambda_max": lam},
                         ["t", "mean"], enumerate(traj.mean))
            print(f"wrote {path}")
        return 0
    raise ValidationError(f"unknown figure {args.figure!r}")


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

_THREADS_HELP = ("worker processes for Monte Carlo chunks "
                 "(default: POLYA_NET_THREADS, else all cores)")
# argparse settings beyond a plain string option, for the keys that have any
_FLAG_EXTRAS = {
    "graph": dict(help="edge-list file (first line N, then 'i j' rows)"),
    "red": dict(help="per-node red mass list, e.g. 1,2,1 (default 1)"),
    "black": dict(help="per-node black mass list (default 1)"),
    "kind": dict(choices=_KINDS),
    "attach": dict(help="attachment count m for ba"),
    "delta": dict(help="constant equal red/black mass (a per-node list, except in fit)"),
    "curing_multiplier": dict(help="black mass = multiplier x martingale bound"),
    "memory": dict(help="finite memory M (default infinite)"),
    "pair_node": dict(help="also record this node's consecutive-pair frequency"),
    "threads": dict(help=_THREADS_HELP),
    "cap": dict(help=f"lower the enumeration cap of 2^{exact.ENUMERATION_CAP} assignments"),
    "float": dict(action="store_const", const=True,
                  help="float table instead of exact rationals"),
    "out": dict(help="output file"),
}
_COMMANDS = {
    "graph-gen": (_cmd_graph_gen, "emit a generated network as an edge list", _GRAPH_KEYS),
    "simulate": (_cmd_simulate, "Monte Carlo trajectories", _SIM_KEYS),
    "enumerate": (_cmd_enumerate, "exact joint distribution table", _ENUM_KEYS),
    "fit": (_cmd_fit, "classical-urn approximations for one node", _FIT_KEYS),
    "sis": (_cmd_sis, "deterministic SIS recursion and threshold", _SIS_KEYS),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="polya-net",
                     description="Network contagion via super-urn sampling")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text, keys) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override its fields")
        for key in keys:
            p.add_argument("--" + key.replace("_", "-"), **_FLAG_EXTRAS.get(key, {}))
        p.set_defaults(func=func)

    rep = sub.add_parser("reproduce", help="run a canned figure experiment")
    rep.add_argument("figure", choices=["fig2", "fig4", "fig5"])
    rep.add_argument("--out-dir", dest="out_dir")
    rep.add_argument("--trials", type=int, help="override the canned trial count")
    rep.add_argument("--threads", type=int, help=_THREADS_HELP)
    rep.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _Usage as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (_Usage, ParseError, ValidationError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except PolyaNetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
