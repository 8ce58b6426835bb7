"""polya-net benchmark: canned workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload mc_ba100 [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all      # every workload, one process each
    python3 perfbench/selftest.py                # tiny sizes: metrics, units, tracing

Workloads (see ``BENCHMARK.json`` for why each is there): ``mc_ba100``,
``mc_stationarity``, ``mc_sis_memory`` and ``exact_fit``.  The package is
imported from ``src/`` of the checkout, never from an installed copy.

A run sets up once (imports, input files, warm-up), then repeats rounds of
operations (one ``polya_net.cli.main`` call per leg of the workload) for
``--seconds`` seconds and at least a few rounds.  ``wall_s`` is the sum over
legs of each leg's median operation time.  ``setup_s`` is the median of
the run's own set-up and four more in fresh interpreters, two before and two
after the timed section.  Both are in seconds at a reference host speed:
each time is divided by the host's slowdown measured next to it (see
``hostspeed.py``); the raw times are printed as ``wall_raw_s`` and
``setup_raw_s``, and the slowdown as ``host_slowdown``.  Every
operation's outputs are checked afterwards (see ``workloads.py``); a raise,
a non-zero exit code or a failed check counts as a failed operation.

With ``--trace 1`` rounds alternate between untraced and traced, the
traced ones recording spans around every public function of the package's
modules (see ``tracer.py``); the result line then carries the per-layer
metrics of ``metrics.py``.  Traced outputs must equal untraced ones
bit-for-bit.  Spans, digests and the environment are written at exit to
``perfbench/_out/<workload>/``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run's checks compare outputs
with ``digests.json``, the expected digests per workload, sizes and seed; to
add a seed there, copy the ``digests`` field of a passing run's record file.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here, before any import

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # no BLAS threads: the workloads' own threads stay <= nproc

import argparse
import dataclasses
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import hostspeed
from metrics import END_TO_END, HOOKS, PER_LAYER, REPORT_ONLY, SPEC, round_metrics
from tracer import Tracer, total_seconds
from workloads import WORKLOADS, OutputError, call_cli, mismatches

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "_out"
DIGESTS = BENCH_DIR / "digests.json"
SETUP_PROBES = 4          # set-ups in fresh interpreters, half before and half after
                          # the timed section, besides the run's own
MIN_ROUNDS = 3            # untraced run; a traced run makes at least 2 of each kind
SETUP_PROBE_REPEATS = 3
SPEEDUP_PAIRS = 3
SUBPROCESS_TIMEOUT = 170  # seconds


def load_package():
    """Import polya_net from the checkout's sources, or exit non-zero."""
    if not (SRC / "polya_net" / "__init__.py").is_file():
        sys.exit(f"perfbench: no polya_net sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import polya_net
    import polya_net.cli  # noqa: F401  (binds every submodule on the package)

    if Path(polya_net.__file__).resolve().parent != (SRC / "polya_net").resolve():
        sys.exit(f"perfbench: polya_net was imported from {polya_net.__file__}, not {SRC}")
    return polya_net


def environment(pkg) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "polya_net": pkg.__version__,
        "commit": git_commit(),
    }


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
    except OSError:  # no git on the machine
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------

@dataclasses.dataclass
class Op:
    leg: str
    round: int
    traced: bool
    seconds: float
    error: str | None = None
    outputs: object = None
    probe_s: float = 0.0  # mean time of the host-speed probes before and after

    @property
    def ref_seconds(self) -> float:
        return self.seconds * hostspeed.REF_PROBE_S / self.probe_s


def run_op(pkg, wl, leg, rnd, traced) -> Op:
    shutil.rmtree(leg.out_dir, ignore_errors=True)
    os.makedirs(leg.out_dir)
    start = time.perf_counter()
    try:
        code, stdout = call_cli(pkg.cli, leg.argv)
    except Exception:  # an operation that raises is a failed operation
        return Op(leg.name, rnd, traced, time.perf_counter() - start, traceback.format_exc())
    op = Op(leg.name, rnd, traced, time.perf_counter() - start)
    if code != 0:
        op.error = f"exit code {code}"
        return op
    try:
        op.outputs = wl.read(pkg, leg, stdout)
    except OutputError as e:
        op.error = str(e)
    return op


def measure(pkg, wl, legs, seconds, tracer, min_rounds) -> list[Op]:
    """Rounds of operations for ``seconds``; traced and untraced alternate.

    A round starts only if a round of the median length still fits.
    """
    kinds = (False, True) if tracer else (False,)
    ops: list[Op] = []
    durations = []
    probe_s = hostspeed.probe(wl.threads)
    start = time.perf_counter()
    while len(durations) < min_rounds or (
            time.perf_counter() - start + statistics.median(durations) <= seconds):
        rnd = len(durations)
        traced = kinds[rnd % len(kinds)]
        if traced:
            tracer.trace = f"round{rnd}"
            tracer.install()
        begin = time.perf_counter()
        for leg in legs:
            op = run_op(pkg, wl, leg, rnd, traced)
            before, probe_s = probe_s, hostspeed.probe(wl.threads)
            op.probe_s = (before + probe_s) / 2
            ops.append(op)
        durations.append(time.perf_counter() - begin)
        if traced:
            tracer.uninstall()
    return ops


def check(pkg, wl, legs, ops, expected) -> dict:
    """Mark operations whose outputs disagree with each other, with the
    recorded digest for this seed, or with the workload's reference route.
    Returns the digest of each leg's first good operation."""
    digests = {}
    for leg in legs:
        good = [op for op in ops if op.leg == leg.name and op.error is None]
        if not good:
            continue
        first = good[0].outputs.digest()
        digests[leg.name] = first
        try:
            ref = wl.reference(pkg, leg)
        except Exception:  # a reference that raises fails every operation of the leg
            ref_error = "reference check raised:\n" + traceback.format_exc()
            for op in good:
                op.error = ref_error
            continue
        for op in good:
            problems = mismatches(op.outputs, first, exact=True)
            if leg.name in expected:
                problems += [f"vs recorded: {p}"
                             for p in mismatches(op.outputs, expected[leg.name])]
            if ref is not None:
                problems += [f"vs reference: {p}" for p in mismatches(op.outputs, ref.digest())]
            if problems:
                op.error = "; ".join(problems)
    return digests


def leg_medians(ops, legs, seconds) -> float:
    """Sum over legs of the median untraced operation time, ``seconds(op)``
    (failed operations only if there are no others)."""
    total = 0.0
    for leg in legs:
        mine = [op for op in ops if op.leg == leg.name and not op.traced]
        good = [seconds(op) for op in mine if op.error is None]
        total += statistics.median(good or [seconds(op) for op in mine])
    return total


def setup_with_probe(start, threads) -> tuple[float, float]:
    """Set-up time since ``start`` and the host-speed probe time after it:
    the median of SETUP_PROBE_REPEATS probes, after one that pays the probe's
    own first-call costs."""
    setup_s = time.perf_counter() - start
    hostspeed.probe(threads)
    return setup_s, statistics.median(hostspeed.probe(threads)
                                      for _ in range(SETUP_PROBE_REPEATS))


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def rng_fill_seconds(mc, configs) -> float:
    """Time to draw the uniforms of the same trials from their streams."""
    start = time.perf_counter()
    for cfg in configs:
        for k in range(cfg.trials):
            mc.trial_generator(cfg.seed, k).random((cfg.horizon, cfg.net.node_count))
    return time.perf_counter() - start


def thread_speedup(mc, cfg) -> float:
    """run_trials time at one thread over its time at two, same config:
    the median over SPEEDUP_PAIRS pairs run back to back, alternating which
    side runs first, so that both sides of a pair see the same machine speed."""
    ratios = []
    for pair in range(SPEEDUP_PAIRS):
        times = {}
        for threads in ((1, 2) if pair % 2 == 0 else (2, 1)):
            start = time.perf_counter()
            mc.run_trials(dataclasses.replace(cfg, threads=threads))
            times[threads] = time.perf_counter() - start
        ratios.append(times[1] / times[2])
    return statistics.median(ratios)


def trace_overhead(ops) -> float:
    """Median over adjacent (untraced, traced) pairs of rounds of the traced
    round's time over the untraced one's, less one.  Rounds next to each
    other in time see the same machine speed."""
    times: dict[int, float] = {}
    for op in ops:
        times[op.round] = times.get(op.round, 0.0) + op.seconds
    ratios = [times[r + 1] / times[r] for r in times if r % 2 == 0 and r + 1 in times]
    return statistics.median(ratios) - 1.0


def layer_metrics(pkg, wl, ops, tracer) -> dict:
    traced_rounds = sorted({op.round for op in ops if op.traced})
    per_round = [round_metrics(tracer, f"round{r}") for r in traced_rounds]
    out = {name: _median([m[name] for m in per_round]) for name in per_round[0]}
    out["graph.generate_s"] = total_seconds(tracer.spans_of("setup"), "graph.generate")
    configs = tracer.counts_of(f"round{traced_rounds[-1]}", "montecarlo.configs")
    mc = pkg.montecarlo
    out["montecarlo.rng_fill_s"] = (
        statistics.median(rng_fill_seconds(mc, configs) for _ in range(3)) if configs else 0.0)
    out["montecarlo.thread_speedup"] = (
        thread_speedup(mc, configs[0]) if wl.threads > 1 and configs else 0.0)
    out["bench.trace_overhead_frac"] = trace_overhead(ops)
    return {name: out[name] for name in PER_LAYER}


def _median(values):
    """Median; for counts, a value that occurred."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, help="workload seed (default: the canned one)")
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                   help="length of the timed section")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def probe_setup(args, seed) -> tuple[float, float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe exited with {done.returncode}:\n{done.stderr}")
    return tuple(json.loads(done.stdout.strip().splitlines()[-1]))


def load_digests() -> dict:
    if DIGESTS.is_file():
        return json.loads(DIGESTS.read_text())
    return {}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    pkg = load_package()
    wl = WORKLOADS[args.workload]
    seed = wl.default_seed(pkg) if args.seed is None else args.seed
    sizes = "tiny" if args.tiny else "full"
    wl.bind(pkg, seed)
    tracer = Tracer(pkg, hooks=HOOKS) if args.trace else None
    if tracer:
        tracer.install()
    work = OUT / wl.name / ("probe" if args.setup_probe else "run")
    shutil.rmtree(work, ignore_errors=True)
    legs = wl.setup(pkg, str(work), sizes)
    if tracer:
        tracer.uninstall()
    own_setup = setup_with_probe(_T0, wl.threads)
    if args.setup_probe:
        print(json.dumps(own_setup))
        return 0
    probes = 0 if args.trace else SETUP_PROBES
    setup_samples = [own_setup] + [probe_setup(args, seed) for _ in range(probes // 2)]

    ops = measure(pkg, wl, legs, args.seconds, tracer, 4 if tracer else MIN_ROUNDS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_samples += [probe_setup(args, seed) for _ in range(probes - probes // 2)]

    expected = load_digests().get(wl.name, {}).get(sizes, {}).get(str(seed), {})
    digests = check(pkg, wl, legs, ops, expected)
    failed = sum(op.error is not None for op in ops)
    for op in ops:
        if op.error:
            print(f"perfbench: {op.leg} round {op.round} failed: {op.error}", file=sys.stderr)

    env = environment(pkg)
    configs = sorted({c for op in ops if op.outputs for c in op.outputs.configs})
    untraced = [op for op in ops if not op.traced]
    rounds = sorted({op.round for op in untraced})
    round_times = [sum(op.seconds for op in untraced if op.round == r) for r in rounds]
    ref = hostspeed.REF_PROBE_S
    values = {"wall_s": leg_medians(ops, legs, lambda op: op.ref_seconds),
              "setup_s": statistics.median(s * ref / p for s, p in setup_samples),
              "peak_rss_mb": peak_rss_mb}
    wall_raw_s = leg_medians(ops, legs, lambda op: op.seconds)
    report = {"wall_raw_s": wall_raw_s,
              "setup_raw_s": statistics.median(s for s, _ in setup_samples),
              "host_slowdown": statistics.median(op.probe_s for op in ops) / ref,
              "failed_frac": failed / len(ops)}
    steps = wl.node_steps(pkg, sizes)
    if steps:
        report["node_steps_per_s"] = steps / wall_raw_s

    print(f"perfbench {wl.name} seed={seed} sizes={sizes} trace={args.trace} "
          f"legs={len(legs)} operations={len(ops)}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, sha, master in configs:
        print(f"config {name} config_sha256={sha} master_seed={master}")
    q1, q3 = quartiles(round_times)
    print(f"wall_s {values['wall_s']!r} s (raw round time median "
          f"{statistics.median(round_times):.4f}, quartiles {q1:.4f}..{q3:.4f}, "
          f"{len(rounds)} untraced rounds)")
    print(f"setup_s {values['setup_s']!r} s (median of {len(setup_samples)} set-ups, "
          "raw s / probe s: " + ", ".join(f"{s:.4f}/{p:.4f}" for s, p in setup_samples) + ")")
    print(f"peak_rss_mb {peak_rss_mb!r} MB")
    for name, value in report.items():
        print(f"{name} {value!r} {REPORT_ONLY[name]}"
              + (f" ({failed} of {len(ops)} operations)" if name == "failed_frac" else ""))

    if tracer:
        metrics = layer_metrics(pkg, wl, ops, tracer)
        for name, value in metrics.items():
            print(f"{name} {value!r} {PER_LAYER[name]}")
        units = PER_LAYER
    else:
        metrics, units = {name: values[name] for name in END_TO_END}, END_TO_END

    record = {"workload": wl.name, "seed": seed, "sizes": sizes, "trace": args.trace,
              "seconds": args.seconds, "env": env, "configs": configs, "digests": digests,
              "setup_samples": setup_samples, "metrics": {**values, **report, **metrics},
              "operations": [[op.leg, op.round, op.traced, op.seconds, op.probe_s, op.error]
                             for op in ops],
              "spans": tracer.records() if tracer else []}
    path = OUT / wl.name / f"record-seed{seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        cmd += ["--seed", str(args.seed)] if args.seed is not None else []
        cmd += ["--tiny"] if args.tiny else []
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=10 * SUBPROCESS_TIMEOUT, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited with {done.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
