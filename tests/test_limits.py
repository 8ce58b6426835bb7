"""Where each table-size limit falls: the largest input that a cap site
accepts and the smallest that it refuses.

The 2^24-cell rule is one check, ``errors.check_cells``; each row below is
one of its call sites (or the assignment cap that ``RunConfig`` shares
with exact enumeration).  An accepted input either returns, where that is
cheap, or fails a check that comes after the cap, so that no row builds a
large table.  A site whose accepted side would allocate a 2^24-cell float
table (128 MiB) has its refused side only.
"""

import re
from fractions import Fraction as F

import pytest

from polya_net import contagion as cg, exact, graph, montecarlo as mc, sis
from polya_net.errors import (ENUMERATION_CAP, CapExceeded, DomainError, InvalidParameter,
                              SizeMismatch)

K2 = graph.generate_complete(2)
INIT1 = cg.uniform_init(1, F(1), F(1))  # the wrong size for K2: refused after the cap
SIS = sis.SisParams(beta=0.2, delta_sis=0.5)
CELLS = 1 << ENUMERATION_CAP


def _run_config(horizon, **fields):
    return mc.RunConfig(net=K2, init=cg.uniform_init(2, 1.0, 1.0), sched=cg.ConstantDelta(1.0),
                        horizon=horizon, trials=4, seed=1, **fields)


# (largest accepted call, what it gives past the cap or None if it returns),
# (smallest refused call, the error and a message it holds)
BOUNDARIES = {
    # n x n cells: 4096 nodes allocate the 128 MiB view
    "dense_view": (None, (lambda: graph.generate_cycle(4097).closed_adjacency,
                          CapExceeded, "a dense view of 4097 nodes")),
    # (horizon + 1) x N cells
    "simulate_path": (
        (lambda: cg.simulate_path(K2, INIT1, cg.ConstantDelta(1), CELLS // 2 - 1, None),
         SizeMismatch),
        (lambda: cg.simulate_path(K2, INIT1, cg.ConstantDelta(1), CELLS // 2, None),
         CapExceeded, "a path")),
    "run_config_statistics": (
        (lambda: _run_config(CELLS // 2 - 1), None),
        (lambda: _run_config(CELLS // 2), CapExceeded, "per-step statistics")),
    # N x horizon assignment bits, as in exact enumeration
    "run_config_assignments": (
        (lambda: _run_config(ENUMERATION_CAP // 2, collect_assignments=True), None),
        (lambda: _run_config(ENUMERATION_CAP // 2 + 1, collect_assignments=True),
         InvalidParameter, "exceeds the cap")),
    # (horizon + 1) x rate pairs x N cells
    "sis_run_many": (
        (lambda: sis.sis_run_many(K2, [0.5], [SIS, SIS], CELLS // 4 - 1), SizeMismatch),
        (lambda: sis.sis_run_many(K2, [0.5], [SIS, SIS], CELLS // 4),
         CapExceeded, "a trajectory")),
    # n + 1 cells: n = 2^24 - 1 allocates several 128 MiB rows
    "classical_count_log_probs": (
        None, (lambda: exact.classical_count_log_probs(exact.PolyaParams(0.5, 1.0), CELLS),
               CapExceeded, "more than the cap of 2^24")),
    # len(s) x (n + 1) cells; an s outside [0, 1] is refused after the cap
    "binomial_pmf": (
        (lambda: exact.binomial_pmf(CELLS // 2 - 1, [2.0, 0.5]), DomainError),
        (lambda: exact.binomial_pmf(CELLS // 2, [2.0, 0.5]), CapExceeded, "binomial")),
    # (N h + 1) 2^h cells: 1301 x 2^13 fit, 1401 x 2^14 do not
    "count_dp_table": (
        (lambda: exact.check_count_dp_cap(100, 13), None),
        (lambda: exact.check_count_dp_cap(100, 14), CapExceeded, "the count DP")),
    # 2^h alone: a horizon past the cap is refused before 2^h is built
    "count_dp_horizon": (
        (lambda: exact.check_count_dp_cap(0, ENUMERATION_CAP), None),
        (lambda: exact.check_count_dp_cap(0, ENUMERATION_CAP + 1), CapExceeded,
         "more than the cap of 2^24")),
    # N (N (h - 1) + 1) cells of the last step's binomial table
    "count_dp_binomial": (
        (lambda: exact.check_count_dp_cap(1448, 9), None),
        (lambda: exact.check_count_dp_cap(1449, 9), CapExceeded, "binomial table of")),
}


@pytest.mark.parametrize("site", sorted(BOUNDARIES))
def test_each_cap_site_accepts_up_to_its_limit_and_refuses_past_it(site):
    accepted, (refused, error, message) = BOUNDARIES[site]
    if accepted is not None:
        call, after = accepted
        if after is None:
            call()
        else:  # the cap passed: a later check refuses it
            with pytest.raises(after):
                call()
    with pytest.raises(error, match=re.escape(message)):
        refused()

