"""End-to-end acceptance criteria, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  The Monte Carlo criteria take on the order of a minute.
"""

import numpy as np
import pytest

from dcsp.costs import CostParams, cost_table1
from dcsp.experiments import FIGURES, ExperimentConfig, run_sweep
from dcsp.linalg import lstsq_augmented, max_ind, max_occ, resid
from dcsp.network import ring_topology
from dcsp.problems import ProblemConfig, generate, success
from dcsp.pursuit import run_batch
from oracle import exhaustive_decoder

BASE_SEED = 20240810


def report(number, name, ok, detail=""):
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {number} ({name}) failed {detail}"


@pytest.fixture(scope="module")
def degeneration_runs():
    """100 full-scale instances run under both full-collaboration drivers.

    Each driver runs on its own draw of the instance's config, so the two
    runs share no cached residual state.
    """
    pairs = []
    for trial in range(100):
        config = ProblemConfig(N=200, M=50, K=10, L=6, seed=BASE_SEED + trial)
        inst = generate(config)
        ssp = run_batch(("ssp",), [inst], None)["ssp"][0]
        dcsp = run_batch(("dcsp",), [generate(config)], ring_topology(6, 6))["dcsp"][0]
        pairs.append((inst, ssp, dcsp))
    return pairs


@pytest.fixture(scope="module")
def desk_scale_runs():
    """200 desk-scale instances with the exhaustive decoder as oracle."""
    runs = []
    for trial in range(200):
        inst = generate(ProblemConfig(N=12, M=8, K=2, L=3, seed=BASE_SEED + 1000 + trial))
        run = run_batch(("dcsp",), [inst], ring_topology(3, 3))["dcsp"][0]
        runs.append((inst, run, exhaustive_decoder(inst)))
    return runs


@pytest.fixture(scope="module")
def l_sweep_rows():
    """The network-scale sweep shared by the message and iteration criteria."""
    config = ExperimentConfig(
        sweep="L",
        values=FIGURES["L"].grid,
        N=200,
        K=10,
        M=50,
        g=3,
        trials=100,
        seed=BASE_SEED,
        jobs=2,
    )
    return run_sweep(config)


def test_criterion_1_success_thresholds():
    config = ExperimentConfig(
        sweep="M",
        values=(26, 30),
        N=200,
        K=10,
        L=6,
        g=3,
        trials=500,
        seed=BASE_SEED,
        jobs=2,
    )
    rows = {row.value: row for row in run_sweep(config)}
    ssp_at_26 = rows[26].stats["ssp"].success_rate
    dcsp_at_30 = rows[30].stats["dcsp"].success_rate
    report(
        1,
        "success thresholds (ssp@M=26, dcsp@M=30, 500 trials)",
        ssp_at_26 >= 0.98 and dcsp_at_30 >= 0.98,
        f"ssp@26={ssp_at_26:.3f} dcsp@30={dcsp_at_30:.3f}",
    )


def test_criterion_2_full_collaboration_degeneration(degeneration_runs):
    mismatches = sum(
        0 if np.array_equal(s.support, d.support) else 1
        for _, s, d in degeneration_runs
    )
    report(
        2,
        "dcsp(g=L) support identical to ssp on 100 instances",
        mismatches == 0,
        f"mismatches={mismatches}",
    )


def test_criterion_3_wire_exactness():
    checked = 0
    exact = True
    for N, K in ((24, 2), (24, 4), (40, 2), (40, 4)):
        M = max(2 * K, N // 2 - 4)
        for L in (2, 3, 5, 8):
            for g in sorted({2, (L + 2) // 2, L}):
                if g < 2 or g > L:
                    continue
                for trial in range(14):
                    cfg = ProblemConfig(N=N, M=M, K=K, L=L, seed=BASE_SEED + checked)
                    inst = generate(cfg)
                    s = run_batch(("ssp",), [inst], None)["ssp"][0]
                    exact &= s.wire.total == cost_table1(
                        "ssp", CostParams(N=N, K=K, L=L, T=s.iterations)
                    )
                    d = run_batch(("dcsp",), [inst], ring_topology(L, g))["dcsp"][0]
                    exact &= d.wire.total == cost_table1(
                        "dcsp", CostParams(N=N, K=K, L=L, g=g, T=d.iterations)
                    )
                    checked += 2
    report(
        3,
        "wire counter equals closed form at observed T",
        exact and checked >= 1000,
        f"runs={checked}",
    )


def test_criterion_4_message_count_ordering(l_sweep_rows):
    empirical_ok = all(
        row.stats["dcsp"].mean_messages < row.stats["ssp"].mean_messages
        for row in l_sweep_rows
    )
    analytic_ok = all(
        cost_table1("dcsp", CostParams(N=200, K=10, L=L, g=3, T=T))
        < cost_table1("ssp", CostParams(N=200, K=10, L=L, T=T))
        for L in FIGURES["L"].grid
        for T in range(1, 31)
    )
    detail = " ".join(
        f"L={row.value}:{row.stats['dcsp'].mean_messages:.0f}<{row.stats['ssp'].mean_messages:.0f}"
        for row in l_sweep_rows[:2]
    )
    report(4, "dcsp transmits fewer scalars than ssp at every L", empirical_ok and analytic_ok, detail)


def test_criterion_5_iteration_trend(l_sweep_rows):
    by_value = {row.value: row for row in l_sweep_rows}
    at_40 = by_value[40].stats
    at_5 = by_value[5].stats
    ok = all(at_40[a].mean_iterations <= 2.0 for a in ("ssp", "dcsp")) and all(
        at_40[a].mean_iterations <= at_5[a].mean_iterations for a in ("ssp", "dcsp")
    )
    report(
        5,
        "iterations at L=40 are <= 2 and <= the L=5 mean",
        ok,
        f"ssp {at_5['ssp'].mean_iterations:.2f}->{at_40['ssp'].mean_iterations:.2f}, "
        f"dcsp {at_5['dcsp'].mean_iterations:.2f}->{at_40['dcsp'].mean_iterations:.2f}",
    )


def test_criterion_6_oracle_equivalence(desk_scale_runs):
    disagreements = 0
    dcsp_wins = 0
    oracle_wins = 0
    for inst, run, oracle_support in desk_scale_runs:
        if success(run.support, inst):
            dcsp_wins += 1
            if not np.array_equal(run.support, oracle_support):
                disagreements += 1
        if success(oracle_support, inst):
            oracle_wins += 1
    ok = disagreements == 0 and oracle_wins >= dcsp_wins
    report(
        6,
        "successful dcsp supports match the exhaustive decoder",
        ok,
        f"dcsp={dcsp_wins}/200 oracle={oracle_wins}/200 disagreements={disagreements}",
    )


def test_criterion_7_property_suites(degeneration_runs, desk_scale_runs):
    rng = np.random.default_rng(BASE_SEED)
    orthogonality = True
    decomposition = True
    for _ in range(200):
        m = int(rng.integers(2, 12))
        k = int(rng.integers(1, m + 1))
        A = rng.standard_normal((m, k))
        y = rng.standard_normal(m)
        Ay = np.column_stack([A, y])[None]
        r = resid(Ay)[0]
        orthogonality &= float(np.max(np.abs(A.T @ r))) <= 1e-8 * np.linalg.norm(
            A, "fro"
        ) * np.linalg.norm(y)
        recomposed = A @ lstsq_augmented(Ay)[0] + r
        decomposition &= float(np.linalg.norm(recomposed - y)) <= 1e-9 * max(
            np.linalg.norm(y), 1.0
        )

    candidate_bounds = True
    strict_decrease = True
    for _, ssp_result, dcsp_result in degeneration_runs:
        for result, K in ((ssp_result, 10), (dcsp_result, 10)):
            for sizes in result.candidate_sizes:
                candidate_bounds &= all(K <= s <= 2 * K for s in sizes)
            trace = result.residual_trace
            strict_decrease &= all(b < a for a, b in zip(trace[:-2], trace[1:-1]))
    for inst, run, _ in desk_scale_runs:
        for sizes in run.candidate_sizes:
            candidate_bounds &= all(2 <= s <= 4 for s in sizes)
        trace = run.residual_trace
        strict_decrease &= all(b < a for a, b in zip(trace[:-2], trace[1:-1]))

    ties = np.array([3.0, -3.0, 1.0, 3.0])
    tie_break = max_ind(ties, 2).tolist() == [1, 2] and max_occ(
        [5, 5, 1, 1, 9], 2
    ).tolist() == [1, 5]
    determinism = True
    config = ProblemConfig(N=30, M=16, K=3, L=4, seed=BASE_SEED)
    first = run_batch(("dcsp",), [generate(config)], ring_topology(4, 2))["dcsp"][0]
    second = run_batch(("dcsp",), [generate(config)], ring_topology(4, 2))["dcsp"][0]
    determinism &= np.array_equal(first.support, second.support)
    determinism &= first.residual_trace == second.residual_trace

    ok = orthogonality and decomposition and candidate_bounds and strict_decrease
    ok = ok and tie_break and determinism
    report(
        7,
        "property suites (orthogonality, decomposition, bounds, decrease, ties)",
        ok,
        f"orth={orthogonality} decomp={decomposition} cand={candidate_bounds} "
        f"decrease={strict_decrease} ties={tie_break} repeat={determinism}",
    )
