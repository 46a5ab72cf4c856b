import pytest

from dcsp.costs import CostParams, cost_dcsp_general, cost_table1
from dcsp.network import ring_topology
from dcsp.problems import ProblemConfig, generate
from dcsp.pursuit import dcsp_run, ssp_run


class TestCostSsp:
    def test_one_iteration(self):
        assert cost_table1("ssp", CostParams(N=200, K=10, L=6, T=1)) == 12630

    def test_three_iterations(self):
        assert cost_table1("ssp", CostParams(N=200, K=10, L=6, T=3)) == 25890

    def test_single_node_costs_nothing(self):
        assert cost_table1("ssp", CostParams(N=200, K=10, L=1, T=5)) == 0

    def test_requires_T(self):
        with pytest.raises(ValueError, match="this cost formula needs T"):
            cost_table1("ssp", CostParams(N=10, K=2, L=3))


class TestCostParamsBounds:
    # the bounds of ring_topology (2 <= g <= L) and ProblemConfig (K <= N)
    @pytest.mark.parametrize("kw, message", [
        (dict(g=1), "need g >= 2, got g=1"),
        pytest.param(dict(g=9), "need g <= L, got g=9 and L=6",
                     id="kw1-g above L"),
        (dict(K=300), "need K <= N, got K=300 and N=200"),
        (dict(N=0), "need N >= 1, got N=0"),
        (dict(T=-1), "need T >= 0, got T=-1"),
        (dict(g=2.5), "need an integer g, got g=2.5"),
        (dict(N=200.0), "need an integer N, got N=200.0"),
        (dict(T=3.0), "need an integer T, got T=3.0"),
        # only g and T may be None; N=None once raised TypeError at K <= N
        (dict(N=None), "need an integer N, got N=None"),
    ])
    def test_rejected_naming_the_values(self, kw, message):
        with pytest.raises(ValueError, match=message):
            CostParams(**{**dict(N=200, K=10, L=6, g=3, T=3), **kw})

    def test_boundaries_accepted(self):
        CostParams(N=200, K=200, L=6, g=2, T=0)
        CostParams(N=200, K=10, L=6, g=6, T=3)


class TestCostDcsp:
    def test_reference_point(self):
        assert cost_table1("dcsp", CostParams(N=200, K=10, L=6, g=3, T=3)) == 11610

    def test_initialization_only(self):
        assert cost_table1("dcsp", CostParams(N=200, K=10, L=6, g=3, T=0)) == 2700

    @pytest.mark.parametrize("missing", ["g", "T"])
    def test_requires_g_and_T(self, missing):
        p = CostParams(**{**dict(N=200, K=10, L=6, g=3, T=3), missing: None})
        with pytest.raises(ValueError, match=f"this cost formula needs {missing}"):
            cost_table1("dcsp", p)

    def test_general_topology_matches_symmetric(self):
        p = CostParams(N=80, K=5, L=7, g=4, T=2)
        assert cost_table1("dcsp", p) == cost_dcsp_general(80, 5, 7, 2, 7 * 3)

    def test_full_collaboration_differs_from_ssp_by_fusion_rounds(self):
        # with g = L the correlation/projection traffic matches SSP; the
        # extra charge is exactly the K-length support broadcasts of the
        # initialization and of each iteration
        p = CostParams(N=50, K=4, L=5, g=5, T=2)
        gap = cost_table1("dcsp", p) - cost_table1("ssp", p)
        assert gap == (p.T + 1) * p.K * (p.L - 1) * p.L


class TestTable1:
    def test_jsp_jomp(self):
        assert cost_table1("jsp_jomp", CostParams(N=200, K=10, L=6)) == 300

    def test_somp(self):
        assert cost_table1("somp", CostParams(N=200, K=10, L=6)) == 60000

    def test_dcomp(self):
        assert cost_table1("dcomp", CostParams(N=200, K=10, L=6, g=3, T=10)) == 24300

    def test_unknown_algorithm(self):
        for name in ("bp", "SSP"):  # names are compared as given
            with pytest.raises(ValueError, match="unknown algorithm"):
                cost_table1(name, CostParams(N=10, K=2, L=3))


class TestMonotonicity:
    BASE = dict(N=40, K=4, L=6, g=3, T=2)

    @pytest.mark.parametrize("field", ["N", "K", "L", "T"])
    @pytest.mark.parametrize("algorithm", ["jsp_jomp", "somp", "dcomp", "ssp", "dcsp"])
    def test_nondecreasing(self, field, algorithm):
        lo = CostParams(**self.BASE)
        hi = CostParams(**{**self.BASE, field: self.BASE[field] + 3})
        assert cost_table1(algorithm, hi) >= cost_table1(algorithm, lo)


def test_dcsp_cheaper_than_ssp_on_figure_range():
    # analytic ordering underlying the message-count comparison: holds for
    # the swept network sizes (small L is dominated by the fusion overhead
    # and is excluded by the experiment design)
    for L in range(5, 41):
        for T in range(1, 31):
            p = CostParams(N=200, K=10, L=L, g=3, T=T)
            assert cost_table1("dcsp", p) < cost_table1("ssp", p)


class TestWireExactness:
    def test_ssp_counter_equals_formula(self):
        for seed in range(10):
            inst = generate(ProblemConfig(N=30, M=16, K=3, L=4, seed=seed))
            result = ssp_run(inst)
            expected = cost_table1("ssp", CostParams(N=30, K=3, L=4, T=result.iterations))
            assert result.wire.total == expected

    def test_dcsp_counter_equals_formula(self):
        for seed in range(10):
            inst = generate(ProblemConfig(N=30, M=16, K=3, L=5, seed=seed))
            result = dcsp_run(inst, ring_topology(5, 3))
            expected = cost_table1("dcsp", CostParams(N=30, K=3, L=5, g=3, T=result.iterations))
            assert result.wire.total == expected

    def test_dcsp_split_by_message_class(self):
        inst = generate(ProblemConfig(N=30, M=16, K=3, L=5, seed=1))
        result = dcsp_run(inst, ring_topology(5, 3))
        T = result.iterations
        assert result.wire.neighbor_scalars == (30 + T * (30 + 6)) * 5 * 2
        assert result.wire.broadcast_scalars == (3 + T * 4) * 4 * 5

    def test_ssp_round_order_and_classes(self):
        for seed in range(5):
            inst = generate(ProblemConfig(N=30, M=16, K=3, L=4, seed=seed))
            result = ssp_run(inst)
            assert result.wire.neighbor_scalars == 0
            assert {kind for _, kind, _ in result.wire.rounds} == {"broadcast"}
            labels = [label for label, _, _ in result.wire.rounds]
            assert labels == ["correlation"] + [
                "correlation", "projection", "residual norm"
            ] * result.iterations

    def test_dcsp_round_order_and_classes(self):
        for seed in range(5):
            inst = generate(ProblemConfig(N=30, M=16, K=3, L=5, seed=seed))
            result = dcsp_run(inst, ring_topology(5, 3))
            labels = [label for label, _, _ in result.wire.rounds]
            assert labels == ["correlation", "local support"] + [
                "correlation", "projection", "local support", "residual norm"
            ] * result.iterations
            for label, kind, _ in result.wire.rounds:
                expected = "neighbor" if label in ("correlation", "projection") else "broadcast"
                assert kind == expected
