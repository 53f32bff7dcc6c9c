import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import linprog

from convexflows.objectives import (
    FisherObjective,
    LinearNonnegObjective,
    MaxFlowObjective,
    MinCostObjective,
    OpfQuadraticObjective,
    QuadraticPenalty,
    fisher_conj,
    linear_nonneg_conj,
    maxflow_conj,
    mincost_conj,
    opf_quadratic_conj,
    quadratic_penalty_conj,
)


def smooth_oracles():
    return [
        (OpfQuadraticObjective([1.0, 0.5, 2.0]), lambda rng: rng.uniform(0.1, 3.0, 3)),
        (FisherObjective([1.0, 2.0], 3), lambda rng: rng.uniform(0.2, 3.0, 5)),
        (QuadraticPenalty(4), lambda rng: rng.uniform(0.1, 2.0, 4)),
    ]


# -- closed-form values ------------------------------------------------------


def test_linear_nonneg_values():
    assert linear_nonneg_conj([1.0, 2.0], [1.0, 3.0]).value == 0.0
    assert linear_nonneg_conj([1.0, 2.0], [0.5, 3.0]).value == math.inf
    assert linear_nonneg_conj([0.0, 0.0], [0.3, 0.0]).value == 0.0
    res = linear_nonneg_conj([1.0, 2.0], [1.0, 3.0])
    assert_allclose(res.maximizer, [0.0, 0.0])
    assert res.non_unique  # first coordinate sits on the boundary


def test_opf_quadratic_values():
    res = opf_quadratic_conj([1.0, 1.0], [1.0, 1.0])
    assert res.value == pytest.approx(-1.0)
    assert_allclose(res.maximizer, [0.0, 0.0])
    res = opf_quadratic_conj([1.0, 1.0], [0.0, 0.0])
    assert res.value == 0.0
    assert_allclose(res.maximizer, [1.0, 1.0])
    res = opf_quadratic_conj([0.0, 0.0], [2.0, 0.0])
    assert res.value == pytest.approx(2.0)
    assert_allclose(res.maximizer, [-2.0, 0.0])
    assert opf_quadratic_conj([1.0], [-0.1]).value == math.inf


def test_maxflow_values():
    assert maxflow_conj(3, [0.0, 0.3, 1.0]).value == 0.0
    assert maxflow_conj(3, [0.0, -0.1, 1.0]).value == math.inf
    assert maxflow_conj(3, [0.2, 0.3, 1.0]).value == math.inf  # sink-source gap != 1
    obj = MaxFlowObjective(4)
    assert obj.fixed_coordinates() == [(0, 0.0), (3, 1.0)]


def test_mincost_values():
    n = 4
    res = mincost_conj(n, 1.0, [0.0, 0.0, 0.0, 1.0])
    assert res.value == pytest.approx(-1.0)
    assert_allclose(res.maximizer, [-1.0, 0.0, 0.0, 1.0])
    assert mincost_conj(n, 0.0, [0.5, 0.1, 0.1, 0.6]).value == 0.0
    assert mincost_conj(n, 1.0, np.zeros(n)).value == 0.0
    assert mincost_conj(n, 1.0, [1.0, 0.0, 0.0, 0.5]).value == math.inf


def test_recovery_masks_are_not_shared_writable():
    # The interior mask is built once; a caller that writes into the mask it
    # was handed must either fail or leave later calls unchanged.
    cases = [
        (MaxFlowObjective(4), np.array([0.0, 0.5, 0.5, 1.0]), [False, True, True, False]),
        (MinCostObjective(4, 1.0), np.array([0.5, 0.5, 0.5, 0.5]), [True, True, True, True]),
        (MinCostObjective(4, 1.0), np.array([0.25, 0.5, 0.5, 1.0]), [True, True, True, True]),
    ]
    for objective, prices, expected in cases:
        _, mask = objective.recovery_target(prices, objective.conj(prices))
        assert mask.tolist() == expected
        if mask.flags.writeable:
            mask[:] = False
        else:
            with pytest.raises(ValueError):
                mask[1] = False
        _, again = objective.recovery_target(prices, objective.conj(prices))
        assert again.tolist() == expected


def test_mincost_closed_form_against_lp_oracle():
    # sup_{y in S} -nu @ y via linprog on  min nu @ y.
    n, v = 5, 1.5
    rng = np.random.default_rng(0)
    for trial in range(40):
        nu = rng.uniform(0.0, 2.0, size=n)
        if trial % 5 == 0:
            nu[0] = nu[-1] + rng.uniform(0.1, 1.0)  # source above sink: unbounded
        a_ub = np.zeros((2, n))
        a_ub[0, -1] = -1.0            # y_sink >= v
        a_ub[1, 0] = a_ub[1, -1] = -1.0  # y_source + y_sink >= 0
        b_ub = np.array([-v, 0.0])
        bounds = [(None, None)] + [(0.0, None)] * (n - 2) + [(None, None)]
        lp = linprog(nu, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
        res = mincost_conj(n, v, nu)
        if lp.status == 3:  # unbounded LP -> infinite conjugate
            assert res.value == math.inf
        else:
            assert lp.status == 0
            assert res.value == pytest.approx(-lp.fun, abs=1e-9)
            assert res.value == pytest.approx(float(-nu @ res.maximizer), abs=1e-9)


def test_fisher_values():
    res = fisher_conj([1.0], 1, [1.0, 1.0])
    assert res.value == pytest.approx(0.0)
    assert_allclose(res.maximizer, [1.0, -1.0])
    res = fisher_conj([1.0], 1, [math.e, 1.0])
    assert res.value == pytest.approx(-1.0)
    assert_allclose(res.maximizer, [1.0 / math.e, -1.0])
    res = fisher_conj([0.0], 1, [0.7, 1.0])
    assert res.value == pytest.approx(1.0)  # goods term only
    assert fisher_conj([1.0], 1, [0.0, 1.0]).value == math.inf


def test_fisher_one_dim_calculus_oracle():
    # sup_y (log y - nu y) on a fine grid vs the closed form.
    for nu_b in (0.5, 1.0, 2.7):
        ys = np.linspace(1e-6, 50.0, 2_000_001)
        ref = np.max(np.log(ys) - nu_b * ys)
        res = fisher_conj([1.0], 1, [nu_b, 0.3])
        assert res.value - 0.3 == pytest.approx(ref, abs=1e-6)


def test_quadratic_penalty_values():
    res = quadratic_penalty_conj([1.0, 2.0])
    assert res.value == pytest.approx(2.5)
    assert_allclose(res.maximizer, [-1.0, -2.0])
    assert quadratic_penalty_conj([0.0, 0.0]).value == 0.0
    res = quadratic_penalty_conj([0.0, 3.0])
    assert res.value == pytest.approx(4.5)
    assert_allclose(res.maximizer, [0.0, -3.0])
    assert quadratic_penalty_conj([-0.1, 1.0]).value == math.inf


# -- shared properties -------------------------------------------------------


def test_negative_price_always_infinite():
    oracles = [
        LinearNonnegObjective([1.0, 1.0]),
        OpfQuadraticObjective([1.0, 1.0]),
        MaxFlowObjective(2),
        MinCostObjective(2, 1.0),
        FisherObjective([1.0], 1),
        QuadraticPenalty(2),
    ]
    for oracle in oracles:
        prices = np.full(oracle.dim, 0.5)
        if isinstance(oracle, MaxFlowObjective):
            prices = np.array([0.0, 1.0])
        prices[0] = -1e-9 if not isinstance(oracle, MaxFlowObjective) else -1e-9
        assert oracle.conj(prices).value == math.inf


def test_fenchel_young_identity():
    rng = np.random.default_rng(12)
    for oracle, sampler in smooth_oracles():
        for _ in range(40):
            prices = sampler(rng)
            res = oracle.conj(prices)
            assert res.maximizer is not None and not res.non_unique
            lhs = oracle.evaluate_primal(res.maximizer) - float(prices @ res.maximizer)
            assert lhs == pytest.approx(res.value, abs=1e-9 * (1.0 + abs(res.value)))


def test_gradient_identity_finite_differences():
    # d(conj)/d(price_j) = -maximizer_j at interior points.
    rng = np.random.default_rng(21)
    step = 1e-6
    for oracle, sampler in smooth_oracles():
        for _ in range(15):
            prices = sampler(rng) + 0.2
            res = oracle.conj(prices)
            for j in range(oracle.dim):
                up, down = prices.copy(), prices.copy()
                up[j] += step
                down[j] -= step
                fd = (oracle.conj(up).value - oracle.conj(down).value) / (2 * step)
                assert fd == pytest.approx(-res.maximizer[j], rel=1e-5, abs=1e-5)


def test_conjugate_convexity_on_segments():
    rng = np.random.default_rng(33)
    for oracle, sampler in smooth_oracles():
        for _ in range(30):
            a, b = sampler(rng), sampler(rng)
            theta = rng.uniform()
            mid = oracle.conj(theta * a + (1 - theta) * b).value
            chord = theta * oracle.conj(a).value + (1 - theta) * oracle.conj(b).value
            assert mid <= chord + 1e-9 * (1.0 + abs(chord))


def test_primal_relaxation_tolerance():
    obj = LinearNonnegObjective([1.0, 1.0])
    y = np.array([-1e-9, 1.0])
    assert obj.evaluate_primal(y) == -math.inf
    assert obj.evaluate_primal(y, tol=1e-6) == pytest.approx(1.0 - 1e-9)


@pytest.mark.parametrize("objective", [MaxFlowObjective, lambda n, **kw: MinCostObjective(n, 1.0, **kw)])
def test_source_and_sink_must_be_distinct_node_indices(objective):
    for source, sink in [(0, 4), (0, -1), (-1, None), (0, 3.0), (True, 2), (np.int64(1), 1), (3, None)]:
        with pytest.raises(ValueError, match="source|sink"):
            objective(4, source=source, sink=sink)
    conservation = objective(4, source=np.int64(2), sink=0).conservation
    assert (conservation.source, conservation.sink) == (2, 0) and type(conservation.source) is int


def test_objective_arrays_must_be_finite():
    for build in (
        lambda: LinearNonnegObjective([1.0, math.inf]),
        lambda: OpfQuadraticObjective([math.inf, 1.0]),
        lambda: FisherObjective([1.0, math.nan], 1),
        lambda: MinCostObjective(3, math.inf),
    ):
        with pytest.raises(ValueError, match="finite"):
            build()
