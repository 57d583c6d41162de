import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from conftest import exact_ot_oracle
from otmf import sinkhorn as sinkhorn_module
from otmf.errors import ConfigError, DataError, NumericalError, ShapeMismatchError
from otmf.sinkhorn import (
    SinkhornConfig,
    pairwise_cost,
    sinkhorn_distance,
    sinkhorn_grad_features,
    sinkhorn_plan,
)


def random_cost(rng, n, m=None):
    m = n if m is None else m
    return rng.uniform(0.0, 4.0, size=(n, m))


def uniform_weights(C):
    """The marginals sinkhorn_plan solves between: 1/n and 1/m."""
    n, m = C.shape
    return np.full(n, 1.0 / n), np.full(m, 1.0 / m)


# ---------------------------------------------------------------------------
# config and input validation


def test_config_validation():
    with pytest.raises(ConfigError):
        SinkhornConfig(epsilon=0.0)
    with pytest.raises(ConfigError):
        SinkhornConfig(tolerance=-1.0)
    with pytest.raises(ConfigError):
        SinkhornConfig(max_iters=0)


def test_cost_matrix_validation():
    cfg = SinkhornConfig()
    with pytest.raises(NumericalError):
        sinkhorn_plan(np.array([[1.0, -0.1], [0.0, 1.0]]), cfg)
    with pytest.raises(NumericalError):
        sinkhorn_plan(np.array([[np.nan]]), cfg)
    with pytest.raises(ShapeMismatchError):
        sinkhorn_plan(np.ones(3), cfg)


# ---------------------------------------------------------------------------
# pairwise cost


@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 4), st.integers(0, 10),
       st.sampled_from([0.0, 1.0, 1e3]))
@settings(deadline=None, max_examples=30)
def test_pairwise_cost_matches_cdist(n, m, d, seed, offset):
    # both clouds sit around one point up to offset from the origin, where
    # the Gram form ||x||^2 + ||y||^2 - 2 x.y cancels most; their first
    # min(n, m) rows coincide, so those costs are 0 up to rounding
    rng = np.random.default_rng(seed)
    center = offset * rng.uniform(-1.0, 1.0, size=d)
    X, Y = center + rng.normal(size=(n, d)), center + rng.normal(size=(m, d))
    k = min(n, m)
    Y[:k] = X[:k]
    C = pairwise_cost(X, Y)
    sq_norms = (X * X).sum(axis=1).max() + (Y * Y).sum(axis=1).max()
    atol = 8 * np.finfo(np.float64).eps * sq_norms
    np.testing.assert_allclose(C, cdist(X, Y, "sqeuclidean"), rtol=0, atol=atol)
    assert np.all(C >= 0)


def test_pairwise_cost_rejects_bad_inputs(rng):
    with pytest.raises(ShapeMismatchError):
        pairwise_cost(rng.normal(size=(3, 2)), rng.normal(size=(3, 3)))
    with pytest.raises(DataError):
        pairwise_cost(np.empty((0, 2)), rng.normal(size=(3, 2)))
    with pytest.raises(NumericalError):
        pairwise_cost(np.array([[np.inf, 0.0]]), np.zeros((1, 2)))


# ---------------------------------------------------------------------------
# solver correctness


def test_exact_oracle_matches_linear_sum_assignment(rng):
    for n in range(2, 7):
        for _ in range(10):
            C = random_cost(rng, n)
            ri, ci = linear_sum_assignment(C)
            lp = C[ri, ci].sum() / n
            assert exact_ot_oracle(C) == pytest.approx(lp, abs=1e-12)


def test_exact_oracle_limits(rng):
    with pytest.raises(ShapeMismatchError):
        exact_ot_oracle(random_cost(rng, 2, 3))
    with pytest.raises(DataError):
        exact_ot_oracle(random_cost(rng, 9))


@given(st.integers(2, 6), st.integers(0, 20))
@settings(deadline=None, max_examples=40)
def test_plan_satisfies_marginals(n, seed):
    rng = np.random.default_rng(seed)
    C = random_cost(rng, n)
    cfg = SinkhornConfig(epsilon=0.1, max_iters=50000, tolerance=1e-5)
    plan = sinkhorn_plan(C, cfg)
    assert plan.converged
    assert plan.marginal_error <= cfg.tolerance
    assert np.all(plan.plan >= 0)
    assert plan.plan.sum() == pytest.approx(1.0, abs=1e-9)


def test_transport_cost_bounded_below_by_lp(rng):
    for _ in range(20):
        n = int(rng.integers(2, 7))
        C = random_cost(rng, n)
        plan = sinkhorn_plan(C, SinkhornConfig(epsilon=0.05))
        assert plan.transport_cost >= exact_ot_oracle(C) - 1e-9


def test_small_epsilon_approaches_exact(rng):
    cfg = SinkhornConfig(epsilon=1e-3, max_iters=20000, tolerance=1e-8)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        C = random_cost(rng, n)
        plan = sinkhorn_plan(C, cfg)
        assert abs(plan.transport_cost - exact_ot_oracle(C)) <= 1e-2


def test_scaling_form_consistency(rng):
    """The returned potentials reproduce the plan: P = diag(u) K diag(v)."""
    n = 4
    C = random_cost(rng, n)
    cfg = SinkhornConfig(epsilon=0.3)
    plan = sinkhorn_plan(C, cfg)
    K = np.exp(-C / cfg.epsilon)
    rebuilt = np.exp(plan.log_u)[:, None] * K * np.exp(plan.log_v)[None, :]
    np.testing.assert_allclose(rebuilt, plan.plan, atol=1e-9)


def test_reg_objective_below_transport_cost(rng):
    # entropy H(P) = -sum P(log P - 1) is positive for couplings, so the
    # regularized value sits strictly below <P, C>
    C = random_cost(rng, 4)
    plan = sinkhorn_plan(C, SinkhornConfig(epsilon=0.2))
    assert plan.reg_objective < plan.transport_cost


def _reference_log_sinkhorn(C, cfg, init=None):
    """The plain log-domain loop between uniform weights: two log-sum-exps
    and a full plan per update.

    From init=(log_u, log_v), if given, it runs the last stage only, from
    the potentials eps*log_u, eps*log_v.
    """
    r, c = uniform_weights(C)

    def lse(Z, axis):
        zmax = Z.max(axis=axis, keepdims=True)
        return np.squeeze(zmax + np.log(np.exp(Z - zmax).sum(axis=axis, keepdims=True)), axis=axis)

    f, g = np.zeros_like(r), np.zeros_like(c)
    stages, e = [], max(cfg.epsilon, float(C.max()))
    while e > cfg.epsilon:
        stages.append(e)
        e *= 0.5
    stages.append(cfg.epsilon)
    if init is not None:
        f, g = (cfg.epsilon * a for a in init)
        stages = stages[-1:]
    converged, it = False, 0
    for e in stages[:-1]:
        for _ in range(10):
            f = f + e * (np.log(r) - lse((f[:, None] + g[None, :] - C) / e, 1))
            g = g + e * (np.log(c) - lse((f[:, None] + g[None, :] - C) / e, 0))
    e = stages[-1]
    for it in range(1, cfg.max_iters + 1):
        f = f + e * (np.log(r) - lse((f[:, None] + g[None, :] - C) / e, 1))
        g = g + e * (np.log(c) - lse((f[:, None] + g[None, :] - C) / e, 0))
        P = np.exp((f[:, None] + g[None, :] - C) / e)
        if max(np.abs(P.sum(1) - r).max(), np.abs(P.sum(0) - c).max()) <= cfg.tolerance:
            converged = True
            break
    P = np.exp((f[:, None] + g[None, :] - C) / e)
    H = -(P[P > 0] * (np.log(P[P > 0]) - 1.0)).sum()
    return P, float((P * C).sum()) - e * H, it, converged


def _scaled_cost(X, Y):
    """Cost between two clouds scaled to unit mean norm, as in mask training."""
    return pairwise_cost(X / np.linalg.norm(X, axis=1).mean(), Y / np.linalg.norm(Y, axis=1).mean())


def _feature_cost(rng, n, d=8):
    return _scaled_cost(rng.normal(size=(n, d)), rng.normal(size=(n, d)))


@pytest.mark.parametrize(
    "n, cfg, features, bound, must_absorb",
    [
        (64, SinkhornConfig(epsilon=0.05), True, True, True),
        (64, SinkhornConfig(epsilon=0.1, tolerance=1e-5), True, False, False),
        (6, SinkhornConfig(epsilon=1e-3), False, False, False),
    ],
    ids=["n64-eps0.05-max_iters-absorbing", "n64-eps0.1-converging", "n6-eps1e-3"],
)
def test_stabilised_kernel_matches_log_domain_reference(
    rng, monkeypatch, n, cfg, features, bound, must_absorb
):
    C = _feature_cost(rng, n) if features else random_cost(rng, n)
    absorptions = []
    absorb = sinkhorn_module._absorb
    monkeypatch.setattr(
        sinkhorn_module, "_absorb", lambda *a: absorptions.append(1) or absorb(*a)
    )
    # a Newton phase that falls back before its first check leaves the
    # scaling loop, from the burn-in potentials, the whole budget
    monkeypatch.setattr(sinkhorn_module, "_newton", lambda *a: (0, 0, True))
    plan = sinkhorn_plan(C, cfg)
    P, reg, it, converged = _reference_log_sinkhorn(C, cfg)
    assert converged is not bound
    assert (plan.iterations_used, plan.converged) == (it, converged)
    np.testing.assert_allclose(plan.plan, P, rtol=0, atol=1e-12)
    assert plan.reg_objective == pytest.approx(reg, rel=0, abs=1e-12)
    if must_absorb:
        assert absorptions


def test_kernel_sum_not_positive_finite_raises():
    r = np.full(2, 0.5)
    for sums in ([1.0, 0.0], [1.0, np.nan], [1.0, np.inf], [1.0, 1e-320]):
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match="row"):
            sinkhorn_module._scaling(r, np.array(sums), "row", 0.1)
    assert sinkhorn_module._scaling(r, np.array([1.0, 2.0]), "row", 0.1)[1] is False
    assert sinkhorn_module._scaling(r, np.array([1.0, 1e-5]), "row", 0.1)[1] is True


# ---------------------------------------------------------------------------
# warm start


def test_warm_start_from_own_potentials_converges_at_first_check(rng):
    C = _feature_cost(rng, 32)
    cfg = SinkhornConfig(epsilon=0.1, max_iters=20000, tolerance=1e-12)
    cold = sinkhorn_plan(C, cfg)
    log_u, log_v = cold.log_u, cold.log_v
    init = (log_u.copy(), log_v.copy())
    warm = sinkhorn_plan(C, cfg, init=init)
    assert cold.converged and cold.iterations_used > 1
    assert (warm.iterations_used, warm.converged) == (1, True)
    np.testing.assert_allclose(warm.plan, cold.plan, rtol=0, atol=1e-12)
    # the caller's log-scalings are not updated in place
    assert np.array_equal(init[0], log_u) and np.array_equal(init[1], log_v)


def test_warm_start_from_perturbed_cost_reaches_cold_plan_in_fewer_updates(rng):
    n, d = 32, 8
    X, Y = rng.normal(size=(n, d)), rng.normal(size=(n, d))
    X_near = X + 0.02 * rng.normal(size=X.shape)
    C_old, C = _scaled_cost(X, Y), _scaled_cost(X_near, Y)
    cfg = SinkhornConfig(epsilon=0.1, max_iters=20000, tolerance=1e-10)
    previous = sinkhorn_plan(C_old, cfg)
    cold = sinkhorn_plan(C, cfg)
    warm = sinkhorn_plan(C, cfg, init=(previous.log_u, previous.log_v))
    assert previous.converged and cold.converged and warm.converged
    np.testing.assert_allclose(warm.plan, cold.plan, rtol=0, atol=1e-8)
    stages = sinkhorn_module._burnin_stages(float(C.max()), cfg.epsilon)
    cold_updates = sinkhorn_module._ANNEAL_BURNIN * len(stages) + cold.iterations_used
    assert warm.iterations_used < cold_updates


def _unit(Z):
    return Z / np.linalg.norm(Z, axis=1).mean()


def _newton_problem(rng, n=64, d=8):
    """A mask-loop warm solve at the default eps=0.05: unit-mean-norm clouds,
    X moved a little, and the log-scalings of the solve before the move."""
    X, Y = _unit(rng.normal(size=(n, d))), _unit(rng.normal(size=(n, d)))
    _, previous = sinkhorn_distance(X, Y, SinkhornConfig())
    return X + 0.02 * rng.normal(size=X.shape), Y, (previous.log_u, previous.log_v)


def test_warm_newton_solve_converges_where_scaling_stalls(rng, monkeypatch):
    X, Y, init = _newton_problem(rng)
    cfg = SinkhornConfig()
    _, cold = sinkhorn_distance(X, Y, cfg)
    _, warm = sinkhorn_distance(X, Y, cfg, init=init)
    # the cold solve's Newton finish converges too
    assert cold.converged and cold.newton[1] is False
    assert cold.iterations_used < 10
    assert warm.converged and warm.newton[1] is False
    assert warm.iterations_used < 10
    # Newton steps leave the null direction (f + k, g - k) alone: sum(f) stays
    e = cfg.epsilon
    assert (e * warm.log_u).sum() == pytest.approx((e * init[0]).sum(), rel=0, abs=1e-9)
    P, n = warm.plan, X.shape[0]
    assert np.abs(P.sum(axis=1) - 1.0 / n).max() <= cfg.tolerance
    assert np.abs(P.sum(axis=0) - 1.0 / n).max() <= cfg.tolerance

    # the envelope gradient against central differences of the optimal
    # regularized objective, each solved to 1e-12 from the converged duals
    tight = SinkhornConfig(tolerance=1e-12, max_iters=50)

    def objective(Xf):
        _, plan = sinkhorn_distance(Xf, Y, tight, init=(warm.log_u, warm.log_v))
        assert plan.converged
        return plan.reg_objective

    h = 1e-5
    fd = np.zeros_like(X)
    for i in range(X.shape[0]):
        for j in range(X.shape[1]):
            xp, xm = X.copy(), X.copy()
            xp[i, j] += h
            xm[i, j] -= h
            fd[i, j] = (objective(xp) - objective(xm)) / (2 * h)
    g = sinkhorn_grad_features(X, Y, warm)
    assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-5
    # the scaling loop alone, from the annealed burn-in, stalls: it stops
    # at max_iters, and its plan's gradient misses by about 3e-4 here
    monkeypatch.setattr(sinkhorn_module, "_newton", lambda *a: (0, 0, True))
    _, stalled = sinkhorn_distance(X, Y, cfg)
    assert (stalled.iterations_used, stalled.converged) == (cfg.max_iters, False)
    g_stalled = sinkhorn_grad_features(X, Y, stalled)
    assert np.linalg.norm(g_stalled - fd) / np.linalg.norm(fd) > 1e-4


@pytest.mark.parametrize("shift", [-0.5, -0.05, 0.05, 0.5])
def test_row_scaled_start_removes_a_constant_shift_of_f(shift):
    # a converged solve's duals with f moved by a constant: every row sum
    # is off by the factor exp(shift/eps), a mass mismatch that the one row
    # scaling before Newton removes, so the first marginal check passes
    # with no Newton step (damped steps took 5-14 checks here)
    cfg = SinkhornConfig()
    for seed in range(4):
        rng = np.random.default_rng(seed)
        X, Y = _unit(rng.normal(size=(64, 8))), _unit(rng.normal(size=(64, 8)))
        _, solved = sinkhorn_distance(X, Y, cfg)
        e = cfg.epsilon
        init = (solved.log_u + shift / e, solved.log_v)
        _, warm = sinkhorn_distance(X, Y, cfg, init=init)
        assert (warm.iterations_used, warm.converged, warm.newton) == (1, True, (0, False))
        assert np.abs(warm.plan - solved.plan).max() <= cfg.tolerance
        # the row scaling keeps the gauge sum(f), f = eps * log_u
        assert (e * warm.log_u).sum() == pytest.approx((e * init[0]).sum(), rel=0, abs=1e-12)


def test_newton_stop_is_checked_on_the_plan_it_returns():
    # chains of warm solves as the mask loop runs them. The closing column
    # scaling moves the row sums, so a check on the Newton iterate's own
    # marginals let chain 63's fifth solve stop within tolerance and return
    # a plan at 1.10e-6; the check is on the column-scaled plan instead
    cfg = SinkhornConfig()
    for seed in range(56, 72):
        rng = np.random.default_rng(seed)
        X, Y = _unit(rng.normal(size=(64, 8))), _unit(rng.normal(size=(64, 8)))
        _, plan = sinkhorn_distance(X, Y, cfg)
        for _ in range(5):
            assert plan.converged and not plan.newton[1], seed
            X = X + 0.01 * rng.normal(size=X.shape)
            _, plan = sinkhorn_distance(X, Y, cfg, init=(plan.log_u, plan.log_v))
        assert plan.converged and not plan.newton[1], seed


@pytest.mark.parametrize("start", ["column-far-below", "plan-overflows"])
def test_newton_falls_back_to_the_scaling_loop_from_its_iterate(rng, monkeypatch, start):
    X, Y, (log_u, log_v) = _newton_problem(rng)
    C = pairwise_cost(X, Y)
    cfg = SinkhornConfig()
    outcomes = []
    newton = sinkhorn_module._newton
    monkeypatch.setattr(
        sinkhorn_module, "_newton", lambda *a: outcomes.append(newton(*a)) or outcomes[-1]
    )
    if start == "column-far-below":
        # column 0 scaled by exp(-40): every Newton step length overshoots
        log_v = log_v.copy()
        log_v[0] -= 40
        plan = sinkhorn_plan(C, cfg, init=(log_u, log_v))
        checks, _, fell_back = outcomes[0]
        assert fell_back and plan.newton[1]
        rest = SinkhornConfig(max_iters=cfg.max_iters - checks)
        P, reg, it, ref_converged = _reference_log_sinkhorn(
            C, rest, init=(log_u, log_v)
        )
        assert (plan.iterations_used, plan.converged) == (checks + it, ref_converged)
        np.testing.assert_allclose(plan.plan, P, rtol=0, atol=1e-12)
        assert plan.reg_objective == pytest.approx(reg, rel=0, abs=1e-12)
    else:
        # exp((f + g - C)/eps) overflows: no marginal check is possible, and
        # the scaling loop's kernel-sum check raises as it would from there
        with pytest.raises(NumericalError, match="row sums"):
            sinkhorn_plan(C, cfg, init=(log_u + 50.0 / cfg.epsilon, log_v))
        assert outcomes[0] == (0, 0, True)


@pytest.mark.parametrize("reject", ["not-ascent", "no-armijo-step"])
def test_newton_falls_back_when_its_direction_cannot_raise_the_dual(rng, monkeypatch, reject):
    X, Y, (log_u, log_v) = _newton_problem(rng)
    C = pairwise_cost(X, Y)
    cfg = SinkhornConfig()
    halvings = sinkhorn_module._ARMIJO_HALVINGS
    direction, dual = sinkhorn_module._newton_direction, sinkhorn_module._dual
    slopes, duals = [], []

    def bad_direction(P, rows, cols, r, c, e):
        if reject == "not-ascent":
            # the Newton direction reversed: the dual falls along it
            df, dg = (-d for d in direction(P, rows, cols, r, c, e))
        else:
            # the dual's gradient, scaled so that even the shortest trial
            # step moves a potential by 100 eps: within exp's range, so the
            # line search runs, but every trial step overshoots
            df, dg = r - rows, c - cols
            scale = 100 * e / (0.5**halvings * max(np.abs(df).max(), np.abs(dg).max()))
            df, dg = scale * df, scale * dg
        slopes.append(float((r - rows) @ df + (c - cols) @ dg))
        return df, dg

    monkeypatch.setattr(sinkhorn_module, "_newton_direction", bad_direction)
    monkeypatch.setattr(sinkhorn_module, "_dual", lambda *a: duals.append(1) or dual(*a))
    plan = sinkhorn_plan(C, cfg, init=(log_u, log_v))
    [slope] = slopes
    assert plan.newton == (1, True)
    if reject == "not-ascent":
        # no trial step: the dual is only evaluated at the start
        assert slope < 0 and len(duals) == 1
    else:
        # the start's dual and one per trial step length, each failing Armijo
        assert slope > 0 and len(duals) == 1 + (halvings + 1)
    # the scaling loop runs from the start with the rest of the budget
    rest = SinkhornConfig(max_iters=cfg.max_iters - 1)
    P, reg, it, ref_converged = _reference_log_sinkhorn(C, rest, init=(log_u, log_v))
    assert (plan.iterations_used, plan.converged) == (1 + it, ref_converged)
    np.testing.assert_allclose(plan.plan, P, rtol=0, atol=1e-12)
    assert plan.reg_objective == pytest.approx(reg, rel=0, abs=1e-12)


@pytest.mark.parametrize("tolerance", [1e-6, 1e-300])
def test_converged_means_marginal_error_within_tolerance(tolerance):
    # cold, warm and fallen-back solves alike. At 1e-300 a scaling loop that
    # Newton fell back to can meet its row test u * Kv == r exactly while the
    # plan's marginal error is about 5e-17 (seeds 3-5 here)
    cfg = SinkhornConfig(tolerance=tolerance)
    for seed in range(6):
        X, Y, (log_u, log_v) = _newton_problem(np.random.default_rng(seed))
        log_v_far = log_v.copy()
        log_v_far[0] -= 40
        plans = [sinkhorn_distance(X, Y, cfg, init=init)[1]
                 for init in (None, (log_u, log_v), (log_u, log_v_far))]
        # every solve runs the Newton finish, the cold one from its burn-in
        assert plans[0].newton[0] > 0 and plans[2].newton[1]
        for plan in plans:
            assert plan.converged == (plan.marginal_error <= cfg.tolerance), seed


def test_cold_solve_at_unreachable_tolerance_keeps_the_budget():
    # no plan meets 1e-300: with budget to spare, Newton stops at the floor
    # m * eps_64 * max(r) that a row sum can resolve, after a few checks,
    # and the solve is unconverged. Newton checks and any fallback updates
    # together stay within max_iters, burn-in not counted, and the plan
    # keeps mass 1
    for max_iters in (1, 5, 50, 500):
        cfg = SinkhornConfig(tolerance=1e-300, max_iters=max_iters)
        for seed in range(3):
            X, Y, _ = _newton_problem(np.random.default_rng(seed))
            _, plan = sinkhorn_distance(X, Y, cfg)
            assert 1 <= plan.iterations_used <= max_iters
            assert not plan.converged and plan.marginal_error > 0.0
            assert plan.plan.sum() == pytest.approx(1.0, rel=0, abs=1e-12)


def test_unreachable_tolerance_stops_at_the_rounding_floor():
    # a row sum of m positive terms resolves only about m * eps_64 of its
    # value, so at 1e-300 cold and warm solves alike stop there within a
    # few checks, with no fallback (exact Newton steps would otherwise go
    # on at the floor until max_iters), and are reported unconverged
    cfg = SinkhornConfig(tolerance=1e-300)
    eps_64 = np.finfo(np.float64).eps
    for seed in range(3):
        rng = np.random.default_rng(seed)
        plans = []
        for n in (64, 128):
            X, Y = _unit(rng.normal(size=(n, 8))), _unit(rng.normal(size=(n, 8)))
            plans.append(sinkhorn_distance(X, Y, cfg)[1])
        X, Y, init = _newton_problem(rng)
        plans.append(sinkhorn_distance(X, Y, cfg, init=init)[1])
        for plan in plans:
            n, m = plan.plan.shape
            assert 1 <= plan.iterations_used <= 30 and plan.newton[1] is False, seed
            assert not plan.converged
            assert plan.marginal_error <= 2 * m * eps_64 * (1.0 / n), seed


def test_newton_direction_solves_the_schur_system(rng):
    X, Y, (log_u, log_v) = _newton_problem(rng)
    C = pairwise_cost(X, Y)
    e = SinkhornConfig().epsilon
    f, g = e * log_u, e * log_v
    P = np.exp((f[:, None] + g[None, :] - C) / e)
    rows, cols = P.sum(axis=1), P.sum(axis=0)
    r, c = uniform_weights(C)
    df, dg = sinkhorn_module._newton_direction(P, rows, cols, r, c, e)
    S = np.diag(rows) - P @ np.diag(1.0 / cols) @ P.T
    rhs = e * ((r - rows) - P @ ((c - cols) / cols))
    assert np.linalg.norm(S @ df - rhs) <= 1e-10 * np.linalg.norm(rhs)
    assert abs(df.sum()) <= 1e-10 * np.abs(df).sum()
    # (df, dg) solves the whole Newton system, whose second block row
    # gives dg from df
    np.testing.assert_allclose(
        P.T @ df + cols * dg, e * (c - cols), rtol=0, atol=1e-10 * e * np.abs(c - cols).max()
    )


@pytest.mark.parametrize("case", ["solve-raises", "near-empty-row", "near-empty-column"])
def test_singular_or_non_finite_newton_system_falls_back(rng, monkeypatch, case):
    X, Y, (log_u, log_v) = _newton_problem(rng)
    C = pairwise_cost(X, Y)
    cfg = SinkhornConfig()
    outcomes, directions = [], []
    newton, direction = sinkhorn_module._newton, sinkhorn_module._newton_direction
    monkeypatch.setattr(
        sinkhorn_module, "_newton", lambda *a: outcomes.append(newton(*a)) or outcomes[-1]
    )
    monkeypatch.setattr(
        sinkhorn_module, "_newton_direction",
        lambda *a: directions.append(direction(*a)) or directions[-1],
    )
    if case == "solve-raises":
        def singular(*a, **k):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        plan = sinkhorn_plan(C, cfg, init=(log_u, log_v))
        assert directions == [None] and outcomes == [(1, 0, True)]
        assert plan.newton == (0, True)
        assert 1 < plan.iterations_used <= cfg.max_iters
        return
    # one row (column) of the starting plan at about 1e-318 (its scaling by
    # exp(-730)), out of reach of the opening row scaling. A near-empty row
    # gives a finite direction so large (about 1e17) that even 2**-30 of it
    # moves f beyond exp's range; a near-empty column overflows 1/cols and
    # gives a non-finite one. Either way Newton falls back without a line
    # search, whose 31 trial steps would each fill the n x m kernel, and
    # the scaling loop's kernel-sum check raises
    if case == "near-empty-row":
        log_u = log_u.copy()
        log_u[0] -= 730
    else:
        log_v = log_v.copy()
        log_v[0] -= 730
    fills = []
    fill = sinkhorn_module._fill_kernel
    monkeypatch.setattr(sinkhorn_module, "_fill_kernel", lambda *a: fills.append(1) or fill(*a))
    with pytest.raises(NumericalError, match="sums left the positive finite range"):
        sinkhorn_plan(C, cfg, init=(log_u, log_v))
    [solved] = directions
    if case == "near-empty-row":
        assert np.isfinite(solved[0]).all() and outcomes == [(1, 1, True)]
    else:
        assert solved is None and outcomes == [(1, 0, True)]
    # Newton's opening fill and the scaling loop's
    assert 1 <= len(fills) <= 3


def test_max_iters_caps_newton_steps_and_fallback_updates(rng, monkeypatch):
    X, Y, (log_u, log_v) = _newton_problem(rng)
    C = pairwise_cost(X, Y)
    directions = []
    direction = sinkhorn_module._newton_direction
    monkeypatch.setattr(
        sinkhorn_module, "_newton_direction",
        lambda *a: directions.append(1) or direction(*a),
    )
    assert sinkhorn_plan(C, SinkhornConfig(), init=(log_u, log_v)).iterations_used > 3
    for max_iters in (1, 2, 3):
        directions.clear()
        plan = sinkhorn_plan(C, SinkhornConfig(max_iters=max_iters), init=(log_u, log_v))
        assert (plan.iterations_used, plan.converged) == (max_iters, False)
        # a Newton step between consecutive checks, none after the last
        assert len(directions) == max_iters - 1
    log_v_far = log_v.copy()
    log_v_far[0] -= 40
    for max_iters in (2, 5):
        plan = sinkhorn_plan(C, SinkhornConfig(max_iters=max_iters), init=(log_u, log_v_far))
        assert plan.newton[1]
        assert (plan.iterations_used, plan.converged) == (max_iters, False)


def test_warm_newton_solve_is_bit_identical_across_runs(rng):
    X, Y, init = _newton_problem(rng)
    a = sinkhorn_distance(X, Y, SinkhornConfig(), init=init)[1]
    b = sinkhorn_distance(X, Y, SinkhornConfig(), init=init)[1]
    for name in ("plan", "log_u", "log_v"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert (a.iterations_used, a.newton, a.reg_objective) == (
        b.iterations_used, b.newton, b.reg_objective
    )


def test_warm_start_validation(rng):
    C = random_cost(rng, 3, 4)
    cfg = SinkhornConfig()
    log_u, log_v = np.zeros(3), np.zeros(4)
    for bad in ((log_v, log_v), (log_u, log_u), (log_u[:, None], log_v), (log_u, log_v[:3])):
        with pytest.raises(ShapeMismatchError):
            sinkhorn_plan(C, cfg, init=bad)
    for value in (np.nan, np.inf, -np.inf):
        log_u_bad = log_u.copy()
        log_u_bad[1] = value
        with pytest.raises(NumericalError, match="warm-start"):
            sinkhorn_plan(C, cfg, init=(log_u_bad, log_v))
        with pytest.raises(NumericalError, match="warm-start"):
            sinkhorn_plan(C, cfg, init=(log_u, np.full(4, value)))


# ---------------------------------------------------------------------------
# distances and gradients


def test_sinkhorn_distance_self_is_small(rng):
    X = rng.normal(size=(6, 3))
    dist, plan = sinkhorn_distance(X, X.copy(), SinkhornConfig(epsilon=1e-3, max_iters=5000))
    assert dist <= 1e-3
    assert plan.converged


def test_grad_features_matches_fd(rng):
    """Envelope gradient of the entropic objective vs central differences."""
    cfg = SinkhornConfig(epsilon=0.1, max_iters=20000, tolerance=1e-10)
    X = rng.normal(size=(5, 3))
    Y = rng.normal(size=(5, 3))

    def objective(Xf):
        _, plan = sinkhorn_distance(Xf, Y, cfg)
        return plan.reg_objective

    _, plan = sinkhorn_distance(X, Y, cfg)
    g = sinkhorn_grad_features(X, Y, plan)
    h = 1e-6
    fd = np.zeros_like(X)
    for i in range(X.shape[0]):
        for j in range(X.shape[1]):
            xp, xm = X.copy(), X.copy()
            xp[i, j] += h
            xm[i, j] -= h
            fd[i, j] = (objective(xp) - objective(xm)) / (2 * h)
    assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-5


def test_grad_features_shape_checks(rng):
    X, Y = rng.normal(size=(4, 2)), rng.normal(size=(5, 2))
    _, plan = sinkhorn_distance(X, Y, SinkhornConfig())
    with pytest.raises(ShapeMismatchError):
        sinkhorn_grad_features(X[:3], Y, plan)
