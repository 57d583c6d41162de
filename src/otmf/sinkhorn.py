"""Entropic optimal transport on feature clouds.

Solves min_P <P, C> - eps * H(P) over couplings of the uniform weights
r = 1/n and c = 1/m of an n x m cost C (every solve here is between two
empirical feature clouds), where H(P) = -sum P_ij (log P_ij - 1), in the
log domain: dual potentials (f, g) and P = exp((f_i + g_j - C_ij)/eps).
The lambda of the d^lambda parameterization is 1/eps.

Every solve ends in the same Newton finish at cfg.epsilon: damped Newton
ascent on the entropic dual D(f, g) = <f, r> + <g, c> - eps * sum(P)
(Sinkhorn-Newton; Brauer, Clason, Lorenz, Wirth 2017). It begins with
one row scaling, f += du - mean(du), g += mean(du) with
du = eps*log(r/rows), which removes a global mass mismatch at the cost of
one pass over P and keeps sum(f) (scaling steps ahead of Newton steps, as in
Sinkhorn-Newton-Sparse; Tang et al. 2024). Each step then checks the
marginals of the plan it would return, P after the closing column
scaling described below, solves the Newton system's n x n Schur
complement directly (one dense LU solve), and backtracks on D. Near the
optimum it converges quadratically, where scaling updates at eps=0.05
converge sublinearly. A warm solve starts it from init=(log_u, log_v),
an earlier plan's log-scalings, as f = eps*log_u and g = eps*log_v. A
cold solve starts it from an annealed burn-in: from eps near max(C),
halving down to the stage above cfg.epsilon, a few scaling updates per
stage. A Newton phase that stops without falling back ends with one
column scaling, so every plan's column sums are c and its mass is 1 up
to rounding.

Scaling updates run in a stabilised kernel K~ = exp((f_i + g_j - C_ij)/eps)
kept in one buffer: u = r / (K~ v), v = c / (K~^T u) are matrix-vector
products with no exponential; whenever u or v leaves [1e-3, 1e3], and at
the end of every stage, eps*log(u) and eps*log(v) are absorbed into
(f, g) and K~ is rebuilt (stabilised scaling with epsilon annealing,
Schmitzer 2019). In exact arithmetic the iterates equal those of
log-sum-exp updates on (f, g). Besides the burn-in they are the fallback:
if P is not finite or has a zero row or column sum, or no step length
raises D, or there is no finite Newton direction, or even its shortest
trial step would move a potential across exp's whole float64 range, the
scaling loop continues at cfg.epsilon from the Newton iterate.
iterations_used counts marginal checks at cfg.epsilon (Newton steps plus
fallback updates, together bounded by max_iters; burn-in updates and the
opening row scaling are not counted); plan.newton holds the number of
Newton directions solved and whether the phase fell back.
Both phases stop at max(cfg.tolerance, m * eps_64 * max(r)) for n x m C,
below which a row sum of m terms cannot resolve the error (Higham 2002,
the gamma_m bound); converged still means marginal_error <= tolerance.

The fixed-plan (Danskin) gradient with respect to the input clouds is
the gradient of the regularized objective at the optimal plan; it is
exact only when the solve converged, and is the quantity validated
against finite differences.

A SolverState is the one reader of a plan's outcome: record(plan) counts
the solve, its marginal checks, Newton directions and fallback, and
whether it is unconverged; str() renders the counts, and tallies add up.
It keeps no arrays: a warm start belongs to the caller's problem. Callers
keep one per kind of solve and pass it to the function that runs the solve,
which records it there (fusion's _ot_loss, metrics.score_shift), so no
plan outlives its use only to be counted. warn_on_trouble writes one
WARNING for any labelled set of them, log_solves their totals line.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericalError, ShapeMismatchError

# Burn-in of a cold solve: start near max(C), halve down to the stage
# above the target eps, a few scaling updates per stage.
_ANNEAL_FACTOR = 0.5
_ANNEAL_BURNIN = 10
# Scalings u, v outside [1/bound, bound] are absorbed into the potentials,
# which keeps the stabilised kernel and the matvecs in range.
_ABSORB_BOUND = 1e3
# Newton line search on the dual: Armijo constant, halvings before the
# scaling-loop fallback, and the relative slack that lets steps through
# once the dual's change is below its rounding error.
_ARMIJO_C = 1e-4
_ARMIJO_HALVINGS = 30
_ARMIJO_SLACK = 1e-13
_EPS_64 = float(np.finfo(np.float64).eps)
# the width of exp's float64 range, from the smallest subnormal to the
# largest finite value: about 1454
_EXP_SPAN = math.log(np.finfo(np.float64).max) - math.log(np.finfo(np.float64).smallest_subnormal)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SinkhornConfig:
    epsilon: float = 0.05
    max_iters: int = 500
    tolerance: float = 1e-6

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon}")
        if self.tolerance <= 0:
            raise ConfigError(f"tolerance must be > 0, got {self.tolerance}")
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass
class TransportPlan:
    plan: np.ndarray
    # f/eps and g/eps: P = diag(exp(log_u)) exp(-C/eps) diag(exp(log_v))
    log_u: np.ndarray
    log_v: np.ndarray
    transport_cost: float  # <P, C>
    reg_objective: float  # <P, C> - eps * H(P); the differentiable loss
    marginal_error: float
    iterations_used: int  # marginal checks
    converged: bool  # marginal_error <= tolerance
    # (Newton directions solved, fell back to scaling updates) by Newton
    newton: tuple[int, bool] = (0, False)


@dataclass
class SolverState:
    """Counts over the recorded solves (iters sums iterations_used; a
    direction is one dense n x n solve; fallbacks and unconverged count
    solves)."""

    solves: int = 0
    iters: int = 0
    directions: int = 0
    fallbacks: int = 0
    unconverged: int = 0

    def record(self, plan: TransportPlan) -> None:
        self.solves += 1
        self.iters += plan.iterations_used
        directions, fell_back = plan.newton
        self.directions += directions
        self.fallbacks += fell_back
        self.unconverged += not plan.converged

    def counts(self) -> dict[str, int]:
        """The counters by name."""
        return dict(vars(self))

    def __add__(self, other: SolverState) -> SolverState:
        """The summed counters."""
        return SolverState(*(a + b for a, b in zip(vars(self).values(), vars(other).values())))

    def __str__(self) -> str:
        return (f"{self.solves} solves, {self.iters} marginal checks, {self.directions} Newton "
                f"directions, {self.fallbacks} fallbacks, {self.unconverged} unconverged")


def warn_on_trouble(where: str, tallies: dict[str, SolverState]) -> None:
    """One WARNING at where naming each labelled tally's unconverged and
    fallen-back solves, when any tally has some."""
    trouble = [
        f"{what}: " + ", ".join(f"{k} {getattr(s, key)} of {s.solves}" for k, s in tallies.items())
        for key, what in (("unconverged", "Sinkhorn solves unconverged, above tolerance"),
                          ("fallbacks", "Sinkhorn solves fell back from Newton to scaling updates"))
        if any(getattr(s, key) for s in tallies.values())
    ]
    if trouble:
        log.warning("%s: %s", where, "; ".join(trouble))


def log_solves(where: str, kinds: dict[str, SolverState], warn: tuple[str, ...]) -> None:
    """One INFO line at where with the solve totals by kind, then warn_on_trouble's
    WARNING for the kinds named in warn (others' trouble was warned of as it ran)."""
    total = sum(kinds.values(), SolverState())
    log.info("%s: %d Sinkhorn solves (%s), %d unconverged, %d fell back", where, total.solves,
             ", ".join(f"{k} {s.solves}" for k, s in kinds.items()),
             total.unconverged, total.fallbacks)
    warn_on_trouble(where, {k: s for k, s in kinds.items() if k in warn})


def pairwise_cost(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Squared-Euclidean cost C[i, j] = ||x_i - y_j||^2 as an n x m float64
    array, the cost sinkhorn_plan takes."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2:
        raise ShapeMismatchError("feature clouds must be 2-D (samples x dims)")
    if X.shape[1] != Y.shape[1]:
        raise ShapeMismatchError(
            f"feature dimension mismatch: {X.shape[1]} vs {Y.shape[1]}"
        )
    if X.shape[0] == 0 or Y.shape[0] == 0:
        raise DataError("feature cloud is empty")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
        raise NumericalError("feature cloud contains non-finite values")
    # ||x||^2 + ||y||^2 - 2 X Y^T in one n x m array; where x_i is near
    # y_j the sum cancels, and rounding can leave it just below 0
    values = X @ Y.T
    values *= -2.0
    values += np.einsum("ij,ij->i", X, X)[:, None]
    values += np.einsum("ij,ij->i", Y, Y)
    np.maximum(values, 0.0, out=values)
    return values


def _finish(P, log_u, log_v, C, cfg: SinkhornConfig, it, r, c, newton) -> TransportPlan:
    rows, cols = P.sum(axis=1), P.sum(axis=0)
    eps = cfg.epsilon
    error = max(float(np.abs(rows - r).max()), float(np.abs(cols - c).max()))
    return TransportPlan(
        plan=P,
        log_u=log_u,
        log_v=log_v,
        transport_cost=float((P * C).sum()),
        # log P_ij = log_u_i + log_v_j - C_ij/eps, so <P, C> - eps*H(P)
        # reduces to the potentials weighted by the plan's marginals
        reg_objective=eps * float(log_u @ rows + log_v @ cols - rows.sum()),
        marginal_error=error,
        iterations_used=it,
        converged=error <= cfg.tolerance,
        newton=newton,
    )


def _fill_kernel(K: np.ndarray, f, g, C, e: float) -> None:
    """Write the stabilised kernel exp((f_i + g_j - C_ij) / e) into K."""
    np.add(f[:, None], g[None, :], out=K)
    K -= C
    K /= e
    np.exp(K, out=K)


def _scaling(target: np.ndarray, sums: np.ndarray, side: str, e: float):
    """Sinkhorn scaling target / sums, and whether it calls for absorption.

    A kernel row or column sum that is zero, subnormal or non-finite gives
    a scaling that is not positive and finite, which raises.
    """
    s = target / sums
    lo, hi = s.min(), s.max()
    if not (0.0 < lo and hi < math.inf):
        raise NumericalError(
            f"Sinkhorn kernel {side} sums left the positive finite range at "
            f"epsilon={e:g}; the scaling is not finite"
        )
    return s, not (1.0 / _ABSORB_BOUND <= lo and hi <= _ABSORB_BOUND)


def _absorb(K, f, g, u, v, C, e: float):
    """Fold e*log(u), e*log(v) into the potentials f, g and rebuild K."""
    f += e * np.log(u)
    g += e * np.log(v)
    _fill_kernel(K, f, g, C, e)
    return np.ones_like(u), np.ones_like(v)


def _burnin_stages(cmax: float, epsilon: float) -> list[float]:
    """Burn-in stage epsilons of a cold solve: from max(C) halving while
    above epsilon."""
    stages = []
    e = cmax
    while e > epsilon:
        stages.append(e)
        e *= _ANNEAL_FACTOR
    return stages


def _dual(f, g, r, c, e: float, rows) -> float:
    """Entropic dual <f, r> + <g, c> - e * sum(P), given P's row sums."""
    return float(f @ r + g @ c - e * rows.sum())


def _newton_direction(P, rows, cols, r, c, e: float):
    """Newton direction (df, dg) of the dual, or None if it cannot be formed.

    The Newton system (1/e) [[diag(rows), P], [P^T, diag(cols)]] d = grad
    is reduced to its Schur complement in f,
    S = diag(rows) - P diag(1/cols) P^T, solved densely. S 1 = 0 (the null
    direction (f + k, g - k) of the dual) and the right-hand side sums to
    zero, so x from (S + (mean(rows)/n) 11^T) x = rhs has 1^T x = 0 and
    solves S x = rhs: Newton steps keep the gauge sum(f). The diagonal also
    gets m * eps_64 * max(rows), the rounding of S's entries: a plan split
    into blocks that exchange no mass in floating point (a far cluster)
    makes S singular along a direction that leaves the plan as it is, where
    LU can meet an exact zero pivot. A system singular even so, or a
    non-finite direction, gives None.
    """
    n, m = P.shape
    inv_cols = 1.0 / cols
    rhs = e * ((r - rows) - P @ ((c - cols) * inv_cols))
    S = -((P * inv_cols) @ P.T)
    S += rows.mean() / n
    S.flat[:: n + 1] += rows + m * _EPS_64 * rows.max()
    try:
        x = np.linalg.solve(S, rhs)
    except np.linalg.LinAlgError:
        return None
    dg = (e * (c - cols) - P.T @ x) * inv_cols
    if not (np.isfinite(x).all() and np.isfinite(dg).all()):
        return None
    return x, dg


def _newton(K, f, g, C, r, c, cfg: SinkhornConfig, stop: float):
    """Damped Newton ascent on the dual at cfg.epsilon from (f, g), after
    one row scaling, until the marginal error is at most stop.

    Updates f, g in place and leaves the plan at (f, g) in K. Each step
    forms the plan, checks the marginals it will have after the caller's
    closing column scaling, takes the Newton direction and backtracks on
    the dual (Armijo, with slack for rounding). Returns (checks,
    directions, fell_back); fell_back is set when the plan is not finite,
    has a zero row or column sum, has no Newton direction or one too large
    for any trial step, or no step length raises the dual: the caller then
    runs scaling updates.
    """
    e = cfg.epsilon
    directions = 0
    f_try, g_try = np.empty_like(f), np.empty_like(g)
    _fill_kernel(K, f, g, C, e)
    # one row scaling first: it removes a global mass mismatch, which damped
    # Newton steps cut only about 3x each. f moves by du - mean(du) and g by
    # mean(du), so sum(f), the gauge that Newton steps keep, stays put. A
    # row sum with no finite scaling skips it, and the plan is checked as
    # it stands
    rows = K.sum(axis=1)
    u = r / rows
    du = e * np.log(u)
    if np.isfinite(du).all():
        shift = du.mean()
        f += du - shift
        g += shift
        K *= u[:, None]
        rows = K.sum(axis=1)
    cols = K.sum(axis=0)
    dual = _dual(f, g, r, c, e, rows)
    # a plan that cannot be checked is no check: the scaling loop gets the
    # whole budget, and its row/column-sum checks raise if they must
    if not (math.isfinite(dual) and rows.min() > 0.0 and cols.min() > 0.0):
        return 0, directions, True
    for check in range(1, cfg.max_iters + 1):
        # the marginal error of the plan this phase returns: the closing
        # column scaling leaves its column sums at c and its row sums at
        # K @ (c / cols), so those carry the whole error
        err = float(np.abs(K @ (c / cols) - r).max())
        if err <= stop:
            return check, directions, False
        if check == cfg.max_iters:
            break
        direction = _newton_direction(K, rows, cols, r, c, e)
        if direction is None:
            return check, directions, True
        directions += 1
        df, dg = direction
        slope = float((r - rows) @ df + (c - cols) @ dg)
        if not slope > 0.0:
            return check, directions, True
        # a direction whose smallest trial step still moves a potential by
        # more than e times exp's range leaves no trial a finite, non-empty
        # kernel: fall back without filling one
        if 0.5**_ARMIJO_HALVINGS * max(np.abs(df).max(), np.abs(dg).max()) > _EXP_SPAN * e:
            return check, directions, True
        slack = _ARMIJO_SLACK * float(np.abs(f) @ r + np.abs(g) @ c + e * rows.sum())
        t = 1.0
        for _ in range(_ARMIJO_HALVINGS + 1):
            np.add(f, t * df, out=f_try)
            np.add(g, t * dg, out=g_try)
            _fill_kernel(K, f_try, g_try, C, e)
            rows_try, cols_try = K.sum(axis=1), K.sum(axis=0)
            dual_try = _dual(f_try, g_try, r, c, e, rows_try)
            # a NaN or -inf dual fails the comparison, and a step may not
            # empty a row or column
            if (
                dual_try >= dual + _ARMIJO_C * t * slope - slack
                and rows_try.min() > 0.0
                and cols_try.min() > 0.0
            ):
                break
            t *= 0.5
        else:
            return check, directions, True
        f[:], g[:] = f_try, g_try
        rows, cols, dual = rows_try, cols_try, dual_try
    return cfg.max_iters, directions, False


def _scale(K, f, g, C, r, c, e: float, updates: int, stop=None) -> int:
    """Up to `updates` stabilised scaling updates at e from (f, g).

    Folds the scalings into f, g and returns the number of updates made;
    with a stop value, stops at the first update whose row sums meet it.
    K is left stale: the caller refills it from the new (f, g).
    """
    _fill_kernel(K, f, g, C, e)
    u, v = np.ones_like(r), np.ones_like(c)
    Kv = K @ v
    done = 0
    for done in range(1, updates + 1):
        u, out = _scaling(r, Kv, "row", e)
        if out:
            u, v = _absorb(K, f, g, u, v, C, e)
        v, out = _scaling(c, K.T @ u, "column", e)
        if out:
            u, v = _absorb(K, f, g, u, v, C, e)
        Kv = K @ v
        # column sums equal c after the v-update, so the row sums u * Kv
        # carry the whole marginal error
        if stop is not None and np.abs(u * Kv - r).max() <= stop:
            break
    f += e * np.log(u)
    g += e * np.log(v)
    return done


def _sinkhorn_log(C, r, c, cfg: SinkhornConfig, init) -> TransportPlan:
    K = np.empty_like(C)  # stabilised kernel; holds the plan at the end
    e = cfg.epsilon
    # a failed division or exponential surfaces as a NumericalError from
    # _scaling (or as a Newton fallback), so the floating-point warnings
    # ahead of it are noise
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if init is None:
            f, g = np.zeros_like(r), np.zeros_like(c)
            # burn-in: a few scaling updates per annealing stage above eps
            for stage in _burnin_stages(float(C.max()), e):
                _scale(K, f, g, C, r, c, stage, _ANNEAL_BURNIN)
        else:
            f, g = e * init[0], e * init[1]  # new arrays, updated in place
        # the rounding floor of a row sum (see the module docstring)
        stop = max(cfg.tolerance, C.shape[1] * _EPS_64 * float(r.max()))
        it, directions, fell_back = _newton(K, f, g, C, r, c, cfg, stop)
        if fell_back:
            # the scaling loop continues from the Newton iterate with the
            # rest of the budget
            it += _scale(K, f, g, C, r, c, e, cfg.max_iters - it, stop)
            _fill_kernel(K, f, g, C, e)
        else:
            # K holds the plan at (f, g); one closing column scaling gives it
            # column sums c, and so mass 1, as the scaling loop's last
            # update does
            v, _ = _scaling(c, K.sum(axis=0), "column", e)
            g += e * np.log(v)
            K *= v
    # diag(u) K diag(v) with K = exp(-C/eps) corresponds to log_u = f/eps
    return _finish(K, f / e, g / e, C, cfg, it, r, c, (directions, fell_back))


def sinkhorn_plan(C: np.ndarray, cfg: SinkhornConfig, init=None) -> TransportPlan:
    """Solve the n x m cost C between the uniform weights r = 1/n and
    c = 1/m until the marginal error meets cfg.tolerance, or falls below
    what a row sum can resolve (m * eps_64 * max(r)), or max_iters marginal
    checks are spent; converged says whether it met cfg.tolerance.

    C must be 2-D (else ShapeMismatchError) with finite, non-negative
    entries (else NumericalError). init, if given, is a pair (log_u, log_v)
    of shapes (n,) and (m,), an earlier plan's log-scalings; the Newton
    finish then starts from the potentials eps*log_u, eps*log_v at
    cfg.epsilon instead of from an annealed burn-in.
    """
    C = np.asarray(C, dtype=np.float64)
    if C.ndim != 2:
        raise ShapeMismatchError(f"cost matrix must be 2-D, got ndim={C.ndim}")
    if not np.all(np.isfinite(C)):
        raise NumericalError("cost matrix contains non-finite entries")
    if np.any(C < 0):
        raise NumericalError("cost matrix contains negative entries")
    n, m = C.shape
    if init is not None:
        log_u, log_v = (np.asarray(a, dtype=np.float64) for a in init)
        if log_u.shape != (n,) or log_v.shape != (m,):
            raise ShapeMismatchError(f"warm-start log-scalings {log_u.shape}, {log_v.shape} "
                                     f"do not match cost matrix ({n}, {m})")
        if not (np.all(np.isfinite(log_u)) and np.all(np.isfinite(log_v))):
            raise NumericalError("warm-start log-scalings contain non-finite values")
        init = (log_u, log_v)
    return _sinkhorn_log(C, np.full(n, 1.0 / n), np.full(m, 1.0 / m), cfg, init)


def sinkhorn_distance(
    X: np.ndarray, Y: np.ndarray, cfg: SinkhornConfig, init=None
) -> tuple[float, TransportPlan]:
    """Entropic OT alignment between two feature clouds: sinkhorn_plan on
    their pairwise_cost, so every point weighs 1/n (1/m on Y's side).

    Returns the transport cost <P, C> (the reported shift value) together
    with the full plan; plan.reg_objective carries the differentiable
    regularized value. init=(log_u, log_v) warm-starts it as in sinkhorn_plan.
    """
    plan = sinkhorn_plan(pairwise_cost(X, Y), cfg, init)
    return plan.transport_cost, plan


def sinkhorn_grad_features(
    X: np.ndarray, Y: np.ndarray, plan: TransportPlan
) -> np.ndarray:
    """Fixed-plan gradient of the OT objective with respect to X.

    d/dx_i = sum_j P_ij * 2 (x_i - y_j); also the gradient used for mask
    training. By the envelope theorem it is the exact gradient of the
    regularized objective only when plan is the optimal (converged) plan;
    for a plan stopped at max_iters it is an approximation whose error
    follows the plan's marginal error. Every solve ends in a Newton
    finish, which converges quadratically near the optimum; a solve that
    falls back to scaling updates may still stop at max_iters.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    P = plan.plan
    if P.shape != (X.shape[0], Y.shape[0]):
        raise ShapeMismatchError(
            f"plan shape {P.shape} does not match clouds "
            f"({X.shape[0]}, {Y.shape[0]})"
        )
    if X.shape[1] != Y.shape[1]:
        raise ShapeMismatchError("feature dimension mismatch between clouds")
    return 2.0 * (P.sum(axis=1)[:, None] * X - P @ Y)
