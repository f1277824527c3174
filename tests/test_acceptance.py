"""End-to-end acceptance suite: one test per criterion, one verdict line each."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import (
    dense_h_matrix,
    prediction_row_residuals,
    flat,
    flatten_for_h,
    random_iterate,
    random_system,
    record_acceptance,
)
from parasplit.discretization import (
    TimeGrid,
    build_system,
    constraint_residual,
    objective_constant_terms,
    objective_quadrature,
    objective_vec,
)
from parasplit.experiments import benchmark, build_level, convergence_study, get_example
from parasplit.fem_assembly import make_space
from parasplit.kkt_oracle import solve_kkt
from parasplit.mesh import uniform_unit_square
from parasplit.splitting_solver import (
    Iterate,
    PredictionFactors,
    SolverConfig,
    correct,
    correction_factor,
    h_norm_sq,
    iterate_diff,
    predict,
    solve,
)

ORDER_BAND = (1.8, 2.2)


def _verdict(num: int, ok: bool, detail: str) -> bool:
    record_acceptance(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _star_iterate(sys) -> Iterate:
    sol = solve_kkt(sys, sys.alpha)
    return Iterate.of(sol.U_star, sol.Y_star, sol.lambda_star)


def test_criterion_1_discretization_orders():
    lo, hi = ORDER_BAND
    details, ok = [], True
    for name in ("5.1", "5.2"):
        rows = convergence_study(get_example(name), [4, 8, 16, 32], mode="oracle")
        for row in rows[1:]:
            for tag, order in (("y", row.order_y), ("u", row.order_u)):
                if not lo <= order <= hi:
                    ok = False
            details.append(f"{name} n={row.level}: y={row.order_y:.3f} u={row.order_u:.3f}")
    assert _verdict(1, ok, "; ".join(details))


@pytest.fixture(scope="module")
def contraction_run():
    """Example 5.1 at n=8 (M=16), (alpha, beta, gamma) = (1e-2, 10, 1):
    distance-to-solution and increment histories over 2001 iterations of
    the paper's constant step, for which criterion 3's rate is proven."""
    sys = build_level(get_example("5.1"), 8)
    assert sys.grid.M == 16
    w_star = _star_iterate(sys)
    beta, gamma = 10.0, 1.0
    config = SolverConfig(alpha=1e-2, beta=beta, gamma=gamma, epsilon=0.0, k_max=2001, step="constant")
    dist_sq = []
    _, report = solve(
        sys,
        config,
        monitor=lambda k, w: dist_sq.append(h_norm_sq(sys, iterate_diff(w, w_star), beta)),
    )
    return np.asarray(dist_sq), report.increment_history, gamma


def test_criterion_2_contraction_inequality(contraction_run):
    dist_sq, inc, gamma = contraction_run
    slack = 1e-10 * dist_sq[0]
    lhs = dist_sq[1:]
    rhs = dist_sq[:-1] - ((2.0 - gamma) / gamma) * inc[: len(dist_sq) - 1]
    worst = float((lhs - rhs).max())
    ok = bool(np.all(lhs <= rhs + slack))
    assert _verdict(2, ok, f"max violation {worst:.3e} vs slack {slack:.3e} over {len(lhs)} steps")


def test_criterion_3_rate_bound(contraction_run):
    dist_sq, inc, gamma = contraction_run
    slack = 1e-10 * dist_sq[0]
    k = np.arange(1, len(inc) + 1)
    bound = 4.0 / (gamma * (2.0 - gamma) * k) * dist_sq[0]
    worst = float((inc - bound).max())
    ok = bool(np.all(inc <= bound + slack))
    assert _verdict(3, ok, f"max violation {worst:.3e} vs slack {slack:.3e}")


def test_criterion_4_oracle_agreement():
    details, ok = [], True
    for name in ("5.1", "5.2"):
        prob = get_example(name)
        space = make_space(uniform_unit_square(4), prob.bc)
        sys = build_system(prob, space, TimeGrid(T=prob.T, M=8))
        w_star = _star_iterate(sys)
        config = SolverConfig(alpha=prob.alpha, beta=0.3, gamma=1.0)
        factors = PredictionFactors.build(sys, config)
        nu = correction_factor(8, config.gamma)
        w = Iterate.zeros(sys.ndof, 8)
        d0 = math.sqrt(h_norm_sq(sys, iterate_diff(w, w_star), config.beta))
        reached = None
        for k in range(1, 100_001):
            w = correct(w, iterate_diff(w, predict(sys, w, config, factors)), nu)
            if k % 100 == 0:
                d = math.sqrt(h_norm_sq(sys, iterate_diff(w, w_star), config.beta))
                if d <= 1e-6 * d0:
                    reached = k
                    break
        if reached is None:
            ok = False
            details.append(f"{name}: not reached within 1e5")
        else:
            details.append(f"{name}: reached 1e-6 relative at k={reached}")
    assert _verdict(4, ok, "; ".join(details))


def test_criterion_5_prediction_exactness():
    worst = 0.0
    ok = True
    checked = 0
    for seed, (n, M) in enumerate([(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)]):
        sys = random_system(seed, n=n, M=M)
        beta = 10.0 ** np.random.default_rng(seed).uniform(-1, 1)
        config = SolverConfig(alpha=sys.alpha, beta=beta, epsilon=0.0, k_max=20)
        factors = PredictionFactors.build(sys, config)
        iterates = []
        solve(sys, config, monitor=lambda k, w: iterates.append(w.copy()))
        for w in iterates:
            w_t = predict(sys, w, config, factors)
            res = prediction_row_residuals(sys, w, w_t, config.alpha, beta)
            worst = max(worst, float(res.max()))
            # multiplier update row against the dense constraint residual
            lam_expected = w.lam - beta * constraint_residual(sys, w_t.Y, w_t.U)
            scale = max(1.0, np.abs(lam_expected).max())
            worst = max(worst, float(np.abs(w_t.lam - lam_expected).max() / scale))
            checked += 1
    ok = worst <= 1e-9
    assert _verdict(5, ok, f"max relative residual {worst:.3e} over {checked} iterations")


def test_criterion_6_h_norm_identity():
    worst = 0.0
    positive = True
    for M in (1, 2, 3):
        sys = random_system(40 + M, n=2, M=M)
        beta = 0.5 + 0.25 * M
        H = dense_h_matrix(sys, beta)
        for trial in range(50):
            v = random_iterate(1000 * M + trial, sys)
            x = flatten_for_h(sys, v)
            dense = float(x @ (H @ x))
            fast = h_norm_sq(sys, v, beta)
            worst = max(worst, abs(fast - dense) / max(1.0, abs(dense)))
            if fast <= 0.0:
                positive = False
    ok = worst <= 1e-11 and positive
    assert _verdict(6, ok, f"max relative mismatch {worst:.3e} on 150 samples; positivity={positive}")


def test_criterion_7_box_variant():
    prob = get_example("5.1")
    sys = build_level(prob, 8)
    lo, hi = 0.0, 0.8
    bound_violation = [0.0]

    def monitor(k, w):
        bound_violation[0] = max(
            bound_violation[0], float(max(lo - w.P.min(), w.P.max() - hi, 0.0))
        )

    config = SolverConfig(
        alpha=prob.alpha, beta=0.3, gamma=1.5, bounds=(lo, hi), epsilon=1e-12, k_max=60000
    )
    w, report = solve(sys, config, monitor=monitor)
    gap = float(np.linalg.norm(w.Y - w.P))
    rel_gap = gap / np.linalg.norm(w.Y)
    part_a = report.converged and bound_violation[0] == 0.0 and rel_gap < 1e-4

    # Bounds that never bind leave the unconstrained saddle point, which the
    # oracle solves exactly.
    wide = SolverConfig(
        alpha=prob.alpha, beta=0.3, gamma=1.5, bounds=(-1e6, 1e6), epsilon=1e-22, k_max=200000
    )
    w_wide, rep_w = solve(sys, wide)
    sol = solve_kkt(sys, prob.alpha)
    diff = iterate_diff(Iterate.of(sol.U_star, sol.Y_star, sol.lambda_star), Iterate(w_wide.z[:3]))
    h_dist = math.sqrt(h_norm_sq(sys, diff, 0.3))
    part_b = rep_w.converged and h_dist <= 1e-6

    ok = part_a and part_b
    assert _verdict(
        7,
        ok,
        f"bounds respected (violation {bound_violation[0]:.1e}), gap/||Y||={rel_gap:.2e}, "
        f"wide-bounds H-distance {h_dist:.2e}",
    )


def test_criterion_8_determinism_and_psf():
    prob = get_example("5.1")
    config = SolverConfig(alpha=prob.alpha, beta=prob.beta)
    try:
        rows = benchmark(prob, config, 32, [1, 2, 4, 8], k=100)
    except RuntimeError as exc:  # iterate mismatch across thread counts
        assert _verdict(8, False, str(exc))
        return
    psf = ", ".join(f"{r.threads}t={r.psf:.3f}" for r in rows)
    ok = rows[0].psf == 1.0 and all(r.psf > 0.0 for r in rows)
    assert _verdict(8, ok, f"iterates identical across threads; PSF {psf}")


def test_criterion_9_objective_identity():
    worst = 0.0
    checked = 0
    for name in ("5.1", "5.2"):
        prob = get_example(name)
        for n, M in ((2, 2), (3, 3), (4, 4), (2, 4), (4, 2)):
            space = make_space(uniform_unit_square(n), prob.bc)
            sys = build_system(prob, space, TimeGrid(T=prob.T, M=M))
            const = objective_constant_terms(sys)
            rng = np.random.default_rng(checked)
            for _ in range(3):
                Y = rng.standard_normal((sys.ndof, M))
                U = rng.standard_normal((sys.ndof, M))
                quad = objective_quadrature(sys, Y, U)
                vec = objective_vec(sys, Y, U) + const
                worst = max(worst, abs(vec - quad) / max(1.0, abs(quad)))
                checked += 1
    ok = worst <= 1e-10
    assert _verdict(9, ok, f"max relative mismatch {worst:.3e} over {checked} trajectories")
