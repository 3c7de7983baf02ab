"""End-to-end verification contract for the package, one check per test.

Each test prints one `[acceptance] <id>: PASS/FAIL` line.  Two checks
(A2 and A6b) encode universal claims in their strongest literal form and
are EXPECTED TO FAIL on real counterexamples which the tests enumerate:

* A2 asserts that the absolute-value slope test |(bc-ad)theta^2+(a+d)theta|>1
  forces at least three solutions.  That is provably false for negative
  slopes (e.g. (a,b,c,d) = (0,0,0,-2), theta = 0.55: the value is -1.1,
  |.| > 1, yet l = -2 f_theta(l) has the single root 0 because the two
  sides have opposite signs for l != 0).  Only the signed test > 1 is
  sufficient; its exhaustive check lives in the solver suite and passes.

* A6b asserts k*kappa*gamma <= theta for every fully-positive solved pair
  under the criterion.  The chain behind it needs (A/J(A)) J'(A) <= 1 on
  1 < A <= exp(2h*), which fails near A = 1 (J'(1) = k*theta > 1): solved
  pairs close to a bifurcation yield kappa near theta, hence products near
  the criterion value, which exceeds 1.  Concrete counterexample:
  (a,b,c,d) = (1,1,1,-1) at theta = 0.75 has the fully-positive solution
  (0.67855, 0.27319) with k*kappa*gamma = 1.0886 > 1 > theta.

These are defects of the claims, not of the implementation; the failures
are left red deliberately rather than weakening the checks.
"""

import math
from collections import Counter

import numpy as np
import pytest

from treegibbs import (
    Coupling,
    FieldLabel,
    FieldPair,
    SchemeMatrix,
    arctanh,
    assign_fields,
    build_tree,
    check_kolmogorov,
    criterion_value,
    enumerate_schemes,
    f_theta,
    f_theta_prime,
    finite_volume_measure,
    gamma_bound,
    k_beta,
    kappa_bound_generic,
    nonuniqueness_criterion,
    realizable_reduced,
    reduce,
    root_marginal_ratio,
    solve_scalar,
    solve_system,
    system_residual,
    extremality_windows,
    verify_compatibility,
)
from treegibbs.extremality import Verdict

from identities import AlphaConvention, exp_system_residual


def _report(name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert passed, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared solved instances: all 100 order-2 schemes at theta in {0.6, 0.8}
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def solved_instances():
    instances = []
    for theta in (0.6, 0.8):
        for m in enumerate_schemes(2):
            instances.append((m, theta, solve_system(reduce(m), theta)))
    return instances


@pytest.fixture(scope="module")
def depth3_tree():
    return build_tree(2, 3)


def test_a1_scalar_bifurcation():
    """Exactly one root below/at theta=1/2, exactly three above."""
    failures = []
    for theta, expected in [(0.30, 1), (0.45, 1), (0.50, 1),
                            (0.55, 3), (0.70, 3), (0.80, 3), (0.95, 3)]:
        roots = solve_scalar(2, theta)
        if len(roots) != expected:
            failures.append((theta, len(roots)))
    h_star = solve_scalar(2, 0.8)[-1]
    residual = abs(h_star - 2 * f_theta(0.8, h_star))
    ok = not failures and residual < 1e-9 and 2.0 < h_star < 2.1
    _report(
        "A1 scalar-bifurcation", ok,
        f"root counts ok={not failures}, h*={h_star:.6f}, residual={residual:.2e}",
    )


def test_a2_absolute_criterion_forces_three_solutions():
    """EXPECTED FAIL: |.|-criterion is not sufficient for negative slopes."""
    failures = []
    fired = 0
    for k in (1, 2, 3):
        thetas = [round(0.05 * i, 2) for i in range(1, 20)]
        for r in sorted(realizable_reduced(k), key=lambda q: q.abcd):
            for theta in thetas:
                if not nonuniqueness_criterion(r, theta):
                    continue
                fired += 1
                sols = solve_system(r, theta)
                tuples = {p.as_tuple() for p in sols}
                ok = (
                    len(sols) >= 3
                    and (0.0, 0.0) in tuples
                    and any(t != (0.0, 0.0) and (-t[0], -t[1]) in tuples for t in tuples)
                    and all(system_residual(r, theta, p) < 1e-9 for p in sols)
                )
                if not ok:
                    failures.append((k, r.abcd, theta, len(sols)))
    detail = (
        f"criterion fired on {fired} instances, {len(failures)} lack three solutions; "
        f"first counterexamples: {failures[:3]}; signed variant passes exhaustively "
        f"(see test_solver.py::TestSolveSystem::test_signed_criterion_sufficiency)"
    )
    _report("A2 criterion-implies-multiplicity (literal absolute form)", not failures, detail)


def test_a3_compatibility_bridge(solved_instances, depth3_tree):
    """Solved pairs satisfy the recursion on depth-3 trees; (h+0.1, l) fails."""
    bad_pass, bad_fail = [], []
    for m, theta, sols in solved_instances:
        for pair in sols:
            asg = assign_fields(depth3_tree, m, FieldLabel.PLUS_H, pair)
            if not verify_compatibility(asg, theta, tol=1e-9).passed:
                bad_pass.append((m.a, m.b, theta, pair.as_tuple()))
            perturbed = assign_fields(
                depth3_tree, m, FieldLabel.PLUS_H, FieldPair(pair.h + 0.1, pair.l)
            )
            if verify_compatibility(perturbed, theta, tol=1e-9).passed:
                bad_fail.append((m.a, m.b, theta, pair.as_tuple()))
    ok = not bad_pass and not bad_fail
    _report(
        "A3 compatibility-bridge", ok,
        f"{len(bad_pass)} solved pairs failed, {len(bad_fail)} perturbed pairs passed",
    )


def test_a4_kolmogorov_consistency(solved_instances, depth3_tree):
    """Marginalization consistency at 1e-12 for solutions; a perturbation
    that actually reaches the measured levels breaks it by >= 1e-4.

    The perturbed check takes the worse of the two single-component
    perturbations (h+0.1 and l+0.1): a component absent from the labels of
    the compared levels (or entering only through cancelling +-H child
    blocks) leaves the measures identical, so perturbing it alone cannot
    fail anywhere.
    """
    worst_pass = 0.0
    min_fail = math.inf
    bad = []
    for m, theta, sols in solved_instances:
        coupling = Coupling.from_theta(theta)
        for pair in sols:
            asg = assign_fields(depth3_tree, m, FieldLabel.PLUS_H, pair)
            mus = {n: finite_volume_measure(depth3_tree, asg, coupling, n) for n in (1, 2, 3)}
            for n in (2, 3):
                rep = check_kolmogorov(mus[n], mus[n - 1], tol=1e-12)
                worst_pass = max(worst_pass, rep.max_discrepancy)
                if not rep.passed:
                    bad.append(("pass-side", m.a, m.b, theta, n, pair.as_tuple()))
            for n in (2, 3):
                best = 0.0
                for pert in (FieldPair(pair.h + 0.1, pair.l), FieldPair(pair.h, pair.l + 0.1)):
                    asg_p = assign_fields(depth3_tree, m, FieldLabel.PLUS_H, pert)
                    mu_n = finite_volume_measure(depth3_tree, asg_p, coupling, n)
                    mu_p = finite_volume_measure(depth3_tree, asg_p, coupling, n - 1)
                    best = max(best, check_kolmogorov(mu_n, mu_p).max_discrepancy)
                min_fail = min(min_fail, best)
                if best < 1e-4:
                    bad.append(("fail-side", m.a, m.b, theta, n, pair.as_tuple()))
    _report(
        "A4 kolmogorov-consistency", not bad,
        f"worst solved-pair discrepancy {worst_pass:.2e} (tol 1e-12), "
        f"smallest perturbed discrepancy {min_fail:.2e} (need >= 1e-4)",
    )


A5_SCHEMES = [
    SchemeMatrix(k=2, a=(2, 0, 0, 0), b=(0, 0, 2, 0)),
    SchemeMatrix(k=2, a=(0, 2, 0, 0), b=(0, 2, 0, 0)),
    SchemeMatrix(k=2, a=(1, 0, 1, 0), b=(1, 0, 0, 1)),
    SchemeMatrix(k=2, a=(0, 0, 2, 0), b=(0, 0, 2, 0)),
    SchemeMatrix(k=2, a=(1, 1, 0, 0), b=(0, 0, 2, 0)),
]


def test_a5_root_marginal_ratio():
    """Brute-force root magnetization ratio matches exp(-2 h_root) at
    1e-10 on 20 instances covering both root-label signs."""
    checks = 0
    failures = []
    tree = build_tree(2, 3)
    for scheme, labels in zip(
        A5_SCHEMES,
        [(FieldLabel.PLUS_H, FieldLabel.MINUS_H)] * 3
        + [(FieldLabel.PLUS_L, FieldLabel.MINUS_L)] * 2,
    ):
        for theta in (0.6, 0.8):
            pair = solve_system(reduce(scheme), theta).largest_nonnegative()
            coupling = Coupling.from_theta(theta)
            for root in labels:
                asg = assign_fields(tree, scheme, root, pair)
                mu = finite_volume_measure(tree, asg, coupling, 3)
                base = pair.h if root.is_h_type else pair.l
                expected = math.exp(-2.0 * root.sign * base)
                deviation = abs(root_marginal_ratio(mu) - expected)
                checks += 1
                if deviation >= 1e-10:
                    failures.append((scheme.a, scheme.b, theta, root.value, deviation))
    _report(
        "A5 root-marginal-ratio", checks == 20 and not failures,
        f"{checks} instances checked, {len(failures)} outside 1e-10",
    )


def test_a6a_window_for_degenerate_pairs():
    """With h*l = 0 the certificate fires exactly on 0.50 < theta < 0.7071."""
    grid = [round(0.01 * i, 2) for i in range(1, 100)]
    fired = [
        theta for theta in grid
        if extremality_windows(2, theta, FieldPair(0.0, 0.7)) is Verdict.EXTREME_CERTIFIED
    ]
    expected = [round(0.01 * i, 2) for i in range(51, 71)]
    _report(
        "A6a degenerate-pair-window", fired == expected,
        f"fired on [{fired[0]}, {fired[-1]}] ({len(fired)} grid points)" if fired else "never fired",
    )


def test_a6b_positive_pairs_product_below_theta():
    """EXPECTED FAIL: k*kappa*gamma <= theta for every fully-positive
    solved pair under the criterion."""
    violations = []
    count = 0
    for k in (2, 3):
        thetas = [round(1.0 / k + i * (0.95 - 1.0 / k) / 9, 6) for i in range(1, 10)]
        for m in enumerate_schemes(k):
            r = reduce(m)
            for theta in thetas:
                if not nonuniqueness_criterion(r, theta):
                    continue
                for pair in solve_system(r, theta):
                    if pair.h <= 1e-12 or pair.l <= 1e-12:
                        continue
                    count += 1
                    coupling = Coupling.from_theta(theta)
                    product = k * kappa_bound_generic(coupling, pair) * gamma_bound(coupling)
                    if product > theta + 1e-12:
                        violations.append((k, r.abcd, theta, round(product, 4)))
    detail = (
        f"{count} fully-positive pairs, {len(violations)} with product > theta; "
        f"first: {violations[:3]}"
    )
    _report("A6b positive-pair-product (literal uniform claim)", not violations, detail)


def test_a7_labelling_recipes():
    """Child label multisets of the order-6 scheme and strict level
    alternation of the two-periodic order-3 scheme."""
    tree6 = build_tree(6, 1)
    m6 = SchemeMatrix(k=6, a=(2, 1, 1, 2), b=(1, 1, 2, 2))
    expected = {
        FieldLabel.PLUS_H: {"+H": 2, "-H": 1, "+L": 1, "-L": 2},
        FieldLabel.MINUS_H: {"-H": 2, "+H": 1, "-L": 1, "+L": 2},
        FieldLabel.PLUS_L: {"+H": 1, "-H": 1, "+L": 2, "-L": 2},
        FieldLabel.MINUS_L: {"-H": 1, "+H": 1, "-L": 2, "+L": 2},
    }
    multisets_ok = True
    for root, want in expected.items():
        asg = assign_fields(tree6, m6, root, FieldPair(1.0, 0.5))
        got = Counter(asg.labels[c].value for c in tree6.children(0))
        multisets_ok = multisets_ok and got == want

    tree3 = build_tree(3, 4)
    m3 = SchemeMatrix(k=3, a=(0, 3, 0, 0), b=(0, 3, 0, 0))
    asg = assign_fields(tree3, m3, FieldLabel.PLUS_H, FieldPair(0.9, 0.0))
    alternation_ok = all(
        asg.labels[v] is (FieldLabel.PLUS_H if level % 2 == 0 else FieldLabel.MINUS_H)
        for level in range(5)
        for v in tree3.level(level)
    )
    _report(
        "A7 labelling-recipes", multisets_ok and alternation_ok,
        f"multisets ok={multisets_ok}, alternation ok={alternation_ok}",
    )


def test_a8_function_properties():
    """Oddness, boundedness, concavity, derivative agreement, unimodality."""
    hs = np.linspace(-5.0, 5.0, 101)
    thetas = [s * t for t in (0.1, 0.3, 0.5, 0.7, 0.9) for s in (1, -1)]
    odd_ok = bounded_ok = concave_ok = deriv_ok = True
    for theta in thetas:
        vals = f_theta(theta, hs)
        odd_ok &= bool(np.all(f_theta(theta, -hs) == -vals))
        odd_ok &= bool(np.all(f_theta(-theta, hs) == -vals))
        bounded_ok &= bool(np.all(np.abs(vals) < arctanh(abs(theta))))
        step = 1e-6
        fd = (f_theta(theta, hs + step) - f_theta(theta, hs - step)) / (2 * step)
        deriv_ok &= bool(np.max(np.abs(f_theta_prime(theta, hs) - fd)) < 1e-8)
        if theta > 0:
            pos = np.linspace(0.05, 5.0, 60)
            eps = 1e-4
            second = (
                f_theta(theta, pos + eps) - 2 * f_theta(theta, pos) + f_theta(theta, pos - eps)
            )
            concave_ok &= bool(np.all(second < 0))
    coupling = Coupling.from_interaction(J=1.0, beta=0.7)
    rising = k_beta(coupling, np.geomspace(1e-3, 1.0, 100))
    falling = k_beta(coupling, np.geomspace(1.0, 1e3, 100))
    unimodal_ok = bool(np.all(np.diff(rising) > 0) and np.all(np.diff(falling) < 0))
    ok = odd_ok and bounded_ok and concave_ok and deriv_ok and unimodal_ok
    _report(
        "A8 function-properties", ok,
        f"odd={odd_ok} bounded={bounded_ok} concave={concave_ok} "
        f"derivative={deriv_ok} unimodal={unimodal_ok}",
    )


def test_a9_exponentiated_system_convention(solved_instances):
    """alpha = exp(-2 beta J) reproduces the system at solver accuracy;
    the literal alpha = exp(-beta J) breaks it on nonzero solutions."""
    worst = 0.0
    literal_max = 0.0
    bad = []
    for m, theta, sols in solved_instances:
        coupling = Coupling.from_theta(theta)
        for pair in sols:
            residual = exp_system_residual(m, coupling, pair)
            worst = max(worst, residual)
            if residual >= 1e-9:
                bad.append((m.a, m.b, theta, pair.as_tuple(), residual))
            if abs(pair.h) + abs(pair.l) > 1e-9:
                literal_max = max(
                    literal_max,
                    exp_system_residual(m, coupling, pair, AlphaConvention.EXP_MINUS_BJ),
                )
    ok = not bad and literal_max > 1e-3
    _report(
        "A9 exponentiated-system-convention", ok,
        f"worst residual {worst:.2e} under exp(-2bJ); literal convention "
        f"deviates by up to {literal_max:.2e}",
    )
