"""Exact enumeration oracle: weights, normalization, marginalization
consistency, root magnetization and the variation-distance kernel."""

import math
import tracemalloc

import numpy as np
import pytest

from treegibbs import (
    CapacityError,
    Coupling,
    FieldLabel,
    FieldPair,
    SchemeMatrix,
    assign_fields,
    build_tree,
    check_kolmogorov,
    config_weight,
    finite_volume_measure,
    k_beta,
    parent_disagreement_distance,
    reduce,
    root_marginal_ratio,
    solve_scalar,
    solve_system,
    variation_distance,
)

H_STAR_2_08 = 2.0634370688955605

TI_DECOUPLED = SchemeMatrix(k=2, a=(2, 0, 0, 0), b=(0, 0, 2, 0))


def _ti_assignment(tree, values):
    return assign_fields(tree, TI_DECOUPLED, FieldLabel.PLUS_H, values)


class TestConfigWeight:
    def test_all_up_depth_one(self):
        tree = build_tree(2, 1)
        asg = _ti_assignment(tree, FieldPair(0.0, 0.0))
        c = Coupling.from_interaction(J=1.0, beta=0.5)
        # two edges aligned, no field term
        assert config_weight(tree, asg, c, [1, 1, 1], 1) == pytest.approx(math.e, rel=1e-15)

    def test_infinite_temperature_uniform(self):
        tree = build_tree(2, 1)
        asg = _ti_assignment(tree, FieldPair(0.0, 0.0))
        c = Coupling.from_interaction(J=0.0, beta=1.0)
        for sigma in ([1, 1, 1], [1, -1, 1], [-1, -1, -1]):
            assert config_weight(tree, asg, c, sigma, 1) == 1.0

    def test_single_leaf_flip_cancels_edges(self):
        tree = build_tree(2, 1)
        asg = _ti_assignment(tree, FieldPair(0.0, 0.0))
        c = Coupling.from_interaction(J=1.0, beta=0.5)
        assert config_weight(tree, asg, c, [1, 1, -1], 1) == pytest.approx(1.0, rel=1e-15)

    def test_rejects_bad_configuration(self):
        tree = build_tree(2, 1)
        asg = _ti_assignment(tree, FieldPair(0.0, 0.0))
        c = Coupling.from_interaction(J=1.0, beta=0.5)
        with pytest.raises(ValueError):
            config_weight(tree, asg, c, [1, 1], 1)
        with pytest.raises(ValueError):
            config_weight(tree, asg, c, [1, 0, 1], 1)


class TestFiniteVolumeMeasure:
    def test_uniform_at_infinite_temperature(self):
        tree = build_tree(2, 1)
        asg = _ti_assignment(tree, FieldPair(0.0, 0.0))
        c = Coupling.from_interaction(J=0.0, beta=1.0)
        mu = finite_volume_measure(tree, asg, c, 1)
        np.testing.assert_allclose(mu.probabilities, np.full(8, 1 / 8), atol=1e-15)

    def test_normalization(self):
        tree = build_tree(2, 2)
        asg = _ti_assignment(tree, FieldPair(H_STAR_2_08, 0.0))
        c = Coupling.from_theta(0.8)
        mu = finite_volume_measure(tree, asg, c, 2)
        assert mu.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        assert mu.z == pytest.approx(mu.weights.sum(), rel=1e-15)

    def test_matches_config_weight_up_to_scale(self):
        cases = [
            (TI_DECOUPLED, FieldLabel.PLUS_H, FieldPair(0.4, 0.0), 0.6, 1),
            # mixed labels: all four field values meet on the outer level
            (SchemeMatrix(k=3, a=(1, 1, 1, 0), b=(0, 1, 1, 1)), FieldLabel.MINUS_L,
             FieldPair(0.9, 0.35), 0.7, 2),
            (SchemeMatrix(k=2, a=(1, 0, 1, 0), b=(0, 1, 0, 1)), FieldLabel.PLUS_L,
             FieldPair(0.8, -0.45), 0.75, 3),
        ]
        for scheme, root, values, theta, n in cases:
            tree = build_tree(scheme.k, n)
            asg = assign_fields(tree, scheme, root, values)
            c = Coupling.from_theta(theta)
            mu = finite_volume_measure(tree, asg, c, n)
            # mask bits: bit v set means spin -1 at vertex v
            raw = np.array([
                config_weight(
                    tree, asg, c, [1 - 2 * ((mask >> v) & 1) for v in range(mu.num_sites)], n
                )
                for mask in range(1 << mu.num_sites)
            ])
            # configurations whose energy cancels to zero keep an absolute rounding
            np.testing.assert_allclose(
                np.log(mu.weights) + mu.log_scale, np.log(raw), rtol=1e-12, atol=1e-13
            )
            np.testing.assert_allclose(mu.probabilities, raw / raw.sum(), rtol=1e-13)

    @pytest.mark.parametrize("s", [1, -1])
    def test_grafted_parent_spin_energy(self, s):
        tree = build_tree(2, 2)
        scheme = SchemeMatrix(k=2, a=(1, 0, 1, 0), b=(0, 1, 0, 1))
        asg = assign_fields(tree, scheme, FieldLabel.PLUS_H, FieldPair(0.8, -0.45))
        fields = asg.numeric_fields()
        c = Coupling.from_theta(0.75)
        bj = c.beta_j
        mu = finite_volume_measure(tree, asg, c, 2, root_parent_spin=s)
        energies = []
        for mask in range(1 << 7):
            sigma = [1 - 2 * ((mask >> v) & 1) for v in range(7)]
            energy = bj * s * sigma[0]
            energy += sum(bj * sigma[(v - 1) // 2] * sigma[v] for v in range(1, 7))
            energy += sum(fields[v] * sigma[v] for v in range(3, 7))
            energies.append(energy)
        np.testing.assert_allclose(
            np.log(mu.weights) + mu.log_scale, energies, rtol=1e-12, atol=1e-13
        )

    def test_peak_memory_is_one_vector(self):
        # 2^20 configurations: the log weights are built and exponentiated
        # in one float64 vector, with no spin table beside it
        tree = build_tree(19, 1)
        asg = assign_fields(
            tree, SchemeMatrix(k=19, a=(19, 0, 0, 0), b=(0, 0, 19, 0)), FieldLabel.PLUS_H,
            FieldPair(0.3, 0.0),
        )
        c = Coupling.from_theta(0.6)
        tracemalloc.start()
        try:
            mu = finite_volume_measure(tree, asg, c, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mu.weights.size == 1 << 20
        assert peak <= 2 * mu.weights.nbytes

    def test_spin_flip_covariance(self):
        # negating every label maps the measure to its global spin flip
        tree = build_tree(2, 2)
        m = SchemeMatrix(k=2, a=(1, 0, 1, 0), b=(1, 0, 0, 1))
        c = Coupling.from_theta(0.8)
        values = FieldPair(0.9, 0.35)
        plus = assign_fields(tree, m, FieldLabel.PLUS_H, values)
        minus = assign_fields(tree, m, FieldLabel.MINUS_H, values)
        mu_plus = finite_volume_measure(tree, plus, c, 2)
        mu_minus = finite_volume_measure(tree, minus, c, 2)
        n_configs = 1 << mu_plus.num_sites
        flipped = np.array(
            [mu_minus.probabilities[(n_configs - 1) ^ mask] for mask in range(n_configs)]
        )
        np.testing.assert_allclose(mu_plus.probabilities, flipped, atol=1e-14)

    def test_capacity_cap(self):
        tree = build_tree(2, 4)  # 31 sites -> 2^31 configurations
        asg = _ti_assignment(build_tree(2, 4), FieldPair(0.0, 0.0))
        c = Coupling.from_theta(0.5)
        with pytest.raises(CapacityError):
            finite_volume_measure(tree, asg, c, 4)


class TestKolmogorov:
    def test_zero_fields_consistent(self):
        tree = build_tree(2, 2)
        m = SchemeMatrix(k=2, a=(1, 1, 0, 0), b=(0, 0, 1, 1))
        asg = assign_fields(tree, m, FieldLabel.PLUS_H, FieldPair(0.0, 0.0))
        c = Coupling.from_theta(0.8)
        mu2 = finite_volume_measure(tree, asg, c, 2)
        mu1 = finite_volume_measure(tree, asg, c, 1)
        assert check_kolmogorov(mu2, mu1).passed

    def test_solved_pair_consistent_depth_three(self):
        tree = build_tree(2, 3)
        asg = _ti_assignment(tree, FieldPair(H_STAR_2_08, 0.0))
        c = Coupling.from_theta(0.8)
        mu3 = finite_volume_measure(tree, asg, c, 3)
        mu2 = finite_volume_measure(tree, asg, c, 2)
        report = check_kolmogorov(mu3, mu2)
        assert report.passed and report.max_discrepancy < 1e-12

    def test_non_solution_inconsistent(self):
        tree = build_tree(2, 3)
        asg = _ti_assignment(tree, FieldPair(1.0, 0.0))
        c = Coupling.from_theta(0.8)
        mu3 = finite_volume_measure(tree, asg, c, 3)
        mu2 = finite_volume_measure(tree, asg, c, 2)
        report = check_kolmogorov(mu3, mu2)
        assert not report.passed
        assert report.max_discrepancy > 1e-4

    def test_default_tolerance_scales_with_outer_configurations(self):
        c = Coupling.from_theta(0.8)
        small = build_tree(2, 2)
        asg = _ti_assignment(small, FieldPair(H_STAR_2_08, 0.0))
        mu2, mu1 = (finite_volume_measure(small, asg, c, n) for n in (2, 1))
        assert check_kolmogorov(mu2, mu1).tol == 1e-12
        assert check_kolmogorov(mu2, mu1, tol=1e-3).tol == 1e-3
        # 21 sites: each marginal entry sums 2^16 outer configurations
        large = build_tree(4, 2)
        m = SchemeMatrix(k=4, a=(4, 0, 0, 0), b=(0, 0, 4, 0))
        asg = assign_fields(large, m, FieldLabel.PLUS_H, FieldPair(0.0, 0.0))
        mu2, mu1 = (finite_volume_measure(large, asg, c, n) for n in (2, 1))
        report = check_kolmogorov(mu2, mu1)
        assert report.tol == 2.0**16 * 2.0**-52
        assert report.passed

    def test_depth_mismatch_rejected(self):
        tree = build_tree(2, 3)
        asg = _ti_assignment(tree, FieldPair(0.0, 0.0))
        c = Coupling.from_theta(0.8)
        mu3 = finite_volume_measure(tree, asg, c, 3)
        mu1 = finite_volume_measure(tree, asg, c, 1)
        with pytest.raises(ValueError):
            check_kolmogorov(mu3, mu1)


class TestRootMarginalRatio:
    def test_symmetric_measure(self):
        tree = build_tree(2, 2)
        asg = _ti_assignment(tree, FieldPair(0.0, 0.0))
        c = Coupling.from_theta(0.8)
        assert root_marginal_ratio(finite_volume_measure(tree, asg, c, 2)) == pytest.approx(
            1.0, abs=1e-13
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_exponential_formula(self, n):
        tree = build_tree(2, n)
        asg = _ti_assignment(tree, FieldPair(H_STAR_2_08, 0.0))
        c = Coupling.from_theta(0.8)
        ratio = root_marginal_ratio(finite_volume_measure(tree, asg, c, n))
        assert ratio == pytest.approx(math.exp(-2 * H_STAR_2_08), abs=1e-10)

    def test_negative_root_label(self):
        tree = build_tree(2, 2)
        asg = assign_fields(tree, TI_DECOUPLED, FieldLabel.MINUS_H, FieldPair(H_STAR_2_08, 0.0))
        c = Coupling.from_theta(0.8)
        ratio = root_marginal_ratio(finite_volume_measure(tree, asg, c, 2))
        assert ratio == pytest.approx(math.exp(2 * H_STAR_2_08), rel=1e-10)


class TestVariationDistanceKernel:
    @pytest.mark.parametrize(
        "scheme,theta,values",
        [
            (TI_DECOUPLED, 0.8, None),  # fully ordered pair
            (SchemeMatrix(k=2, a=(1, 0, 1, 0), b=(1, 0, 0, 1)), 0.75, None),
            (SchemeMatrix(k=2, a=(1, 1, 0, 0), b=(0, 0, 1, 1)), 0.6, FieldPair(0.0, 0.0)),
        ],
    )
    def test_parent_disagreement_matches_k_beta(self, scheme, theta, values):
        # freezing the grafted parent spin to +1 vs -1 moves the root
        # marginal by exactly k_beta(exp(-2 h_root))
        tree = build_tree(2, 2)
        if values is None:
            values = solve_system(reduce(scheme), theta).largest_nonnegative()
        asg = assign_fields(tree, scheme, FieldLabel.PLUS_H, values)
        c = Coupling.from_theta(theta)
        observed, predicted = parent_disagreement_distance(tree, asg, c, 2)
        assert observed == pytest.approx(predicted, abs=1e-10)

    def test_distance_bounded_by_theta(self):
        tree = build_tree(2, 2)
        asg = _ti_assignment(tree, FieldPair(0.3, 0.0))
        c = Coupling.from_theta(0.8)
        observed, _ = parent_disagreement_distance(tree, asg, c, 2)
        assert observed <= c.theta + 1e-12

    def test_variation_distance_of_identical_measures(self):
        tree = build_tree(2, 2)
        asg = _ti_assignment(tree, FieldPair(0.5, 0.0))
        c = Coupling.from_theta(0.7)
        mu = finite_volume_measure(tree, asg, c, 2)
        assert variation_distance(mu, mu, 0) == 0.0

    def test_subtree_instances_via_root_labels(self):
        # interior subtrees are isomorphic to a fresh tree rooted at the
        # interior label, so the exponential root formula holds for all
        # four label choices of a mixed scheme
        scheme = SchemeMatrix(k=2, a=(1, 0, 1, 0), b=(1, 0, 0, 1))
        values = solve_system(reduce(scheme), 0.75).largest_nonnegative()
        tree = build_tree(2, 3)
        c = Coupling.from_theta(0.75)
        for root in FieldLabel:
            asg = assign_fields(tree, scheme, root, values)
            mu = finite_volume_measure(tree, asg, c, 3)
            base = values.h if root.is_h_type else values.l
            expected = math.exp(-2 * root.sign * base)
            assert root_marginal_ratio(mu) == pytest.approx(expected, rel=1e-9)
