import numpy as np
import pytest

from vvsdc import ConfigurationError, NodeFamily, build_rule, generate_nodes

FAMILIES = [NodeFamily.GAUSS_LEGENDRE, NodeFamily.GAUSS_LOBATTO,
            NodeFamily.GAUSS_RADAU]


def all_rules(max_M=12):
    for family in FAMILIES:
        start = 2 if family is NodeFamily.GAUSS_LOBATTO else 1
        for M in range(start, max_M + 1):
            yield build_rule(family, M)


class TestGenerateNodes:
    def test_legendre_midpoint(self):
        assert generate_nodes(NodeFamily.GAUSS_LEGENDRE, 1) == pytest.approx([0.5])

    def test_legendre_two_points(self):
        expected = [0.5 - np.sqrt(3) / 6, 0.5 + np.sqrt(3) / 6]
        assert generate_nodes(NodeFamily.GAUSS_LEGENDRE, 2) == pytest.approx(
            expected, abs=1e-14)

    def test_lobatto_endpoints(self):
        assert generate_nodes(NodeFamily.GAUSS_LOBATTO, 2) == pytest.approx([0.0, 1.0])

    def test_lobatto_includes_both_endpoints(self):
        for M in range(2, 13):
            nodes = generate_nodes(NodeFamily.GAUSS_LOBATTO, M)
            assert nodes[0] == pytest.approx(0.0, abs=1e-14)
            assert nodes[-1] == pytest.approx(1.0, abs=1e-14)

    def test_radau_right_endpoint(self):
        for M in range(1, 13):
            nodes = generate_nodes(NodeFamily.GAUSS_RADAU, M)
            assert nodes[-1] == pytest.approx(1.0, abs=1e-14)
            if M > 1:
                assert nodes[0] > 0.0

    def test_legendre_interior(self):
        for M in range(1, 13):
            nodes = generate_nodes(NodeFamily.GAUSS_LEGENDRE, M)
            assert 0.0 < nodes[0] and nodes[-1] < 1.0

    def test_strictly_increasing(self):
        for rule in all_rules():
            assert np.all(np.diff(rule.nodes) > 0)

    def test_invalid_count(self):
        with pytest.raises(ConfigurationError):
            generate_nodes(NodeFamily.GAUSS_LEGENDRE, 0)

    def test_lobatto_needs_two(self):
        with pytest.raises(ConfigurationError):
            generate_nodes(NodeFamily.GAUSS_LOBATTO, 1)

    def test_from_name(self):
        assert NodeFamily.from_name("legendre") is NodeFamily.GAUSS_LEGENDRE
        assert NodeFamily.from_name("Gauss-Lobatto") is NodeFamily.GAUSS_LOBATTO
        with pytest.raises(ConfigurationError):
            NodeFamily.from_name("chebyshev")


class TestBuildRule:
    def test_legendre_M1_matrices(self):
        rule = build_rule(NodeFamily.GAUSS_LEGENDRE, 1)
        assert rule.Q == pytest.approx(np.array([[0.0, 0.0], [0.0, 0.5]]))
        assert rule.q == pytest.approx([0.0, 1.0])
        assert rule.qQ == pytest.approx([0.0, 0.5])

    def test_padding(self):
        for rule in all_rules(6):
            assert np.all(rule.Q[0] == 0) and np.all(rule.Q[:, 0] == 0)
            assert rule.q[0] == 0.0 and rule.qQ[0] == 0.0

    def test_QQ_and_qQ_are_products(self):
        for rule in all_rules(8):
            assert rule.QQ == pytest.approx(rule.Q @ rule.Q, abs=1e-14)
            assert rule.qQ == pytest.approx(rule.q @ rule.Q, abs=1e-14)

    def test_row_sums_are_nodes(self):
        for rule in all_rules():
            assert rule.Q[1:].sum(axis=1) == pytest.approx(rule.nodes, abs=1e-12)

    def test_weights_sum_to_one(self):
        for rule in all_rules():
            assert rule.q.sum() == pytest.approx(1.0, abs=1e-12)

    def test_gauss_exactness(self):
        # Legendre with M points integrates monomials up to degree 2M-1
        for M in range(1, 13):
            rule = build_rule(NodeFamily.GAUSS_LEGENDRE, M)
            for r in range(2 * M):
                approx = np.sum(rule.q[1:] * rule.nodes ** r)
                assert approx == pytest.approx(1.0 / (r + 1), abs=1e-12)

    def test_gauss_orthogonality(self):
        # int_0^1 s^(j-1) prod(s - tau_i) ds = 0 for j = 1..M
        for M in range(1, 13):
            rule = build_rule(NodeFamily.GAUSS_LEGENDRE, M)
            coeffs = np.poly(rule.nodes)  # prod (s - tau_i), degree M
            for j in range(1, M + 1):
                poly = np.polymul(coeffs, np.concatenate([[1.0], np.zeros(j - 1)]))
                integ = np.polyint(poly)
                val = np.polyval(integ, 1.0) - np.polyval(integ, 0.0)
                assert abs(val) < 1e-12

    def test_qQ_identity_when_rule_is_exact_enough(self):
        # qQ_j = q_j (1 - tau_j) holds whenever the rule integrates
        # degree-M polynomials exactly
        cases = [(NodeFamily.GAUSS_LEGENDRE, range(1, 13)),
                 (NodeFamily.GAUSS_RADAU, range(2, 13)),
                 (NodeFamily.GAUSS_LOBATTO, range(3, 13))]
        for family, Ms in cases:
            for M in Ms:
                rule = build_rule(family, M)
                expected = rule.q[1:] * (1.0 - rule.nodes)
                assert rule.qQ[1:] == pytest.approx(expected, abs=1e-12)

    def test_norm_bounds(self):
        for rule in all_rules():
            assert np.abs(rule.Q).sum(axis=1).max() <= 1.0 + 1e-12
            assert np.abs(rule.QQ).sum(axis=1).max() <= 1.0 + 1e-12

    def test_order_property(self):
        assert build_rule(NodeFamily.GAUSS_LEGENDRE, 3).order == 6
        assert build_rule(NodeFamily.GAUSS_RADAU, 3).order == 5
        assert build_rule(NodeFamily.GAUSS_LOBATTO, 3).order == 4

    def test_Q_against_quadrature_oracle(self):
        # entries are int_0^{tau_m} l_j; cross-check via numpy polynomial
        # integration of the interpolating basis
        for family in FAMILIES:
            rule = build_rule(family, 4)
            for j in range(4):
                y = np.zeros(4)
                y[j] = 1.0
                poly = np.polyfit(rule.nodes, y, 3)
                integ = np.polyint(poly)
                for m in range(4):
                    expected = np.polyval(integ, rule.nodes[m]) - np.polyval(integ, 0.0)
                    assert rule.Q[m + 1, j + 1] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_built_once_per_family_and_M_and_read_only(self, family):
        # the rule is shared by every caller of its (family, M), so caches can
        # key on it, and none of them may change its arrays
        rule = build_rule(family, 3)
        assert build_rule(family, 3) is rule and build_rule(family, 4) is not rule
        for name in ("nodes", "tau", "Q", "QQ", "q", "qQ"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(rule, name)[-1] = 0.0
