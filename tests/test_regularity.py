import json

import numpy as np
import pytest

from gztower import matcore, regularity, tower
from gztower.matcore import mat_pow, rank_split, spectra_disjoint
from gztower.oracles import dense_kernel, kron_intersection_trivial
from gztower.regularity import (
    centralizer_basis,
    centralizer_intersection_trivial,
    is_regular,
    is_sreg_centralizers,
    is_sreg_differentials,
    is_sreg_tangents,
    joint_commutant_kernel,
    sreg_report,
)
from gztower.tower import new_tower

from conftest import diag_tower, jordan_tower, plain_tower, probe_operator, theta_tower


def involution_tower():
    return new_tower([[0.0, 1.0], [1.0, 0.0]])


def nilpotent_jordan(n):
    return np.diag(np.ones(n - 1), 1).astype(complex)


class TestRegular:
    def test_scalar_matrix_not_regular(self):
        assert not is_regular(np.eye(2, dtype=complex))

    def test_distinct_diagonal_regular(self):
        # Entrywise kernel: only diagonal matrices commute, dimension 2.
        assert is_regular(np.diag([1.0, 2.0]).astype(complex))

    def test_jordan_block_regular(self):
        # The centralizer of a nilpotent Jordan block is the polynomials in
        # it: dimension n.
        for n in (2, 3, 5):
            assert is_regular(nilpotent_jordan(n))

    def test_every_1x1_regular(self):
        assert is_regular(np.array([[0.0]], dtype=complex))


class TestCentralizerBasis:
    def test_scalar_matrix_full(self):
        assert len(centralizer_basis(np.eye(2, dtype=complex))) == 4

    def test_distinct_diagonal_is_diagonals(self):
        basis = centralizer_basis(np.diag([1.0, 2.0]).astype(complex))
        assert len(basis) == 2
        for B in basis:
            assert np.abs(B - np.diag(np.diag(B))).max() <= 1e-12

    def test_jordan_block_is_its_polynomials(self):
        J = nilpotent_jordan(2)
        basis = centralizer_basis(J)
        assert len(basis) == 2
        # span{Id, J}: mutual rank 2 both ways
        assert rank_split(basis + [np.eye(2, dtype=complex), J])[0] == 2

    def test_regular_centralizer_spans_powers(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        basis = centralizer_basis(M)
        powers = [mat_pow(M, k) for k in range(4)]
        assert len(basis) == 4
        assert rank_split(basis + powers)[0] == 4
        assert rank_split(powers)[0] == 4


class TestIntersection:
    def test_generic_pair_trivial(self):
        # z(X_1) is spanned by E_11, which fails to commute with the
        # involution: [E_11, X_2] = [[0,1],[-1,0]].
        X1 = np.array([[0.0]], dtype=complex)
        X2 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        assert centralizer_intersection_trivial(X1, X2)

    def test_diagonal_pair_not_trivial(self):
        X1 = np.array([[1.0]], dtype=complex)
        X2 = np.diag([1.0, 2.0]).astype(complex)
        assert not centralizer_intersection_trivial(X1, X2)

    def test_block_extension_commuting_with_centralizer(self):
        # Constructed counterexample: extending diagonally keeps every
        # member of z(X_i) commuting with the deeper level.
        X1 = np.diag([1.0, 2.0]).astype(complex)
        X2 = np.diag([1.0, 2.0, 3.0]).astype(complex)
        assert not centralizer_intersection_trivial(X1, X2)

    @pytest.mark.parametrize("side", ["row", "column"])
    def test_one_sided_border_trivial(self, side):
        # With b = 0, only c Z = 0 constrains Z = p(X_i): for X_i = diag(1, 2, 3)
        # and c = (1, 1, 1), c p(X_i) = (p(1), p(2), p(3)) vanishes only when
        # p(X_i) does.  The same holds for a lone border column.
        X = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        if side == "row":
            X[3, :3] = 1.0
        else:
            X[:3, 3] = 1.0
        assert kron_intersection_trivial(X[:3, :3], X)
        assert centralizer_intersection_trivial(X[:3, :3], X)

    @pytest.mark.parametrize("i", [2, 3])
    def test_scalar_level_with_generic_border_not_trivial(self, i):
        # A scalar X_i is not regular: every Z in gl(i) commutes with it, and
        # those with Z b = 0 and c Z = 0 form an (i-1)^2-dimensional space.
        rng = np.random.default_rng(40 + i)
        X = np.zeros((i + 1, i + 1), dtype=complex)
        X[:i, :i] = 1.5 * np.eye(i)
        X[:i, i] = rng.standard_normal(i) + 1j * rng.standard_normal(i)
        X[i, :] = rng.standard_normal(i + 1) + 1j * rng.standard_normal(i + 1)

        def stack(Z):
            E = np.zeros((i + 1, i + 1), dtype=complex)
            E[:i, :i] = Z
            return np.concatenate([(Z @ X[:i, :i] - X[:i, :i] @ Z).reshape(-1),
                                   (E @ X - X @ E).reshape(-1)])

        assert len(dense_kernel(probe_operator(stack, i))) == (i - 1) ** 2
        assert not is_regular(X[:i, :i])
        assert not centralizer_intersection_trivial(X[:i, :i], X)

    def test_corner_compatibility_enforced(self):
        with pytest.raises(ValueError):
            centralizer_intersection_trivial(
                np.array([[1.0]], dtype=complex), np.diag([2.0, 3.0]).astype(complex)
            )


class TestSregCriteria:
    def test_involution_tower_all_true(self):
        T = involution_tower()
        assert is_sreg_differentials(T)
        assert is_sreg_centralizers(T)
        assert is_sreg_tangents(T)

    def test_distinct_diagonal_tower_false(self):
        T = diag_tower([1.0, 2.0, 3.0])
        assert not is_sreg_differentials(T)
        assert not is_sreg_centralizers(T)
        assert not is_sreg_tangents(T)

    def test_depth_one_conventions(self):
        T = new_tower([[2.0]])
        assert is_sreg_differentials(T)
        assert is_sreg_centralizers(T)
        with pytest.raises(ValueError):
            is_sreg_tangents(T)

    def test_diag_depth2_tangent_zero(self):
        assert not is_sreg_tangents(diag_tower([1.0, 2.0]))

    def test_theta_towers_pass_all(self):
        for seed in range(3):
            T = theta_tower(4, 60 + seed)
            assert is_sreg_differentials(T)
            assert is_sreg_centralizers(T)
            assert is_sreg_tangents(T)

    def test_regular_levels_but_not_sreg(self):
        # diag(1, 2) extends diag(1): every level regular, yet E_11 commutes
        # with both, so the intersection criterion fails.
        T = diag_tower([1.0, 2.0])
        report = sreg_report(T)
        assert report.verdict == "false"
        assert all(is_regular(T.level(n)) for n in (1, 2))


class TestJordanFixture:
    def test_sreg_without_theta(self):
        # Every corner of the shift tower has spectrum {0}: maximally
        # non-disjoint, yet all three criteria hold.
        for depth in (2, 3, 4, 5, 6):
            report = sreg_report(jordan_tower(depth))
            assert report.verdict == "true"
            assert report.theta is False

    def test_acted_jordan_still_sreg(self):
        from gztower.action import a_act, random_params

        rng = np.random.default_rng(5)
        T = jordan_tower(4)
        moved = a_act(random_params(rng, 4, 0.4), T)
        report = sreg_report(moved)
        assert report.verdict == "true"
        assert report.theta is False


class TestReport:
    def test_theta_tower_report(self):
        report = sreg_report(theta_tower(4, 70))
        assert report.verdict == "true"
        assert report.theta is True
        assert report.by_differentials and report.by_centralizers and report.by_tangents
        assert all(m is not None and m > 10 for m in report.margins)

    def test_identity_tower_report(self):
        report = sreg_report(new_tower(np.eye(3, dtype=complex)))
        assert report.verdict == "false"
        assert report.theta is False

    def test_scaled_identity_tower_has_no_theta(self):
        # The Sylvester operator does not see a common shift: 1e4 I shares
        # its spectrum across levels exactly as I does.
        report = sreg_report(new_tower(1e4 * np.eye(4, dtype=complex)))
        assert report.theta is False
        assert report.verdict == "false"

    def test_depth_one_report_flags_tangents(self):
        report = sreg_report(new_tower([[1.0]]))
        assert report.by_tangents is None
        assert report.verdict == "true"
        assert any("vacuous" in note for note in report.notes)

    def test_overflowing_scale_is_indeterminate(self):
        # Strong regularity does not see a scale, but at 1e160 the powers and
        # the tangent values overflow: those two criteria cannot read true,
        # while the centralizer criterion still can.  The configured filter
        # turns a RuntimeWarning into an error here.
        report = sreg_report(new_tower(1e160 * theta_tower(4, 72).top))
        assert (report.by_differentials, report.by_centralizers, report.by_tangents) == (
            False,
            True,
            False,
        )
        assert report.verdict == "indeterminate"
        assert np.isnan(report.margins[0]) and np.isnan(report.margins[2])
        assert any("overflows double precision" in note for note in report.notes)

    def test_json_serialization(self):
        report = sreg_report(theta_tower(3, 71))
        data = json.loads(json.dumps(report.to_json_dict()))
        assert data["by_differentials"] in ("true", "false", "indeterminate")
        assert data["verdict"] == "true"
        assert len(data["min_singular_values"]) == 3

    def test_equivalence_on_mixed_corpus(self):
        towers = (
            [theta_tower(d, 80 + d) for d in (2, 3, 4, 5)]
            + [plain_tower(d, 90 + d) for d in (2, 3, 4)]
            + [diag_tower(list(range(1, d + 1))) for d in (2, 3, 4)]
            + [new_tower(np.eye(d, dtype=complex)) for d in (2, 3)]
            + [jordan_tower(d) for d in (2, 3, 4)]
        )
        for T in towers:
            report = sreg_report(T)
            verdicts = [report.by_differentials, report.by_centralizers, report.by_tangents]
            if report.verdict in ("true", "false"):
                assert len({v for v in verdicts if v is not None}) == 1
            else:
                margins = [m for m in report.margins if m is not None]
                assert min(margins) < 10


class TestMemoryWall:
    """Sizes whose dense Kronecker operators would need about 4.3 GB."""

    def test_is_regular_at_128(self):
        rng = np.random.default_rng(128)
        M = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
        assert is_regular(M)
        # Two eigenvalues: Arnoldi breaks down after two steps.
        assert not is_regular(np.diag(np.repeat([1.0, 2.0], 64)))

    def test_spectra_disjoint_at_128(self):
        rng = np.random.default_rng(129)
        top = 0.3 * (rng.standard_normal((129, 129)) + 1j * rng.standard_normal((129, 129)))
        assert spectra_disjoint(top[:128, :128], top)

    def test_joint_commutant_kernel_at_64(self):
        # The dense stack of levels 48..64 on gl(48) would hold about 2 GB;
        # the border system of a regular X(48) is 1536 x 48.
        rng = np.random.default_rng(64)
        top = 0.3 * (rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))
        assert joint_commutant_kernel(new_tower(top), 48) == []


class TestNoKroneckerOperators:
    @pytest.fixture(autouse=True)
    def refuse_kronecker(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense Kronecker operator formed")

        monkeypatch.setattr(matcore, "ad_operator", refuse)
        monkeypatch.setattr(regularity, "ad_operator", refuse)
        monkeypatch.setattr(np, "kron", refuse)

    def test_sreg_and_generation_never_form_ad_operators(self):
        T = tower.random_theta_tower(6, 3, scale=0.5)
        assert sreg_report(T).verdict == "true"
        assert sreg_report(diag_tower([1.0, 2.0, 3.0])).verdict == "false"

    def test_joint_commutant_kernel_at_regular_levels(self):
        T = tower.random_theta_tower(6, 4, scale=0.5)
        for n in range(1, 6):
            assert joint_commutant_kernel(T, n) == []
        assert len(joint_commutant_kernel(T, 6)) == 6


class TestJointKernel:
    def test_trivial_at_sreg(self):
        T = theta_tower(4, 72)
        for n in (1, 2, 3):
            assert joint_commutant_kernel(T, n) == []

    def test_nontrivial_at_diagonal(self):
        T = diag_tower([1.0, 2.0, 3.0])
        assert len(joint_commutant_kernel(T, 1)) == 1
