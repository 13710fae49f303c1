import json
import tracemalloc

import numpy as np
import pytest

from gztower import regularity, tower
from gztower.cli import CHECKS
from gztower.matcore import DEFAULT_TOL, krylov_basis, spectra_disjoint
from gztower.oracles import dense_kernel, kron_intersection_trivial, rank_split
from gztower.regularity import (
    INDETERMINATE_MARGIN,
    is_sreg_centralizers,
    is_sreg_differentials,
    is_sreg_tangents,
    sreg_report,
)
from gztower.tower import Tower, random_theta_tower

from conftest import (
    diag_tower,
    intersection_trivial,
    jordan_tower,
    plain_tower,
    probe_operator,
    regular,
    theta_tower,
)


def involution_tower():
    return Tower([[0.0, 1.0], [1.0, 0.0]])


def nilpotent_jordan(n):
    return np.diag(np.ones(n - 1), 1).astype(complex)


class TestRegular:
    def test_scalar_matrix_not_regular(self):
        assert not regular(np.eye(2, dtype=complex))

    def test_distinct_diagonal_regular(self):
        # Entrywise kernel: only diagonal matrices commute, dimension 2.
        assert regular(np.diag([1.0, 2.0]).astype(complex))

    def test_jordan_block_regular(self):
        # The centralizer of a nilpotent Jordan block is the polynomials in
        # it: dimension n.
        for n in (2, 3, 5):
            assert regular(nilpotent_jordan(n))

    def test_every_1x1_regular(self):
        assert regular(np.array([[0.0]], dtype=complex))


class TestCentralizerBasis:
    """At a regular M the Arnoldi basis of span{I, M, ...} is the centralizer of M."""

    def test_scalar_matrix_full(self):
        # Every Z commutes with a scalar matrix, so its centralizer is all of
        # gl(2); the Arnoldi span stops at I, and the level is not regular.
        M = np.eye(2, dtype=complex)
        assert len(dense_kernel(probe_operator(lambda Z: Z @ M - M @ Z, 2))) == 4
        assert len(krylov_basis(M)[0]) == 1
        assert not regular(M)

    def test_distinct_diagonal_is_diagonals(self):
        basis = list(krylov_basis(np.diag([1.0, 2.0]).astype(complex))[0])
        assert len(basis) == 2
        for B in basis:
            assert np.abs(B - np.diag(np.diag(B))).max() <= 1e-12

    def test_jordan_block_is_its_polynomials(self):
        J = nilpotent_jordan(2)
        basis = list(krylov_basis(J)[0])
        assert len(basis) == 2
        # span{Id, J}: mutual rank 2 both ways
        assert rank_split(basis + [np.eye(2, dtype=complex), J])[0] == 2

    def test_regular_centralizer_spans_powers(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        basis = list(krylov_basis(M)[0])
        powers = [np.linalg.matrix_power(M, k) for k in range(4)]
        assert len(basis) == 4
        assert rank_split(basis + powers)[0] == 4
        assert rank_split(powers)[0] == 4
        assert max(np.abs(B @ M - M @ B).max() for B in basis) <= 1e-12 * np.abs(M).max()


class TestIntersection:
    def test_generic_pair_trivial(self):
        # z(X_1) is spanned by E_11, which fails to commute with the
        # involution: [E_11, X_2] = [[0,1],[-1,0]].
        X1 = np.array([[0.0]], dtype=complex)
        X2 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        assert intersection_trivial(X1, X2)

    def test_diagonal_pair_not_trivial(self):
        X1 = np.array([[1.0]], dtype=complex)
        X2 = np.diag([1.0, 2.0]).astype(complex)
        assert not intersection_trivial(X1, X2)

    def test_block_extension_commuting_with_centralizer(self):
        # Constructed counterexample: extending diagonally keeps every
        # member of z(X_i) commuting with the deeper level.
        X1 = np.diag([1.0, 2.0]).astype(complex)
        X2 = np.diag([1.0, 2.0, 3.0]).astype(complex)
        assert not intersection_trivial(X1, X2)

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
        assert intersection_trivial(X[:3, :3], X)

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
        assert not regular(X[:i, :i])
        assert not intersection_trivial(X[:i, :i], X)


class TestModulusOverflow:
    """Both parts finite, the modulus not: the scalings that keep criteria 2
    and 3 finite are exact powers of two taken from the larger part."""

    HUGE = 0.9 * np.finfo(float).max * (1 + 1j)

    def test_unit_border_has_unit_norm(self):
        u = regularity._unit(np.array([self.HUGE, 1.0]))
        assert np.linalg.norm(u) == pytest.approx(1.0)
        assert u[0] == pytest.approx((1 + 1j) / np.sqrt(2))

    def test_scaled_top_brings_the_largest_modulus_into_half_to_one(self):
        X = regularity._scaled_top(Tower(np.array([[0.0, 1.0], [self.HUGE, 0.0]])))
        assert 0.5 <= np.abs(X).max() < 1.0
        assert X[1, 0].real == X[1, 0].imag


class TestResidualFold:
    def test_ratios_leave_out_the_scales_that_overflow(self):
        # An infinite scale, or a NaN one where overflows met, is not compared.
        scales = np.array([2.0, np.inf, np.nan])
        ratios, left_out = regularity.residual_ratios(np.array([1.0, 2.0, 3.0]), scales)
        assert ratios.tolist() == [0.5, 0.0, 0.0] and left_out == 2

    def test_nan_fails_even_with_items_left_out(self):
        ratios, left_out = regularity.residual_ratios(np.array([np.nan, 1.0]), np.array([2.0, np.inf]))
        assert np.isnan(ratios[0]) and left_out == 1
        assert regularity.residual_verdict(float(np.max(ratios)), 1e-8, left_out) == "false"

    @pytest.mark.parametrize(
        "worst,left_out,verdict",
        [(1e-9, 0, "true"), (1e-8, 0, "true"), (1e-9, 3, "indeterminate"), (2e-8, 3, "false")],
    )
    def test_verdict(self, worst, left_out, verdict):
        assert regularity.residual_verdict(worst, 1e-8, left_out) == verdict


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
        T = Tower([[2.0]])
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
        assert all(regular(T.level(n)) for n in (1, 2))


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
        report = sreg_report(Tower(np.eye(3, dtype=complex)))
        assert report.verdict == "false"
        assert report.theta is False

    def test_scaled_identity_tower_has_no_theta(self):
        # The Sylvester operator does not see a common shift: 1e4 I shares
        # its spectrum across levels exactly as I does.
        report = sreg_report(Tower(1e4 * np.eye(4, dtype=complex)))
        assert report.theta is False
        assert report.verdict == "false"

    def test_depth_one_report_flags_tangents(self):
        report = sreg_report(Tower([[1.0]]))
        assert report.by_tangents is None
        assert report.verdict == "true"
        assert any("vacuous" in note for note in report.notes)

    def test_overflowing_scale_is_true(self):
        # Strong regularity does not see a scale.  At 1e160 the powers
        # overflow, but no criterion reads them: criterion 1 ranks the
        # orthonormal Arnoldi bases, and criterion 3 their tangent values at
        # X_N scaled by a power of two, so all three read true with the
        # margins of the unscaled tower.  The configured filter turns a
        # RuntimeWarning into an error here.
        T = theta_tower(4, 72)
        report = sreg_report(Tower(1e160 * T.top))
        assert (report.by_differentials, report.by_centralizers, report.by_tangents) == (
            True,
            True,
            True,
        )
        assert report.verdict == "true" and report.notes == ()
        assert all(m is not None and m > 10 for m in report.margins)
        unscaled = sreg_report(T)
        np.testing.assert_allclose(report.margins, unscaled.margins, rtol=1e-9)

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
            + [Tower(np.eye(d, dtype=complex)) for d in (2, 3)]
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


class TestSharedArnoldiBases:
    """Criteria 1 and 3 rank the orthonormal bases that criterion 2 builds."""

    def test_values_do_not_depend_on_the_orthonormal_basis(self):
        # Each level's block of the family is orthonormal, so its singular
        # values are principal-angle quantities of the level subspaces: a
        # unitary change of basis inside every level leaves them unchanged.
        T = theta_tower(6, 73)
        levels = regularity._arnoldi_levels(T, DEFAULT_TOL)
        rng = np.random.default_rng(73)
        mixed = []
        for ok, sv, margin, Q in levels:
            k = len(Q)
            U, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
            mixed.append((ok, sv, margin, (U @ Q.reshape(k, -1)).reshape(Q.shape)))
        for split in (regularity._differentials_split, regularity._tangents_split):
            ok, sv, margin = split(T, levels, DEFAULT_TOL)
            mixed_ok, mixed_sv, mixed_margin = split(T, mixed, DEFAULT_TOL)
            assert ok and mixed_ok
            assert mixed_sv == pytest.approx(sv, rel=1e-12)
            assert mixed_margin == pytest.approx(margin, rel=1e-12)

    def test_breakdown_fails_criterion_1_with_its_split(self):
        # X_3 = diag(2, 1, 1) has two eigenvalues, so its Arnoldi run stops at
        # dimension 2 and its three gradients are dependent.
        T = diag_tower([2.0, 1.0, 1.0])
        regular, sv, margin, Q = regularity._regular_split(T.top, DEFAULT_TOL)
        assert not regular and len(Q) == 2
        report = sreg_report(T)
        assert report.by_differentials is False
        assert report.min_singular_values[0] == sv
        assert report.margins[0] == margin and margin > 10

    @pytest.mark.parametrize(
        "T",
        [theta_tower(5, 74), diag_tower([1.0, 2.0, 3.0]), jordan_tower(4),
         Tower(1e160 * theta_tower(4, 72).top)],
        ids=["theta", "diagonal", "jordan", "scaled"],
    )
    def test_per_criterion_probes_agree_with_the_report(self, T):
        report = sreg_report(T)
        assert is_sreg_differentials(T) == report.by_differentials
        assert is_sreg_centralizers(T) == report.by_centralizers
        assert is_sreg_tangents(T) == report.by_tangents

    @pytest.mark.parametrize("seed", [201, 202, 203])
    def test_generated_depth_32_towers_read_true(self, seed):
        # Consecutive spectra are disjoint, so the tower is strongly regular
        # (Kostant-Wallach 2006), and every criterion says so with room.
        report = sreg_report(tower.random_theta_tower(32, seed, 0.3))
        assert report.verdict == "true" and report.theta
        assert all(m >= INDETERMINATE_MARGIN for m in report.margins)


class TestProfile:
    """Each criterion's per-level entries, and the depth to which they decide."""

    def test_json_lists_every_level(self):
        data = sreg_report(theta_tower(5, 75)).to_json_dict()
        assert [len(v) for v in data["level_margins"]] == [5, 5, 4]
        assert [len(v) for v in data["level_min_singular_values"]] == [5, 5, 4]
        assert data["decidable_depth"] == 5
        # Criterion 2 at level 1: a 1 x 1 matrix is regular with no cut.
        assert data["level_margins"][1][0] is None
        for values, margins, least, margin in zip(
            data["level_min_singular_values"], data["level_margins"],
            data["min_singular_values"], data["margins"],
        ):
            assert least == min(v for v in values if v is not None)
            assert margin == min(m for m in margins if m is not None)

    def test_depth_one_has_no_tangent_levels(self):
        data = sreg_report(Tower([[2.0]])).to_json_dict()
        assert data["level_margins"][2] == [] and data["decidable_depth"] == 1

    def test_failing_level_decides_and_the_profile_locates_it(self):
        # diag(1, 2) extends diag(1): E_11 lies in both centralizers, so
        # criterion 2 fails at level 2, decisively, and so does criterion 1,
        # whose level-2 basis holds E_11 again.
        report = sreg_report(diag_tower([1.0, 2.0, 3.0]))
        differentials, centralizers, _ = report.profile
        assert [ok for ok, _, _ in differentials] == [True, False, False]
        assert [ok for ok, _, _ in centralizers] == [True, False, False]
        assert report.margins[0] == min(m for ok, _, m in differentials if not ok)
        assert report.decidable_depth == 3

    def test_decidable_depth_stops_at_a_nan_margin(self):
        split = (True, 1.0, 1e6)
        assert regularity._decidable_depth([split] * 3, [split, (False, np.nan, np.nan), split]) == 1
        assert regularity._decidable_depth([split, (True, 1.0, 5.0)], [split] * 2) == 1

    @pytest.mark.parametrize("seed", [201, 202])
    def test_generated_depth_32_towers_decide_every_level(self, seed):
        report = sreg_report(tower.random_theta_tower(32, seed, 0.3))
        assert report.decidable_depth == 32
        assert all(m >= INDETERMINATE_MARGIN for levels in report.profile for _, _, m in levels)


class TestLazyTheta:
    def test_theta_runs_only_when_read(self, monkeypatch):
        calls = []
        original = regularity.spectra_disjoint

        def counting(A, B, tol, eigen):
            calls.append(A.shape[0])
            return original(A, B, tol, eigen)

        monkeypatch.setattr(regularity, "spectra_disjoint", counting)
        report = sreg_report(theta_tower(4, 76))
        assert calls == []
        assert report.theta is True and report.theta is True
        assert calls == [1, 2, 3]
        assert report.to_json_dict()["theta"] == "true" and len(calls) == 3

    def test_theta_decomposes_each_level_once(self, monkeypatch):
        T = theta_tower(6, 76)
        eigs = []
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda M: eigs.append(len(M)) or eig(M))
        assert sreg_report(T).theta is True
        assert eigs == [1, 2, 3, 4, 5, 6]


class TestMemoryWall:
    """Sizes whose dense Kronecker operators would need about 4.3 GB."""

    def test_is_regular_at_128(self):
        rng = np.random.default_rng(128)
        M = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
        assert regular(M)
        # Two eigenvalues: Arnoldi breaks down after two steps.
        D = np.diag(np.repeat([1.0, 2.0], 64)).astype(complex)
        assert len(krylov_basis(D)[0]) == 2
        assert not regular(D)

    def test_spectra_disjoint_at_128(self):
        rng = np.random.default_rng(129)
        top = 0.3 * (rng.standard_normal((129, 129)) + 1j * rng.standard_normal((129, 129)))
        assert spectra_disjoint(top[:128, :128], top)


class TestNoFamilies:
    """Criteria 1 and 3 rank their Gram blocks; an (m, N^2) family is built only to fall back on."""

    def test_peak_memory_stays_below_one_family(self):
        # The bases and the Gram's lower triangle each hold about a quarter of
        # criterion 1's family, m = N(N+1)/2 rows of N^2 complex entries.
        T = random_theta_tower(24, 201, 0.3)
        N = T.depth
        family_bytes = N * (N + 1) // 2 * N * N * np.dtype(np.complex128).itemsize
        tracemalloc.start()
        try:
            report = sreg_report(T)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.verdict == "true"
        assert peak < family_bytes

    def test_strongly_regular_tower_forms_no_tangent_family(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a tangent family was formed")

        monkeypatch.setattr(regularity, "tangent_values", refuse)
        assert sreg_report(theta_tower(12, 75)).verdict == "true"


class TestNoKroneckerOperators:
    @pytest.fixture(autouse=True)
    def refuse_kronecker(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense Kronecker operator formed")

        monkeypatch.setattr(np, "kron", refuse)

    def test_sreg_and_generation_never_form_ad_operators(self):
        T = tower.random_theta_tower(6, 3, scale=0.5)
        assert sreg_report(T).verdict == "true"
        assert sreg_report(diag_tower([1.0, 2.0, 3.0])).verdict == "false"

    def test_anchor_never_forms_ad_operators(self):
        # The anchor member reads criterion 2 off the tower's one report.
        T = tower.random_theta_tower(6, 4, scale=0.5)
        assert CHECKS["anchor"](T, DEFAULT_TOL, 0).passed == "true"
        assert CHECKS["anchor"](diag_tower([1.0, 2.0, 3.0]), DEFAULT_TOL, 0).passed == (
            "indeterminate"
        )
