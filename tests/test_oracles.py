import numpy as np
import pytest

from gztower import matcore, regularity
from gztower.action import (
    AParams,
    _action_product,
    _nonzero_terms,
    a_act_stepwise,
    random_params,
)
from gztower.cli import CHECKS
from gztower.gz import gz_indices
from gztower.matcore import DEFAULT_TOL, embed, krylov_basis, spectra_disjoint
from gztower.regularity import INDETERMINATE_MARGIN, sreg_report
from gztower.symplectic import ISOTROPY_RTOL, lagrangian_check
from gztower.oracles import (
    MAX_ORACLE_DIM,
    SmoothFn,
    charpoly_coefficients,
    charpoly_roots,
    criterion_families,
    dense_action_product,
    dense_kernel,
    fd_poisson_bracket,
    gz_hamiltonian,
    gz_observable,
    kron_intersection_trivial,
    kron_is_regular,
    kron_spectra_disjoint,
    kron_sylvester_singular,
    omega_inf,
    orbit_tangents_A,
    orbit_tangents_G,
    projected_level_values,
    rank_split,
)
from gztower.tower import Tower, random_theta_tower

from conftest import (
    diag_tower,
    family_splits,
    intersection_trivial,
    jordan_tower,
    pairing_matrix,
    plain_tower,
    probe_operator,
    projector_tower,
    sylvester_singular,
    theta_tower,
    zero_params,
)


def sorted_roots(roots):
    return sorted(roots, key=lambda z: (round(z.real, 6), round(z.imag, 6)))


class TestFdBracket:
    def test_matches_production_bracket(self):
        for seed in range(3):
            T = theta_tower(4, 300 + seed)
            B = pairing_matrix(T)
            idxs = gz_indices(4)
            for a, i1 in enumerate(idxs):
                for b, i2 in enumerate(idxs):
                    f, g = gz_observable(i1.i, i1.j), gz_observable(i2.i, i2.j)
                    oracle = fd_poisson_bracket(f, g, T)
                    n = max(i1.i, i2.i)
                    scale = 1.0 + np.linalg.norm(T.level(n), 2) ** (i1.i + i2.i)
                    assert abs(B[a, b] - oracle) <= 1e-5 * scale

    def test_self_bracket_tiny(self):
        T = plain_tower(3, 301)
        f = gz_observable(3, 2)
        assert abs(fd_poisson_bracket(f, f, T)) <= 1e-10

    def test_constants_bracket_to_zero(self):
        T = plain_tower(3, 302)
        c1 = SmoothFn(level=2, eval=lambda X: 4.2 + 0j)
        c2 = SmoothFn(level=3, eval=lambda X: -1.0 + 2j)
        assert abs(fd_poisson_bracket(c1, c2, T)) <= 1e-10

    def test_nonzero_bracket_detected(self):
        # Coordinate observables have bracket delta_kq X_pl - delta_pl X_kq.
        T = plain_tower(2, 303)
        x01 = SmoothFn(level=2, eval=lambda X: complex(X[0, 1]))
        x10 = SmoothFn(level=2, eval=lambda X: complex(X[1, 0]))
        # gradients are E_10 and E_01; tr(X [E_10, E_01]) = X_11 - X_00.
        expected = T.top[1, 1] - T.top[0, 0]
        got = fd_poisson_bracket(x01, x10, T)
        assert abs(got - expected) <= 1e-6 * (1 + abs(expected))


class TestCharpolyRoots:
    def test_diagonal(self):
        roots = sorted_roots(charpoly_roots(np.diag([1.0, 2.0]).astype(complex)))
        assert np.allclose(roots, [1.0, 2.0], atol=1e-9)

    def test_involution(self):
        # x^2 - 1 by the quadratic formula: roots +-1.
        roots = sorted_roots(charpoly_roots(np.array([[0, 1], [1, 0]], dtype=complex)))
        assert np.allclose(roots, [-1.0, 1.0], atol=1e-9)

    def test_coefficients_known(self):
        # char poly of [[0,1],[1,0]] is x^2 - 1.
        coeffs = charpoly_coefficients(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(coeffs, [1.0, 0.0, -1.0], atol=1e-14)

    def test_similarity_invariance(self):
        # Exact similarity: permutation plus powers-of-two scaling keeps the
        # multiset; compare via elementary symmetric data (trace and det).
        rng = np.random.default_rng(4)
        for n in (2, 3, 5):
            M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            P = np.eye(n)[rng.permutation(n)].astype(complex)
            S = np.diag(2.0 ** rng.integers(-2, 3, size=n)).astype(complex)
            Q = P @ S
            conj = Q @ M @ np.linalg.inv(Q)
            r1 = sorted_roots(charpoly_roots(M))
            r2 = sorted_roots(charpoly_roots(conj))
            assert np.allclose(r1, r2, atol=1e-7)
            assert np.isclose(sum(r1), np.trace(M), atol=1e-8)
            assert np.isclose(
                np.prod(np.asarray(r1)), np.linalg.det(M), rtol=1e-7, atol=1e-9
            )

    def test_multiple_roots_converge(self):
        J = np.diag(np.ones(1), 1).astype(complex)  # char poly x^2
        roots = charpoly_roots(J)
        assert max(abs(z) for z in roots) <= 1e-6

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            charpoly_roots(np.eye(MAX_ORACLE_DIM + 1, dtype=complex))


class TestDenseKernel:
    def test_identity_has_empty_kernel(self):
        assert dense_kernel(np.eye(3)) == []

    def test_rank_one_2x2(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]])
        basis = dense_kernel(A)
        assert len(basis) == 1
        assert abs(A @ basis[0]).max() <= 1e-12

    def test_zero_matrix(self):
        assert len(dense_kernel(np.zeros((2, 3)))) == 3

    def test_duplicated_column(self):
        A = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        basis = dense_kernel(A)
        assert len(basis) == 1
        assert abs(A @ basis[0]).max() <= 1e-12

    def test_agrees_with_svd_kernel_dimensions(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            r = int(rng.integers(1, n))
            B = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
            C = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
            A = B @ C  # rank r, kernel dimension n - r
            assert len(dense_kernel(A)) == n - r
            assert rank_split(A)[0] == r

    def test_agrees_with_krylov_basis_on_centralizers(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            production, _ = krylov_basis(M)
            oracle = dense_kernel(probe_operator(lambda Z, M=M: Z @ M - M @ Z, n))
            assert len(production) == len(oracle) == n


class TestCommutantStack:
    """Production commutant kernels against the elimination oracle on probed stacks."""

    @staticmethod
    def probed_stack(T, n, top):
        # x -> ([x padded to k x k, X(k)])_{k=n..top}, with its own arithmetic.
        def op(Z):
            blocks = []
            for k in range(n, top + 1):
                E = np.zeros((k, k), dtype=complex)
                E[:n, :n] = Z
                X = T.top[:k, :k]
                blocks.append((E @ X - X @ E).reshape(-1))
            return np.concatenate(blocks)

        return probe_operator(op, n)

    @staticmethod
    def tower(kind):
        if kind == "theta":
            return theta_tower(6, 260)
        if kind == "diagonal":
            return diag_tower([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        if kind == "identity":
            return Tower(np.eye(6, dtype=complex))
        if kind == "jordan":
            return jordan_tower(6)
        # Levels 1-4 are scalar under a generic border of rank 2, so levels
        # 2-6 are not regular and the kernels are proper subspaces of gl(n).
        top = plain_tower(6, 261).top.copy()
        top[:4, :4] = 1.5 * np.eye(4)
        return Tower(top)

    @pytest.mark.parametrize("kind", ["identity", "jordan", "scalar-levels"])
    def test_shared_spectra_reach_the_lanczos_fallback(self, kind, monkeypatch):
        # Every consecutive pair shares an eigenvalue, so the eigenvalue bound
        # cannot clear the threshold and the Lanczos test answers "not disjoint".
        fallbacks = count_sylvester_fallbacks(monkeypatch)
        T = self.tower(kind)
        for n in range(1, T.depth):
            X, Y = T.level(n), T.level(n + 1)
            assert not spectra_disjoint(X, Y)
            assert not kron_spectra_disjoint(X, Y)
            assert len(fallbacks) == n
        assert not spectra_disjoint(1e4 * np.eye(2, dtype=complex), 1e4 * np.eye(3, dtype=complex))
        assert len(fallbacks) == T.depth

    @pytest.mark.parametrize("kind", ["theta", "diagonal", "identity", "jordan", "scalar-levels"])
    def test_kernels_agree_with_dense_kernel(self, kind):
        T = self.tower(kind)
        # Distinct diagonal entries: the diagonal matrices of gl(n) commute with
        # every level.
        expected = {"theta": lambda n: 0, "diagonal": lambda n: n}
        for n in range(1, T.depth):
            oracle = dense_kernel(self.probed_stack(T, n, n + 1))
            if kind in expected:
                assert len(oracle) == expected[kind](n)
            assert intersection_trivial(T.level(n), T.level(n + 1)) == (
                len(oracle) == 0
            )

    @pytest.mark.parametrize("kind", ["theta", "diagonal", "identity", "jordan", "scalar-levels"])
    def test_anchor_verdict_agrees_with_dense_kernel(self, kind):
        # The anchor map is injective on every level n < N exactly when every
        # joint commutant of levels n..N is trivial.
        T = self.tower(kind)
        N = T.depth
        trivial = all(
            len(dense_kernel(self.probed_stack(T, n, N))) == 0 for n in range(1, N)
        )
        result = CHECKS["anchor"](T, DEFAULT_TOL, 0)
        if sreg_report(T).verdict == "true":
            assert result.passed == ("true" if trivial else "false")
            assert result.details == {"joint_kernels_trivial": trivial}
        else:
            # No claim is tested; the dense oracle finds a kernel that breaks it.
            assert result.passed == "indeterminate" and not trivial
        assert trivial == (kind in ("theta", "jordan"))


def count_sylvester_fallbacks(monkeypatch):
    """Record each call of the Lanczos Sylvester test that spectra_disjoint falls back to."""
    calls = []
    original = matcore._sylvester_smin

    def counting(R, S):
        calls.append((R.shape[0], S.shape[0]))
        return original(R, S)

    monkeypatch.setattr(matcore, "_sylvester_smin", counting)
    return calls


def _oracle_towers(kind):
    depths = range(2, MAX_ORACLE_DIM + 1)
    if kind == "theta":
        return [theta_tower(d, 400 + d, 0.5) for d in depths]
    if kind == "diagonal":
        return [diag_tower(np.arange(1.0, d + 1.0)) for d in depths]
    if kind == "jordan":
        return [jordan_tower(d) for d in depths]
    if kind == "plain":
        return [plain_tower(d, 420 + d) for d in depths]
    if kind == "identity":
        return [Tower(np.eye(d, dtype=complex)) for d in depths]
    if kind == "jordan-split":
        # The shift tower with its last border cut: X_N = J_(N-1) + 0 has two
        # Jordan blocks at 0, and z(X_(N-1)) commutes with X_N.  (At depth 2
        # that is the zero tower.)
        return [
            Tower(np.diag(np.r_[np.ones(d - 2), 0.0], 1).astype(complex))
            for d in depths
            if d > 2
        ]
    return [Tower(1.5 * np.eye(d, dtype=complex)) for d in depths]


class TestKroneckerOracles:
    """Krylov, border-system and Schur kernels against the dense Kronecker SVDs."""

    @pytest.mark.parametrize("kind", ["theta", "diagonal", "jordan", "scalar"])
    def test_decisions_match(self, kind):
        # Criterion 2 decides each level by its Arnoldi split and each
        # consecutive pair by the border system in that level's basis.
        for T in _oracle_towers(kind):
            for n in range(1, T.depth + 1):
                X = T.level(n)
                regular, _, _, Q = regularity._regular_split(X, DEFAULT_TOL)
                assert regular == kron_is_regular(X)
                if n == T.depth:
                    continue
                Y = T.level(n + 1)
                if regular:
                    border, _, _ = regularity._border_split(Q, Y[:n, n], Y[n, :n], DEFAULT_TOL)
                    assert border == kron_intersection_trivial(X, Y)
                else:
                    # A non-regular level never has a trivial intersection.
                    assert not kron_intersection_trivial(X, Y)
                assert spectra_disjoint(X, Y) == kron_spectra_disjoint(X, Y)

    @pytest.mark.parametrize("kind", ["theta", "diagonal", "jordan", "scalar"])
    def test_eigen_bound_decides_only_disjoint_pairs(self, kind, monkeypatch):
        # The eigenvalue bound settles every generated pair; a shared
        # eigenvalue leaves it to the Schur/trsyl Lanczos, once per pair.
        fallbacks = count_sylvester_fallbacks(monkeypatch)
        for T in _oracle_towers(kind):
            for n in range(1, T.depth):
                X, Y = T.level(n), T.level(n + 1)
                before = len(fallbacks)
                assert spectra_disjoint(X, Y) == kron_spectra_disjoint(X, Y)
                assert len(fallbacks) - before == (0 if kind == "theta" else 1)

    @pytest.mark.parametrize("kind", ["theta", "diagonal", "jordan", "scalar"])
    def test_sylvester_min_singular_matches(self, kind):
        for T in _oracle_towers(kind):
            for n in range(1, T.depth):
                X, Y = T.level(n), T.level(n + 1)
                smin, smax = sylvester_singular(X, Y)
                ref_min, ref_max = kron_sylvester_singular(X, Y)
                if ref_min > DEFAULT_TOL.threshold(ref_max):
                    assert abs(smin - ref_min) <= 1e-8 * ref_min
                else:  # a singular operator: both values are rounding noise
                    assert smin <= DEFAULT_TOL.threshold(smax)

    def test_kinds_cover_both_outcomes(self):
        # The corpus exercises each decision both ways.
        theta, diagonal = _oracle_towers("theta")[-1], _oracle_towers("diagonal")[-1]
        assert kron_intersection_trivial(theta.level(3), theta.level(4))
        assert not kron_intersection_trivial(diagonal.level(3), diagonal.level(4))
        assert kron_spectra_disjoint(theta.level(3), theta.level(4))
        assert not kron_spectra_disjoint(diagonal.level(3), diagonal.level(4))
        assert not kron_is_regular(1.5 * np.eye(3, dtype=complex))

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            kron_is_regular(np.eye(MAX_ORACLE_DIM + 1, dtype=complex))


def _action_params(kind, depth, seed):
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return zero_params(depth)
    a = random_params(rng, depth, 0.4)
    if kind == "half":
        rows = [[0j if rng.random() < 0.5 else t for t in row] for row in a.t]
        a = AParams(depth, tuple(tuple(r) for r in rows))
    return a


ACTION_KINDS = ["zero", "nonzero", "half"]


def _criterion_families(T):
    """The families criteria 1 and 3 rank, from the bases ``sreg_report`` builds."""
    levels = regularity._arnoldi_levels(T, DEFAULT_TOL)
    differentials, tangents = criterion_families(
        regularity._scaled_top(T), [Q for *_, Q in levels]
    )
    return {"differentials": differentials, "tangents": tangents}


def _svd_split(family):
    """The rank decision of ``rank_split``, forced through a dense SVD."""
    s = np.linalg.svd(family.reshape(len(family), -1), compute_uv=False)
    return matcore.spectrum_split(s, DEFAULT_TOL)


def _full_rank_by_svd(family):
    return _svd_split(np.asarray(family))[0] == len(family)


class TestGramRankAgainstSvd:
    """rank_split's Gram route against a forced SVD of the same family."""

    KINDS = ["theta", "plain", "diagonal", "identity", "jordan", "jordan-split"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_gram_and_svd_agree(self, kind):
        for T in _oracle_towers(kind):
            for family in _criterion_families(T).values():
                rank, decisive, _ = rank_split(family)
                ref_rank, ref_decisive, _ = _svd_split(family)
                assert rank == ref_rank
                assert abs(decisive - ref_decisive) <= 1e-8 * ref_decisive

    # The families that are rank deficient.  Every identity level above the
    # first breaks its Arnoldi run down after I, so criterion 1 reads false
    # from those splits, and the family of the shorter bases is full rank.
    # The shift tower's families are full rank and well conditioned:
    # smallest over largest singular value at least 0.08 at depth <= 8.
    DEFICIENT = {
        "diagonal": {"differentials", "tangents"},
        "identity": {"tangents"},
        "jordan-split": {"differentials", "tangents"},
    }

    @pytest.mark.parametrize("kind", KINDS)
    def test_rank_deficient_families_take_the_svd(self, kind, monkeypatch):
        # A family whose smallest singular value lies inside the Gram's
        # rounding floor is ranked by the SVD; every rank-deficient one does.
        svds = []
        original = np.linalg.svd

        def counting(*args, **kwargs):
            svds.append(args[0].shape)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        for T in _oracle_towers(kind):
            for name, family in _criterion_families(T).items():
                before = len(svds)
                rank, _, _ = rank_split(family)
                took_svd = len(svds) > before
                assert took_svd == (rank < len(family))
                assert took_svd == (name in self.DEFICIENT.get(kind, ()))

    @pytest.mark.parametrize("kind", KINDS)
    def test_sreg_verdicts_equal_the_monomial_and_kronecker_oracles(self, kind):
        # Criteria 1 and 3 against the monomial families j X_i^(j-1), with
        # numpy's matrix_power, ranked by a dense SVD; criterion 2 against the
        # dense Kronecker SVDs of every ad operator and intersection.
        for T in _oracle_towers(kind):
            N = T.depth
            gradients = [
                embed(gz_hamiltonian(T, idx).generator, N) for idx in gz_indices(N)
            ]
            tangents = [v.value(N) for v in orbit_tangents_A(T)]
            centralizers = all(kron_is_regular(T.level(n)) for n in range(1, N + 1)) and all(
                kron_intersection_trivial(T.level(n), T.level(n + 1)) for n in range(1, N)
            )
            oracle = (_full_rank_by_svd(gradients), centralizers, _full_rank_by_svd(tangents))
            report = sreg_report(T)
            assert (report.by_differentials, report.by_centralizers, report.by_tangents) == oracle
            assert report.verdict == ("true" if all(oracle) else "false")
            assert report.verdict == ("true" if kind in ("theta", "plain", "jordan") else "false")


def _criterion_bounds(T):
    """The level row bounds of the families of :func:`_criterion_families`."""
    sizes = [len(Q) for *_, Q in regularity._arnoldi_levels(T, DEFAULT_TOL)]
    return {
        "differentials": np.cumsum([0] + sizes).tolist(),
        "tangents": np.cumsum([0] + sizes[:-1]).tolist(),
    }


class TestLevelSplitsAgainstProjection:
    """Criteria 1 and 3 level by level against an explicit projection, and whole."""

    KINDS = TestGramRankAgainstSvd.KINDS

    @pytest.mark.parametrize("kind", KINDS)
    def test_values_match_the_projection_oracle(self, kind):
        for T in _oracle_towers(kind):
            bounds = _criterion_bounds(T)
            for name, family in _criterion_families(T).items():
                flat = family.reshape(len(family), -1)
                blocks = list(zip(bounds[name], bounds[name][1:]))
                scale = max(np.linalg.svd(flat[a:b], compute_uv=False)[0] for a, b in blocks)
                oracle = projected_level_values(flat, bounds[name])
                splits = family_splits(flat, bounds[name])
                for (rank, decisive, margin), s, (a, b) in zip(splits, oracle, blocks):
                    ref_rank, ref_decisive, ref_margin = matcore.spectrum_split(
                        s, DEFAULT_TOL, scale
                    )
                    assert rank == ref_rank
                    if rank:
                        assert decisive == pytest.approx(ref_decisive, rel=1e-10)
                    if rank == b - a:
                        assert margin == pytest.approx(ref_margin, rel=1e-10)

    @pytest.mark.parametrize("kind", KINDS)
    def test_verdicts_equal_the_whole_family_rank(self, kind):
        # Every level full rank net of the levels below exactly when the
        # family is, by the Gram route of rank_split or its SVD.
        for T in _oracle_towers(kind):
            bounds = _criterion_bounds(T)
            for name, family in _criterion_families(T).items():
                splits = family_splits(family.reshape(len(family), -1), bounds[name])
                by_level = all(
                    rank == b - a for (rank, _, _), a, b in zip(splits, bounds[name], bounds[name][1:])
                )
                assert by_level == (rank_split(family)[0] == len(family))

    @pytest.mark.parametrize("kind", KINDS)
    def test_rank_deficient_families_take_the_qr(self, kind, monkeypatch):
        # The block Cholesky decides every full-rank family of the corpus; a
        # rank-deficient one always falls back to the Householder QR.
        calls = []
        original = matcore._qr_levels

        def counting(F, blocks):
            calls.append(F.shape)
            return original(F, blocks)

        monkeypatch.setattr(matcore, "_qr_levels", counting)
        for T in _oracle_towers(kind):
            bounds = _criterion_bounds(T)
            for name, family in _criterion_families(T).items():
                before = len(calls)
                splits = family_splits(family.reshape(len(family), -1), bounds[name])
                full = all(
                    rank == b - a for (rank, _, _), a, b in zip(splits, bounds[name], bounds[name][1:])
                )
                assert (len(calls) > before) == (not full)
                assert full == (name not in TestGramRankAgainstSvd.DEFICIENT.get(kind, ()))

    @pytest.mark.parametrize("kind", KINDS)
    def test_profile_is_the_report(self, kind):
        # The report keeps each criterion's level entries; its verdicts and
        # minima are read off them, and decidable_depth off criteria 1 and 2.
        for T in _oracle_towers(kind):
            report = sreg_report(T)
            differentials, centralizers, tangents = report.profile
            assert len(differentials) == len(centralizers) == T.depth
            assert len(tangents) == T.depth - 1
            assert report.by_centralizers == all(ok for ok, _, _ in centralizers)
            if report.by_differentials:
                assert all(ok for ok, _, _ in differentials)
                assert report.margins[0] == min(m for _, _, m in differentials)
            clear = [
                min(d[2], c[2]) >= INDETERMINATE_MARGIN for d, c in zip(differentials, centralizers)
            ]
            assert report.decidable_depth == (clear + [False]).index(False)

    def test_duplicated_level_reads_false(self, monkeypatch):
        # Level 3's basis replaced by level 2's, embedded: the family is
        # dependent, the Cholesky cannot decide it, and criterion 1 fails there.
        calls = []
        original = matcore._qr_levels
        monkeypatch.setattr(
            matcore, "_qr_levels", lambda F, blocks: calls.append(1) or original(F, blocks)
        )
        T = theta_tower(5, 405, 0.5)
        levels = regularity._arnoldi_levels(T, DEFAULT_TOL)
        ok, sv, margin, Q2 = levels[1]
        # In corner coordinates gl(2) is the first 4 of gl(3)'s 9.
        copy = np.zeros((2, 9), dtype=complex)
        copy[:, :4] = Q2
        levels[2] = (True, 1.0, 1.0, np.concatenate([copy, levels[2][3][2:]]))
        profile = regularity._differentials_profile(T, levels, DEFAULT_TOL)
        assert [ok for ok, _, _ in profile] == [True, True, False, True, True]
        assert regularity._criterion_split(levels, profile)[0] is False
        assert len(calls) == 1

    def test_non_finite_family_cannot_pass(self, monkeypatch):
        # A NaN in one level's basis reaches every level's Gram block row
        # through its diagonal, and the family built for the fallback has no
        # rank: every level of both criteria reads (0, nan, nan).
        splits = []
        original = regularity.level_splits
        monkeypatch.setattr(
            regularity, "level_splits", lambda *args: splits.append(original(*args)) or splits[-1]
        )
        T = theta_tower(4, 404, 0.5)
        levels = regularity._arnoldi_levels(T, DEFAULT_TOL)
        ok, sv, margin, Q = levels[2]
        levels[2] = (ok, sv, margin, np.where(np.arange(Q.size).reshape(Q.shape) == 4, np.nan, Q))
        for split in (regularity._differentials_split, regularity._tangents_split):
            ok, sv, margin = split(T, levels, DEFAULT_TOL)
            assert ok is False and np.isnan(sv) and np.isnan(margin)
        assert [len(levels) for levels in splits] == [4, 3]
        for rank, sv, margin in (split for levels in splits for split in levels):
            assert rank == 0 and np.isnan(sv) and np.isnan(margin)


def _captured_rows(monkeypatch):
    """Record a copy of the Gram block rows each criterion hands to level_splits."""
    seen = []
    original = regularity.level_splits

    def capture(rows, k, family, tol):
        seen.append([R.copy() for R in rows])
        return original(rows, k, family, tol)

    monkeypatch.setattr(regularity, "level_splits", capture)
    return seen


def _gram_bound(family, sigma):
    """How far two roundings of one Gram entry of a criterion family may lie apart.

    With n = 2(m + N^2) and gamma_n = n eps / (1 - n eps), each inner product
    of length at most N^2 is within gamma_n ||x|| ||y|| of its exact value
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 3.1
    and 3.6).  Criterion 1's rows are unit basis matrices, copied exactly
    on both sides: 2 gamma_n apart.  Criterion 3's are [X, E], with
    ||ad_X||_2 <= sigma = 2 ||X||_F.  The family's commutators are formed
    within gamma_n sigma of [X, E] and their inner products within
    gamma_n sigma^2 of each other's, so its Gram is within
    3.1 gamma_n sigma^2 of the exact one.  The block's corner of
    P E + E K - H^H E H - H E H^H is within 2.5 gamma_n sigma^2 of
    ad_X^H ad_X E, whose norm is at most sigma^2, and its inner product
    with a unit basis matrix adds 1.1 gamma_n sigma^2: together less than
    8 gamma_n sigma^2, with sigma = 1 for criterion 1.
    """
    m, N2 = len(family), family[0].size
    n = 2 * (m + N2)
    eps = np.finfo(float).eps
    return 8.0 * n * eps / (1.0 - n * eps) * sigma**2


class TestBlockGrams:
    """Each criterion's Gram, formed block by block, against the Gram of its whole family."""

    @pytest.mark.parametrize("kind", TestGramRankAgainstSvd.KINDS + ["generated-24"])
    def test_blocks_are_the_family_gram(self, kind, monkeypatch):
        seen = _captured_rows(monkeypatch)
        towers = [random_theta_tower(24, 201, 0.3)] if kind == "generated-24" else _oracle_towers(kind)
        for T in towers:
            levels = regularity._arnoldi_levels(T, DEFAULT_TOL)
            X = regularity._scaled_top(T)
            families = criterion_families(X, [Q for *_, Q in levels])
            seen.clear()
            regularity._differentials_profile(T, levels, DEFAULT_TOL)
            regularity._tangents_profile(T, levels, DEFAULT_TOL)
            for rows, family, sigma in zip(seen, families, (1.0, 2.0 * np.linalg.norm(X))):
                F = family.reshape(len(family), -1)
                G = F @ F.conj().T
                bound = _gram_bound(family, sigma)
                a = 0
                for R in rows:
                    # Each row holds the conjugate of the Gram's rows of its
                    # level, up to the diagonal block's last column.
                    k, b = R.shape
                    assert b == a + k
                    assert np.abs(R.conj() - G[a:b, :b]).max() <= bound
                    a = b
                assert a == len(F)

    def test_tower_that_is_not_strongly_regular_reads_its_families(self, monkeypatch):
        # The block Cholesky cannot decide level 13, so each criterion hands
        # its whole family to the Householder QR, which fails it there.
        T = projector_tower(random_theta_tower(16, 201, 0.3), 12)
        families = []
        original = matcore._qr_levels

        def recording(F, blocks):
            families.append(F.copy())
            return original(F, blocks)

        monkeypatch.setattr(matcore, "_qr_levels", recording)
        report = sreg_report(T)
        assert report.verdict == "false"
        for profile in report.profile:
            assert [n for n, (ok, _, _) in enumerate(profile, 1) if not ok] == [13]
        levels = regularity._arnoldi_levels(T, DEFAULT_TOL)
        X = regularity._scaled_top(T)
        references = criterion_families(X, [Q for *_, Q in levels])
        bounds = _criterion_bounds(T)
        assert len(families) == 2
        for F, family, profile, sigma, name in zip(
            families, references, report.profile[::2], (1.0, 2.0 * np.linalg.norm(X)),
            ("differentials", "tangents"),
        ):
            # The family the fallback ranks is the oracle's, up to the order of
            # its columns, and so are its values up to the failing level.  Above
            # it they depend on which direction the unpivoted QR kept for the
            # dependent row, which the column order decides.
            ref = family.reshape(len(family), -1)
            gap = np.abs(F @ F.conj().T - ref @ ref.conj().T).max()
            assert gap <= _gram_bound(family, sigma)
            blocks = list(zip(bounds[name], bounds[name][1:]))
            values, scale = matcore._qr_levels(ref, blocks)
            for n, ((ok, decisive, _), s, (a, b)) in enumerate(zip(profile, values, blocks), 1):
                rank, ref_decisive, _ = matcore.spectrum_split(s, DEFAULT_TOL, scale)
                assert ok == (rank == b - a)
                if n <= 13:
                    assert decisive == pytest.approx(ref_decisive, rel=1e-9)


class TestDenseActionProduct:
    """The sparse action product equals the all-factors oracle bit for bit."""

    @pytest.mark.parametrize("kind", ACTION_KINDS)
    def test_zn_element_matches(self, kind):
        # The element of Z(X_1) ... Z(X_(N-1)) that the action conjugates by.
        for depth in range(2, 9):
            T = theta_tower(depth, 330 + depth, 0.4)
            a = _action_params(kind, depth, depth)
            g = _action_product(_nonzero_terms(a), T, depth)
            assert np.array_equal(g, dense_action_product(a, T, depth))

    @pytest.mark.parametrize("kind", ACTION_KINDS)
    def test_stepwise_matches_oracle_fold(self, kind):
        for depth in (3, 5, 8):
            T = theta_tower(depth, 330 + depth, 0.4)
            a = _action_params(kind, depth, 10 + depth)
            order = gz_indices(depth - 1)
            perm_rng = np.random.default_rng(depth)
            perm = [order[int(k)] for k in perm_rng.permutation(len(order))]
            current = T
            for idx in perm:
                rows = [list(row) for row in zero_params(depth).t]
                rows[idx.i - 1][idx.j - 1] = a.get(idx.i, idx.j)
                single = AParams(depth, tuple(tuple(r) for r in rows))
                g = dense_action_product(single, current, depth)
                current = Tower(np.linalg.solve(g.T, (g @ current.top).T).T)
            assert np.array_equal(a_act_stepwise(a, T, perm).top, current.top)



class TestLagrangianAgainstDenseFamilies:
    """The ranks the check reads off strong regularity against the dense tangent families."""

    @pytest.mark.parametrize("depth", range(2, 9))
    def test_theta_towers(self, depth):
        T = theta_tower(depth, 340 + depth, 0.5)
        report = lagrangian_check(T)
        abelian = orbit_tangents_A(T)
        rank_A = rank_split([v.value(depth) for v in abelian])[0]
        rank_G = rank_split([v.value(depth) for v in orbit_tangents_G(T)])[0]
        assert report.rank_A == rank_A
        assert report.rank_G == rank_G
        assert report.margin_A == sreg_report(T).margins[2]
        gen_norm = max(np.linalg.norm(v.generator) for v in abelian)
        scale = 1.0 + 2.0 * np.linalg.norm(T.top) * gen_norm**2
        max_pairing = max(
            (abs(omega_inf(T, u, v)) for a, u in enumerate(abelian) for v in abelian[a + 1 :]),
            default=0.0,
        )
        dense_ok = (
            rank_A == depth * (depth - 1) // 2
            and rank_G == depth * depth - depth
            and max_pairing <= ISOTROPY_RTOL * scale
        )
        assert dense_ok and report.verdict == "true"

    @pytest.mark.parametrize(
        "T", [diag_tower([1.0, 2.0, 3.0]), Tower(np.eye(3, dtype=complex))],
        ids=["diagonal", "identity"],
    )
    def test_not_strongly_regular_is_not_applicable(self, T):
        assert lagrangian_check(T).verdict == "not applicable"
        # The dense abelian family collapses: there is no Lagrangian claim to test.
        values = [v.value(3) for v in orbit_tangents_A(T)]
        assert rank_split(values)[0] == 0
