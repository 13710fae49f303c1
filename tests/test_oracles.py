import numpy as np
import pytest

from gztower import matcore
from gztower.action import AParams, a_act_stepwise, random_params, zero_params, zn_element
from gztower.gz import gz_indices, power_table
from gztower.matcore import (
    DEFAULT_TOL,
    ad_operator,
    null_space,
    rank_split,
    spectra_disjoint,
    sylvester_min_singular,
)
from gztower.regularity import (
    centralizer_intersection_trivial,
    is_regular,
    joint_commutant_kernel,
    sreg_report,
)
from gztower.symplectic import ISOTROPY_RTOL, isotropy_check, lagrangian_check
from gztower.oracles import (
    MAX_ORACLE_DIM,
    SmoothFn,
    charpoly_coefficients,
    charpoly_roots,
    dense_action_product,
    dense_kernel,
    fd_poisson_bracket,
    gz_observable,
    kron_intersection_trivial,
    kron_is_regular,
    kron_spectra_disjoint,
    kron_sylvester_singular,
    orbit_tangents_A,
    orbit_tangents_G,
)
from gztower.tower import Tower, new_tower

from conftest import diag_tower, jordan_tower, plain_tower, probe_operator, theta_tower


def sorted_roots(roots):
    return sorted(roots, key=lambda z: (round(z.real, 6), round(z.imag, 6)))


class TestFdBracket:
    def test_matches_production_bracket(self):
        for seed in range(3):
            T = theta_tower(4, 300 + seed)
            B = power_table(T).bracket_matrix()
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
        from gztower.matcore import kernel_basis

        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            r = int(rng.integers(1, n))
            B = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
            C = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
            A = B @ C  # rank r, kernel dimension n - r
            assert len(dense_kernel(A)) == n - r
            assert len(kernel_basis(A)) == n - r

    def test_agrees_with_null_space_on_centralizers(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            production = null_space(ad_operator(M))
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
            return new_tower(np.eye(6, dtype=complex))
        if kind == "jordan":
            return jordan_tower(6)
        # Levels 1-4 are scalar under a generic border of rank 2, so levels
        # 2-6 are not regular and the kernels are proper subspaces of gl(n).
        top = plain_tower(6, 261).top.copy()
        top[:4, :4] = 1.5 * np.eye(4)
        return new_tower(top)

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
        N = T.depth
        bound = 1e-12 * (1.0 + np.linalg.norm(T.top))
        # Distinct diagonal entries: the diagonal matrices of gl(n) commute with
        # every level.  A regular X(N) alone has an N-dimensional centralizer.
        expected = {"theta": lambda n: n if n == N else 0, "diagonal": lambda n: n}
        for n in range(1, N):
            oracle = dense_kernel(self.probed_stack(T, n, n + 1))
            if kind in expected:
                assert len(oracle) == expected[kind](n)
            assert centralizer_intersection_trivial(T.level(n), T.level(n + 1)) == (
                len(oracle) == 0
            )
        for n in range(1, N + 1):
            oracle = dense_kernel(self.probed_stack(T, n, N))
            kernel = joint_commutant_kernel(T, n)
            if kind in expected:
                assert len(oracle) == expected[kind](n)
            assert len(kernel) == len(oracle)
            if not kernel:
                continue
            gram = np.array([[np.vdot(x, y) for y in kernel] for x in kernel])
            assert np.abs(gram - np.eye(len(kernel))).max() <= 1e-12
            for x in kernel:
                for k in range(n, N + 1):
                    X = T.level(k)
                    E = np.zeros((k, k), dtype=complex)
                    E[:n, :n] = x
                    assert np.linalg.norm(E @ X - X @ E) <= bound


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
    return [new_tower(1.5 * np.eye(d, dtype=complex)) for d in depths]


class TestKroneckerOracles:
    """Krylov, border-system and Schur kernels against the dense Kronecker SVDs."""

    @pytest.mark.parametrize("kind", ["theta", "diagonal", "jordan", "scalar"])
    def test_decisions_match(self, kind):
        for T in _oracle_towers(kind):
            for n in range(1, T.depth + 1):
                X = T.level(n)
                assert is_regular(X) == kron_is_regular(X)
                if n == T.depth:
                    continue
                Y = T.level(n + 1)
                assert centralizer_intersection_trivial(X, Y) == kron_intersection_trivial(X, Y)
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
                smin, smax = sylvester_min_singular(X, Y)
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


class TestDenseActionProduct:
    """The sparse action product equals the all-factors oracle bit for bit."""

    @pytest.mark.parametrize("kind", ACTION_KINDS)
    def test_zn_element_matches(self, kind):
        for depth in range(2, 9):
            T = theta_tower(depth, 330 + depth, 0.4)
            a = _action_params(kind, depth, depth)
            assert np.array_equal(zn_element(T, a).matrix, dense_action_product(a, T, depth))

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
        dense_ok = (
            rank_A == depth * (depth - 1) // 2
            and rank_G == depth * depth - depth
            and isotropy_check(T, abelian) <= ISOTROPY_RTOL * scale
        )
        assert dense_ok and report.verdict == "true"

    @pytest.mark.parametrize(
        "T", [diag_tower([1.0, 2.0, 3.0]), new_tower(np.eye(3, dtype=complex))],
        ids=["diagonal", "identity"],
    )
    def test_not_strongly_regular_is_not_applicable(self, T):
        assert lagrangian_check(T).verdict == "not applicable"
        # The dense abelian family collapses: there is no Lagrangian claim to test.
        values = [v.value(3) for v in orbit_tangents_A(T)]
        assert rank_split(values)[0] == 0
