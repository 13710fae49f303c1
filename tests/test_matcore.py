import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gztower.matcore import (
    MAX_DIM,
    Tolerance,
    ad_operator,
    as_cmatrix,
    commutator,
    corner,
    embed,
    embed_group,
    embed_stack,
    kernel_basis,
    krylov_basis,
    mat_exp,
    null_space,
    rank_split,
    spectra_disjoint,
    spectrum_split,
    sylvester_min_singular,
    tangent_values,
    trace_pair,
)
from gztower.tower import TowerTangent, new_tower

from conftest import unit


def rand_c(rng, n, scale=1.0):
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


class TestConstruction:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            as_cmatrix([[1, 2, 3], [4, 5, 6]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_cmatrix(np.zeros((0, 0)))

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            as_cmatrix([[np.nan, 0], [0, 1]])
        with pytest.raises(ValueError):
            as_cmatrix([[np.inf, 0], [0, 1]])
        with pytest.raises(ValueError):
            as_cmatrix([[complex(0, np.nan), 0], [0, 1]])

    def test_rejects_oversize(self):
        with pytest.raises(ValueError):
            as_cmatrix(np.eye(MAX_DIM + 1))

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            Tolerance(rel=-1e-9)
        with pytest.raises(ValueError):
            Tolerance(abs=-1.0)
        assert Tolerance(rel=1e-6, abs=1e-9).threshold(2.0) == 2e-6
        assert Tolerance(rel=1e-6, abs=1e-3).threshold(2.0) == 1e-3


class TestCornerEmbed:
    def test_corner_selects_block(self):
        assert np.array_equal(corner(as_cmatrix([[1, 2], [3, 4]]), 1), [[1]])

    def test_corner_of_identity(self):
        assert np.array_equal(corner(np.eye(3, dtype=complex), 2), np.eye(2))

    def test_corner_out_of_range(self):
        M = np.eye(2, dtype=complex)
        with pytest.raises(IndexError):
            corner(M, 3)
        with pytest.raises(IndexError):
            corner(M, 0)

    def test_corner_composition(self):
        # corner(corner(M, k), i) = corner(M, i): plain index selection.
        rng = np.random.default_rng(0)
        M = rand_c(rng, 6)
        for k in range(1, 7):
            for i in range(1, k + 1):
                assert np.array_equal(corner(corner(M, k), i), corner(M, i))

    def test_embed_small_in_two(self):
        assert np.array_equal(embed(as_cmatrix([[1]]), 2), [[1, 0], [0, 0]])

    def test_embed_identity_case(self):
        M = as_cmatrix([[1, 2], [3, 4]])
        assert np.array_equal(embed(M, 2), M)

    def test_embed_rejects_shrink(self):
        with pytest.raises(IndexError):
            embed(np.eye(3, dtype=complex), 2)

    def test_embed_preserves_trace(self):
        rng = np.random.default_rng(1)
        M = rand_c(rng, 4)
        # direct summation oracle
        assert np.trace(embed(M, 9)) == np.trace(M)

    def test_embed_group_has_identity_complement(self):
        g = as_cmatrix([[2]])
        assert np.array_equal(embed_group(g, 3), np.diag([2, 1, 1]).astype(complex))

    @given(dim=st.integers(1, 6), pad=st.integers(0, 4), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_corner_embed_roundtrip_exact(self, dim, pad, seed):
        rng = np.random.default_rng(seed)
        M = rand_c(rng, dim)
        assert np.array_equal(corner(embed(M, dim + pad), dim), M)


class TestAlgebra:
    def test_self_commutator_zero(self):
        rng = np.random.default_rng(2)
        A = rand_c(rng, 3)
        assert np.array_equal(commutator(A, A), np.zeros((3, 3)))

    def test_commutator_with_unit(self):
        # [E_11, [[a,b],[c,d]]] = [[0, b], [-c, 0]], by writing out the products.
        a, b, c, d = 1.1, 2.2 - 1j, 3.3 + 2j, 4.4
        X = as_cmatrix([[a, b], [c, d]])
        expected = as_cmatrix([[0, b], [-c, 0]])
        assert np.allclose(commutator(unit(2, 0, 0), X), expected, atol=0)

    def test_identity_is_central(self):
        rng = np.random.default_rng(3)
        M = rand_c(rng, 4)
        assert np.array_equal(commutator(np.eye(4, dtype=complex), M), np.zeros((4, 4)))

    def test_commutator_dim_mismatch(self):
        with pytest.raises(ValueError):
            commutator(np.eye(2, dtype=complex), np.eye(3, dtype=complex))

    def test_trace_pair_identity(self):
        assert trace_pair(np.eye(5, dtype=complex), np.eye(5, dtype=complex)) == 5

    def test_trace_pair_matrix_units(self):
        assert trace_pair(unit(2, 0, 1), unit(2, 1, 0)) == 1

    def test_trace_pair_diagonal(self):
        # tr(diag(1,2) diag(3,4)) = 3 + 8
        assert trace_pair(np.diag([1, 2]).astype(complex), np.diag([3, 4]).astype(complex)) == 11

    def test_trace_pair_symmetric(self):
        rng = np.random.default_rng(4)
        A, B = rand_c(rng, 4), rand_c(rng, 4)
        assert trace_pair(A, B) == pytest.approx(trace_pair(B, A), rel=1e-14)

    def test_trace_form_associativity(self):
        # tr(A [B, C]) = tr([A, B] C) on random triples.
        rng = np.random.default_rng(5)
        for _ in range(20):
            A, B, C = (rand_c(rng, 5) for _ in range(3))
            lhs = trace_pair(A, commutator(B, C))
            rhs = trace_pair(commutator(A, B), C)
            scale = abs(lhs) + abs(rhs) + 1.0
            assert abs(lhs - rhs) <= 1e-12 * scale


class TestTangentStacks:
    """The batched tangent and embedding families, against the one-at-a-time forms."""

    N = 6

    def family(self, seed):
        rng = np.random.default_rng(seed)
        T = new_tower(rand_c(rng, self.N))
        levels = rng.integers(1, self.N + 1, size=9)
        return T, [rand_c(rng, int(k)) for k in levels]

    def test_tangent_values_are_tower_tangents(self):
        for seed in (60, 61, 62):
            T, gens = self.family(seed)
            stack = tangent_values(T.top, gens)
            assert stack.shape == (len(gens), self.N, self.N)
            for value, G in zip(stack, gens):
                expected = TowerTangent(T, G.shape[0], G).value(self.N)
                assert np.abs(value - expected).max() <= 1e-14 * (1.0 + np.abs(expected).max())

    def test_embed_stack_is_embed(self):
        _, gens = self.family(63)
        stack = embed_stack(gens, self.N)
        assert stack.shape == (len(gens), self.N, self.N)
        for slice_, G in zip(stack, gens):
            assert np.array_equal(slice_, embed(G, self.N))

    def test_generator_larger_than_x_rejected(self):
        rng = np.random.default_rng(64)
        gens = [rand_c(rng, 2), rand_c(rng, 4)]
        with pytest.raises(IndexError):
            tangent_values(rand_c(rng, 3), gens)
        with pytest.raises(IndexError):
            embed_stack(gens, 3)

    def test_empty_family_is_an_empty_stack(self):
        assert tangent_values(np.eye(3, dtype=complex), []).shape == (0, 3, 3)
        assert embed_stack([], 3).shape == (0, 3, 3)


class TestPowExp:
    def test_exp_zero(self):
        assert np.array_equal(mat_exp(np.zeros((3, 3), dtype=complex)), np.eye(3))

    def test_exp_diagonal(self):
        a, b = 0.3 + 1j, -0.7
        out = mat_exp(np.diag([a, b]).astype(complex))
        assert np.allclose(out, np.diag([np.exp(a), np.exp(b)]), rtol=1e-13, atol=0)

    def test_exp_square_zero_nilpotent(self):
        E = unit(2, 0, 1)
        assert np.allclose(mat_exp(E), np.eye(2) + E, rtol=0, atol=1e-15)

    def test_exp_inverse_property(self):
        rng = np.random.default_rng(7)
        for n in (2, 4, 6):
            A = rand_c(rng, n)
            A *= 10.0 / np.linalg.norm(A, 2)
            prod = mat_exp(A) @ mat_exp(-A)
            assert np.abs(prod - np.eye(n)).max() <= 1e-10

    def test_exp_of_embedded_is_block(self):
        rng = np.random.default_rng(8)
        A = rand_c(rng, 3)
        full = mat_exp(embed(A, 5))
        assert np.abs(corner(full, 3) - mat_exp(A)).max() <= 1e-12
        # complement block is exactly the identity pattern
        assert np.allclose(full[3:, 3:], np.eye(2), atol=1e-12)
        assert np.abs(full[:3, 3:]).max() <= 1e-12
        assert np.abs(full[3:, :3]).max() <= 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_exp_overflow(self):
        with pytest.raises(OverflowError):
            mat_exp(np.diag([1e4, 0]).astype(complex))


class TestRankNull:
    def test_rank_single(self):
        assert rank_split([np.eye(2, dtype=complex)])[0] == 1

    def test_rank_three_independent(self):
        # row-reduction by hand: E_11, Id, [[0,2],[2,0]] are independent in gl(2).
        fam = [unit(2, 0, 0), np.eye(2, dtype=complex), as_cmatrix([[0, 2], [2, 0]])]
        assert rank_split(fam)[0] == 3

    def test_rank_scalar_multiple(self):
        rng = np.random.default_rng(9)
        M = rand_c(rng, 3)
        assert rank_split([M, 2 * M])[0] == 1

    def test_rank_empty_rejected(self):
        with pytest.raises(ValueError):
            rank_split([])[0]

    @given(
        scalar=st.sampled_from([1e-6, 1e-3, 7.0, 1e6, 1j, -2.5 + 1j]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_rank_scalar_invariance(self, scalar, seed):
        rng = np.random.default_rng(seed)
        fam = [rand_c(rng, 3) for _ in range(4)]
        scaled = [scalar * m for m in fam]
        assert rank_split(fam)[0] == rank_split(scaled)[0]

    def test_non_finite_family_has_no_rank(self):
        fam = [np.eye(2, dtype=complex), np.array([[np.inf, 0], [0, np.nan]], dtype=complex)]
        rank, decisive, margin = rank_split(fam)
        assert rank == 0 and np.isnan(decisive) and np.isnan(margin)

    def test_stack_and_list_agree(self):
        rng = np.random.default_rng(65)
        stack = np.stack([rand_c(rng, 3) for _ in range(4)])
        stack[3] = stack[0] - 2 * stack[1]
        assert rank_split(stack) == rank_split(list(stack))
        assert rank_split(stack)[0] == 3

    def test_rank_split_margin(self):
        fam = [np.eye(2, dtype=complex), unit(2, 0, 1)]
        rank, decisive, margin = rank_split(fam)
        assert rank == 2 and decisive > 0 and margin > 1e6

    def test_null_space_identity_is_everything(self):
        basis = null_space(ad_operator(np.eye(2, dtype=complex)))
        assert len(basis) == 4

    def test_null_space_distinct_diagonal(self):
        # Entrywise: [Z, diag(1,2)]_{kl} = Z_{kl}(d_l - d_k), so the kernel is
        # the diagonal matrices.
        D = np.diag([1, 2]).astype(complex)
        basis = null_space(ad_operator(D))
        assert len(basis) == 2
        for B in basis:
            assert np.abs(B - np.diag(np.diag(B))).max() <= 1e-12

    def test_null_space_companion_regular(self):
        # companion matrix of x^2 - 1: regular, so the centralizer has dim 2.
        C = as_cmatrix([[0, 1], [1, 0]])
        assert len(null_space(ad_operator(C))) == 2

    def test_null_space_explicit_matrix(self):
        A = np.zeros((4, 4), dtype=complex)
        A[0, 0] = 1.0
        basis = null_space(A)
        assert len(basis) == 3

    def test_null_space_basis_orthonormal(self):
        D = np.diag([1, 2, 3]).astype(complex)
        basis = null_space(ad_operator(D))
        G = np.array([[np.vdot(a, b) for b in basis] for a in basis])
        assert np.allclose(G, np.eye(len(basis)), atol=1e-12)

    def test_kernel_basis_rectangular(self):
        A = np.array([[1.0, 1.0, 0.0]])
        vecs = kernel_basis(A)
        assert len(vecs) == 2
        for v in vecs:
            assert abs(A @ v).max() <= 1e-12

    def test_kernel_basis_tall_rank_deficient(self):
        from gztower.oracles import dense_kernel

        rng = np.random.default_rng(12)
        for rows, cols, rank in ((30, 6, 4), (12, 9, 1), (50, 16, 15), (16, 16, 10)):
            A = rand_c(rng, rows)[:, :rank] @ rand_c(rng, cols)[:rank, :]
            vecs = kernel_basis(A)
            assert len(vecs) == len(dense_kernel(A)) == cols - rank
            V = np.array(vecs).T
            assert np.abs(A @ V).max() <= 1e-10 * np.abs(A).max()
            assert np.allclose(V.conj().T @ V, np.eye(cols - rank), atol=1e-12)


class TestSpectraDisjoint:
    def test_disjoint_scalar_vs_involution(self):
        # {0} vs {1, -1}: the Sylvester operator -Z B has singular values |±1|.
        assert spectra_disjoint(as_cmatrix([[0]]), as_cmatrix([[0, 1], [1, 0]]))

    def test_shared_eigenvalue_one(self):
        assert not spectra_disjoint(np.eye(1, dtype=complex), np.eye(2, dtype=complex))

    def test_shared_eigenvalue_two(self):
        assert not spectra_disjoint(
            np.diag([1, 2]).astype(complex), np.diag([2, 3]).astype(complex)
        )

    def test_agrees_with_eigenvalue_oracle(self):
        from gztower.oracles import charpoly_roots

        rng = np.random.default_rng(10)
        for _ in range(40):
            na, nb = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            A, B = rand_c(rng, na), rand_c(rng, nb)
            ra, rb = charpoly_roots(A), charpoly_roots(B)
            gaps = [abs(x - y) for x in ra for y in rb]
            scale = max(max(abs(z) for z in ra + rb), 1.0)
            oracle = min(gaps) > 1e-6 * scale
            assert spectra_disjoint(A, B) == oracle


def quiet_disjoint(A, B):
    """spectra_disjoint with every warning turned into an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return spectra_disjoint(A, B)


class TestSingularSylvester:
    def test_identity_pair(self):
        # The operator is zero: power iteration maps its start to zero.
        A, B = np.eye(2, dtype=complex), np.eye(3, dtype=complex)
        assert not quiet_disjoint(A, B)
        smin, smax = sylvester_min_singular(A, B)
        assert smax == 0.0 and smin <= 1e-12

    def test_nilpotent_jordan_pair(self):
        J2 = np.diag(np.ones(1), 1).astype(complex)
        J3 = np.diag(np.ones(2), 1).astype(complex)
        assert not quiet_disjoint(J2, J3)

    def test_nested_diagonals(self):
        assert not quiet_disjoint(
            np.diag([1.0, 2.0]).astype(complex), np.diag([1.0, 2.0, 3.0]).astype(complex)
        )

    @pytest.mark.parametrize(
        "a, b",
        [
            ([1e4, 1e4], [1e4, 1e4, 1e4]),
            ([1e8 + 1, 1e8 + 2], [1e8 + 1, 1e8 + 2, 1e8 + 3]),
        ],
    )
    def test_shared_spectrum_far_from_the_origin(self, a, b):
        # The rounding floor of trsyl scales with the spread of the two
        # spectra, not with their distance from 0.
        from gztower.oracles import kron_spectra_disjoint

        A, B = np.diag(a).astype(complex), np.diag(b).astype(complex)
        assert not quiet_disjoint(A, B)
        assert kron_spectra_disjoint(A, B) is False

    def test_common_shift_leaves_the_values(self):
        rng = np.random.default_rng(14)
        A, B = rand_c(rng, 4), rand_c(rng, 5)
        smin, smax = sylvester_min_singular(A, B)
        for c in (1e4, -3e6 + 2e6j):
            shifted_min, shifted_max = sylvester_min_singular(A + c * np.eye(4), B + c * np.eye(5))
            assert abs(shifted_min - smin) <= 1e-8 * smin
            assert abs(shifted_max - smax) <= 1e-3 * smax

    def test_decision_is_the_threshold_rule(self):
        # spectra_disjoint may decide before computing s_max; the answer is
        # still smin > tol.threshold(smax) on the pair's own values.  The
        # default tolerance decides early; the loose ones run the forward
        # iteration, which reads true on the involution pair at rel = 0.9.
        rng = np.random.default_rng(15)
        pairs = [(rand_c(rng, na), rand_c(rng, na + 1)) for na in range(1, 7)]
        pairs += [
            (as_cmatrix([[0]]), as_cmatrix([[0, 1], [1, 0]])),
            (np.eye(2, dtype=complex), np.eye(3, dtype=complex)),
            (np.diag([1.0, 2.0]).astype(complex), np.diag([1.0, 2.0, 3.0]).astype(complex)),
            (np.diag(np.ones(1), 1).astype(complex), np.diag(np.ones(2), 1).astype(complex)),
        ]
        for tol in (Tolerance(), Tolerance(rel=0.5, abs=0.0), Tolerance(rel=0.9, abs=0.0)):
            for A, B in pairs:
                smin, smax = sylvester_min_singular(A, B)
                assert spectra_disjoint(A, B, tol) == (smin > tol.threshold(smax))

    def test_zero_pair(self):
        # trsyl meets only zero divisors and perturbs them to underflow level.
        Z2, Z3 = np.zeros((2, 2), dtype=complex), np.zeros((3, 3), dtype=complex)
        assert not quiet_disjoint(Z2, Z3)
        smin, smax = sylvester_min_singular(Z2, Z3)
        assert smax == 0.0 and smin <= 1e-280

    def test_overflowing_solve_is_rescaled(self):
        # trsyl perturbs the zero divisors of a tiny nilpotent A to eps * |A|;
        # back substitution through its chain then overflows, so trsyl
        # returns scale < 1.  The inverse norm is inf and the smallest
        # singular value reads exactly 0.
        from scipy.linalg.lapack import ztrsyl

        A = 1e-270 * np.diag(np.ones(2), 1).astype(complex)
        B = np.zeros((1, 1), dtype=complex)
        assert ztrsyl(A, B, np.ones((3, 1), dtype=complex), isgn=-1)[1] < 1.0
        assert sylvester_min_singular(A, B)[0] == 0.0
        assert not quiet_disjoint(A, B)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_never_disjoint(self, bad):
        A = np.diag([1.0, bad]).astype(complex)
        B = np.diag([5.0, 6.0, 7.0]).astype(complex)
        assert not quiet_disjoint(A, B)
        assert not quiet_disjoint(B, A)

    def test_matches_dense_singular_values(self):
        from gztower.oracles import kron_sylvester_singular

        rng = np.random.default_rng(12)
        for na, nb in ((1, 2), (3, 4), (5, 5), (7, 8)):
            A, B = rand_c(rng, na), rand_c(rng, nb)
            smin, smax = sylvester_min_singular(A, B)
            ref_min, ref_max = kron_sylvester_singular(A, B)
            assert abs(smin - ref_min) <= 1e-8 * ref_min
            # The largest value only scales a threshold: a lower bound, close.
            assert 0.9 * ref_max <= smax <= ref_max * (1 + 1e-12)


class TestKrylovBasis:
    def test_regular_spans_powers_orthonormally(self):
        rng = np.random.default_rng(13)
        M = rand_c(rng, 5)
        Q, s = krylov_basis(M)
        assert Q.shape == (5, 5, 5)
        flat = Q.reshape(5, -1)
        assert np.allclose(flat.conj() @ flat.T, np.eye(5), atol=1e-12)
        assert rank_split(list(Q) + [np.linalg.matrix_power(M, k) for k in range(5)])[0] == 5
        assert spectrum_split(s)[0] == 5

    def test_breakdown_at_minimal_polynomial_degree(self):
        # diag(1, 1, 2) has minimal polynomial (x - 1)(x - 2): degree 2.
        Q, s = krylov_basis(np.diag([1.0, 1.0, 2.0]).astype(complex))
        assert Q.shape[0] == 2
        assert spectrum_split(s)[0] == 2

    def test_scalar_breaks_down_at_once(self):
        Q, s = krylov_basis(0.1 * np.eye(3, dtype=complex))
        assert Q.shape[0] == 1
        assert spectrum_split(s)[0] == 0

    def test_spread_whose_square_overflows(self):
        # The configured filter turns a RuntimeWarning into an error here.
        Q, s = krylov_basis(np.array([[2.0, 1e160], [1e160, 3.0]], dtype=complex))
        assert Q.shape[0] == 2
        assert np.all(np.isfinite(s)) and spectrum_split(s)[0] == 2

    def test_shift_invariant(self):
        rng = np.random.default_rng(14)
        M = rand_c(rng, 4)
        _, s = krylov_basis(M)
        _, shifted = krylov_basis(M + 1e3 * np.eye(4))
        assert np.allclose(s, shifted, rtol=1e-9)
