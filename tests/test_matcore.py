import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gztower import matcore
from gztower.matcore import (
    MAX_DIM,
    Tolerance,
    as_cmatrix,
    commutator,
    corner,
    embed,
    embed_stack,
    krylov_basis,
    mat_exp,
    mat_exp_stack,
    spectra_disjoint,
    spectrum_split,
    tangent_values,
    trace_pair,
)
from gztower import oracles
from gztower.oracles import TowerTangent, rank_split
from gztower.tower import Tower

from conftest import family_splits, sylvester_singular, unit


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
        T = Tower(rand_c(rng, self.N))
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
        # Generators of different sizes keep their order.
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

    @pytest.mark.parametrize("kind", ["normal", "non-normal"])
    def test_matches_scipy_oracle(self, kind):
        # scipy's expm, a separate implementation of the same algorithm.
        from scipy.linalg import expm

        rng = np.random.default_rng(16)
        for n in range(1, 33):
            for norm1 in (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2):
                if kind == "normal":
                    Q = np.linalg.qr(rand_c(rng, n))[0]
                    A = (Q * (rng.standard_normal(n) + 1j * rng.standard_normal(n))) @ Q.conj().T
                else:
                    A = rand_c(rng, n) + 5.0 * np.triu(rand_c(rng, n), 1)
                A *= norm1 / np.abs(A).sum(axis=0).max()
                reference = expm(A)
                bound = 1e-13 * (1.0 + np.linalg.norm(reference, 2))
                assert np.abs(mat_exp(A) - reference).max() <= bound, (n, norm1)

    def test_stack_slices_match_single_calls(self):
        rng = np.random.default_rng(17)
        P = rand_c(rng, 6)
        stack = -np.linspace(-3.0, 3.0, 201)[:, None, None] * P
        out, errors = mat_exp_stack(stack)
        assert errors == [None] * 201
        for k in range(201):
            assert np.array_equal(out[k], mat_exp(stack[k]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e300])
    def test_non_finite_input_overflows_quietly(self, bad):
        M = np.diag([1.0, bad]).astype(complex)
        with pytest.raises(OverflowError):
            mat_exp(M)
        out, errors = mat_exp_stack(np.stack([M, np.eye(2, dtype=complex)]))
        assert isinstance(errors[0], OverflowError) and errors[1] is None
        assert np.array_equal(out[1], mat_exp(np.eye(2, dtype=complex)))


def _expm_plans(M, monkeypatch):
    """Run mat_exp_stack on M and return the (degree, squared) pairs its groups used."""
    from gztower import matcore

    plans = set()
    pade, powers = matcore._pade_exp, matcore._even_powers

    def recording_pade(A, P, m):
        # Squared groups form the four even powers of their scaled slices.
        plans.add((m, P.shape[1] == 4))
        return pade(A, P, m)

    monkeypatch.setattr(matcore, "_pade_exp", recording_pade)
    monkeypatch.setattr(matcore, "_even_powers", powers)
    out, errors = mat_exp_stack(M)
    return out, errors, plans


class TestBatchedExp:
    """One scaling and squaring pass over a stack equals one call per slice."""

    N = 6

    def mixed_stack(self):
        rng = np.random.default_rng(18)
        slices = []
        # 1-norms that reach every degree, with and without squarings, on
        # dense and strongly non-normal matrices.
        for norm1 in (4e-3, 1e-2, 0.12, 0.3, 0.8, 1.5, 2.5, 3.5, 6.0, 40.0, 700.0):
            for kind in ("dense", "non-normal"):
                A = rand_c(rng, self.N)
                if kind == "non-normal":
                    A = A + 8.0 * np.triu(rand_c(rng, self.N), 1)
                slices.append(A * norm1 / np.abs(A).sum(axis=0).max())
        slices.append(np.zeros((self.N, self.N), dtype=complex))
        for bad in (np.nan, np.inf, 1e4):
            A = np.eye(self.N, dtype=complex)
            A[1, 1] = bad
            slices.append(A)
        return np.array(slices)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_every_slice_is_its_own_call(self, monkeypatch):
        M = self.mixed_stack()
        order = np.random.default_rng(19).permutation(len(M))
        for stack in (M, M[order]):
            out, errors, plans = _expm_plans(stack, monkeypatch)
            degrees = {(3, False), (5, False), (7, False), (9, False), (13, False), (13, True)}
            assert plans >= degrees
            for A, E, error in zip(stack, out, errors):
                try:
                    single, single_error = mat_exp(A), None
                except OverflowError as exc:
                    single, single_error = None, exc
                if single_error is None:
                    assert error is None and np.array_equal(E, single)
                else:
                    assert isinstance(error, OverflowError) and str(error) == str(single_error)
                    assert not np.all(np.isfinite(E))
        # The zero slice is exact; NaN, inf and e^(1e4) are not representable.
        _, errors = mat_exp_stack(M)
        assert [e is None for e in errors][-4:] == [True, False, False, False]

    def test_slices_do_not_depend_on_their_neighbours(self):
        M = self.mixed_stack()
        order = np.random.default_rng(20).permutation(len(M))
        out, errors = mat_exp_stack(M)
        shuffled, shuffled_errors = mat_exp_stack(M[order])
        assert np.array_equal(shuffled, out[order], equal_nan=True)
        assert [e is None for e in shuffled_errors] == [errors[k] is None for k in order]

    def test_temporaries_stay_bounded(self):
        import tracemalloc

        rng = np.random.default_rng(21)
        tracemalloc.start()
        try:
            # 1-norms from 1e-3 to 1e3: every degree and up to a dozen squarings.
            M = rand_c(rng, 16)[None] * np.geomspace(1e-3, 1e3, 2000)[:, None, None] / 16
            M = np.ascontiguousarray(M)
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            out, _ = mat_exp_stack(M)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The input was traced before the start, the output after it.
        assert peak - start < out.nbytes + 2**20
        assert start >= M.nbytes

    def test_skipped_overscaling_correction_is_zero(self):
        # _ells forms abs(A)^(2m+1) only above ell_free; below it the
        # correction computed in full must come out 0.  An entrywise
        # nonnegative rank-one A has ||A^p||_1 = ||A||_1^p, the case where
        # the bound is tight.
        from gztower import matcore

        rng = np.random.default_rng(22)
        for m, pade in matcore._PADE.items():
            for n in (1, 2, 5, 16):
                ones = np.full((n, n), 1.0 / n)
                for factor in np.linspace(0.5, 1.0, 11):
                    for R in (ones, np.abs(rand_c(rng, n))):
                        R = R * (factor * pade.ell_free / R.sum(axis=0).max())
                        power = np.linalg.matrix_power(R, 2 * m + 1).sum(axis=0).max()
                        norm = R.sum(axis=0).max()
                        alpha = power / (norm * pade.c_inv)
                        assert np.ceil(np.log2(alpha / 2.0**-53) / (2 * m)) <= 0, (m, n)
                        assert matcore._ells(R[None], [norm], m) == [0]


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

    def test_gram_values_match_the_svd_across_row_blocks(self):
        # 100 members span three row blocks of the Gram, whose lower
        # triangle is assembled block by block.
        rng = np.random.default_rng(66)
        F = rng.standard_normal((100, 144)) + 1j * rng.standard_normal((100, 144))
        s = oracles._gram_singular_values(F)
        ref = np.linalg.svd(F, compute_uv=False)
        assert s is not None
        np.testing.assert_allclose(s, ref, rtol=1e-12)
        assert rank_split(F.reshape(100, 12, 12)) == matcore.spectrum_split(s)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_squares_out_of_range_take_the_svd(self, scale):
        # The Gram of these entries underflows or overflows; the SVD does not.
        rng = np.random.default_rng(67)
        F = scale * (rng.standard_normal((6, 16)) + 1j * rng.standard_normal((6, 16)))
        assert oracles._gram_singular_values(F) is None
        s = np.linalg.svd(F, compute_uv=False)
        assert rank_split(F.reshape(6, 4, 4)) == matcore.spectrum_split(s)

    def test_overflowing_gram_keeps_the_rank(self):
        rng = np.random.default_rng(67)
        F = rng.standard_normal((6, 16)) + 1j * rng.standard_normal((6, 16))
        rank, decisive, margin = rank_split(1e200 * F.reshape(6, 4, 4))
        ref_rank, ref_decisive, ref_margin = rank_split(F.reshape(6, 4, 4))
        assert rank == ref_rank == 6
        assert decisive == pytest.approx(1e200 * ref_decisive, rel=1e-12)
        assert margin == pytest.approx(ref_margin, rel=1e-12)

    def test_more_members_than_coordinates_take_the_svd(self):
        rng = np.random.default_rng(68)
        F = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        assert oracles._gram_singular_values(F) is None
        assert rank_split(F.reshape(5, 2, 2))[0] == 4


def count_qr_fallbacks(monkeypatch):
    """Record each family that level_splits reads off a Householder QR."""
    calls = []
    original = matcore._qr_levels

    def counting(F, blocks):
        calls.append(F.shape)
        return original(F, blocks)

    monkeypatch.setattr(matcore, "_qr_levels", counting)
    return calls


class TestLevelSplits:
    @staticmethod
    def family(rng, sizes, k):
        m = sum(sizes)
        F = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
        return F, np.cumsum([0] + sizes).tolist()

    def test_values_are_the_projected_singular_values(self, monkeypatch):
        # Level i's values against a QR of the levels below and itself: the
        # last block of R holds the part of level i's rows off the span below.
        fallbacks = count_qr_fallbacks(monkeypatch)
        rng = np.random.default_rng(70)
        F, bounds = self.family(rng, [1, 2, 3, 4], 25)
        splits = family_splits(F, bounds)
        scale = max(np.linalg.svd(F[a:b], compute_uv=False)[0] for a, b in zip(bounds, bounds[1:]))
        for (rank, decisive, margin), a, b in zip(splits, bounds, bounds[1:]):
            R = np.linalg.qr(F[:b].conj().T, mode="r")
            s = np.linalg.svd(R[a:b, a:b], compute_uv=False)
            assert rank == b - a
            assert decisive == pytest.approx(s[-1], rel=1e-12)
            assert margin == pytest.approx(s[-1] / (1e-9 * scale), rel=1e-12)
        assert fallbacks == []

    def test_widths_read_only_the_columns_each_level_fills(self):
        # Gram blocks formed over only the columns each level's rows fill, as
        # criterion 1 forms them, rank as the blocks of the whole rows do.
        rng = np.random.default_rng(71)
        F, bounds = self.family(rng, [1, 2, 3], 9)
        blocks = list(zip(bounds, bounds[1:]))
        widths = [1, 4, 9]
        for (a, b), w in zip(blocks, widths):
            F[a:b, w:] = 0.0
        rows = [
            np.concatenate(
                [F[a:b, :w] @ F[c:d, :w].conj().T for (c, d), w in zip(blocks[: i + 1], widths)],
                axis=1,
            )
            for i, (a, b) in enumerate(blocks)
        ]
        banded = matcore.level_splits(rows, 9, lambda: F)
        full = family_splits(F, bounds)
        for (rank, decisive, margin), (ref_rank, ref_decisive, ref_margin) in zip(banded, full):
            assert rank == ref_rank
            assert decisive == pytest.approx(ref_decisive, rel=1e-12)
            assert margin == pytest.approx(ref_margin, rel=1e-12)

    def test_dependent_level_takes_the_qr_and_fails(self, monkeypatch):
        # Level 2's rows are combinations of level 1's: the Cholesky of its
        # projected block fails or falls inside the rounding floor.
        fallbacks = count_qr_fallbacks(monkeypatch)
        rng = np.random.default_rng(72)
        F, bounds = self.family(rng, [2, 2, 3], 16)
        F[2:4] = rng.standard_normal((2, 2)) @ F[0:2]
        ranks = [rank for rank, _, _ in family_splits(F, bounds)]
        assert ranks == [2, 0, 3]
        assert len(fallbacks) == 1

    def test_one_dependent_row_keeps_the_rest_of_its_level(self, monkeypatch):
        fallbacks = count_qr_fallbacks(monkeypatch)
        rng = np.random.default_rng(73)
        F, bounds = self.family(rng, [2, 3], 12)
        F[4] = F[0] - 2.0 * F[2]
        (rank1, _, _), (rank2, decisive, margin) = family_splits(F, bounds)
        assert (rank1, rank2) == (2, 2)
        assert decisive > 0 and margin > 1e3
        assert len(fallbacks) == 1

    def test_more_rows_than_columns_take_the_qr(self, monkeypatch):
        fallbacks = count_qr_fallbacks(monkeypatch)
        rng = np.random.default_rng(74)
        F, bounds = self.family(rng, [2, 2, 2], 4)
        assert [rank for rank, _, _ in family_splits(F, bounds)] == [2, 2, 0]
        assert len(fallbacks) == 1

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_squares_out_of_range_take_the_qr(self, scale, monkeypatch):
        fallbacks = count_qr_fallbacks(monkeypatch)
        rng = np.random.default_rng(75)
        F, bounds = self.family(rng, [1, 2, 3], 10)
        # No absolute floor, which would see the scale.
        tol = Tolerance(abs=0.0)
        scaled = family_splits(scale * F, bounds, tol)
        assert len(fallbacks) == 1
        for (rank, decisive, margin), (ref_rank, ref_decisive, ref_margin), size in zip(
            scaled, family_splits(F, bounds, tol), [1, 2, 3]
        ):
            assert rank == ref_rank == size
            assert decisive == pytest.approx(scale * ref_decisive, rel=1e-12)
            assert margin == pytest.approx(ref_margin, rel=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_family_has_no_rank(self, bad):
        rng = np.random.default_rng(76)
        F, bounds = self.family(rng, [1, 2], 6)
        F[2, 3] = bad
        splits = family_splits(F, bounds)
        assert all(rank == 0 and np.isnan(sv) and np.isnan(m) for rank, sv, m in splits)

    # Block row [a, b) holds the Gram's rows a..b-1, columns 0..b-1: the rows
    # must follow one another from 0, none empty.
    @pytest.mark.parametrize(
        "bounds", [[(0, 2), (1, 3)], [(1, 3)], [(0, 2), (2, 2), (2, 3)], [(0, 2), (3, 4)]]
    )
    def test_bounds_must_split_the_rows(self, bounds):
        rows = [np.zeros((b - a, b), dtype=complex) for a, b in bounds]
        with pytest.raises(ValueError):
            matcore.level_splits(rows, 4, lambda: np.eye(4, dtype=complex))


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
        smin, smax = sylvester_singular(A, B)
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
        smin, smax = sylvester_singular(A, B)
        for c in (1e4, -3e6 + 2e6j):
            shifted_min, shifted_max = sylvester_singular(A + c * np.eye(4), B + c * np.eye(5))
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
                smin, smax = sylvester_singular(A, B)
                assert spectra_disjoint(A, B, tol) == (smin > tol.threshold(smax))

    def test_zero_pair(self):
        # trsyl meets only zero divisors and perturbs them to underflow level.
        Z2, Z3 = np.zeros((2, 2), dtype=complex), np.zeros((3, 3), dtype=complex)
        assert not quiet_disjoint(Z2, Z3)
        smin, smax = sylvester_singular(Z2, Z3)
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
        assert sylvester_singular(A, B)[0] == 0.0
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
            smin, smax = sylvester_singular(A, B)
            ref_min, ref_max = kron_sylvester_singular(A, B)
            assert abs(smin - ref_min) <= 1e-8 * ref_min
            # The largest value only scales a threshold: a lower bound, close.
            assert 0.9 * ref_max <= smax <= ref_max * (1 + 1e-12)


class TestHugeEntries:
    def test_spectra_disjoint_near_the_double_limit(self):
        # The configured filter turns a RuntimeWarning into an error here.
        fm = np.finfo(float).max
        assert not spectra_disjoint(np.array([[fm]], dtype=complex), fm * np.eye(2, dtype=complex))
        A = np.diag([fm, -fm]).astype(complex)
        B = np.diag([fm, -fm, 0.5 * fm]).astype(complex)
        B[2, :2] = 1.0
        assert not spectra_disjoint(A, B)
        C = np.diag([0.5 * fm, -0.5 * fm, 0.25 * fm]).astype(complex)
        assert spectra_disjoint(A, C)

    def test_scaled_pair_decides_as_the_unscaled_one(self):
        rng = np.random.default_rng(16)
        for na in range(1, 6):
            A, B = rand_c(rng, na), rand_c(rng, na + 1)
            B[:na, :na] = A
            for shared in (False, True):
                if shared:
                    B = embed(A, na + 1)
                assert spectra_disjoint(2.0**700 * A, 2.0**700 * B) == spectra_disjoint(A, B)


class TestEigenSeparation:
    def test_bound_never_exceeds_the_smallest_singular_value(self):
        # Also on non-normal and nearly defective pairs, and on pairs whose
        # spectra nearly meet, where the bound is far below the Lanczos value.
        from gztower import matcore
        from gztower.oracles import kron_sylvester_singular

        rng = np.random.default_rng(18)
        jordan = np.diag(np.ones(3), 1).astype(complex)
        pairs = []
        for na in range(1, 8):
            A, B = rand_c(rng, na), rand_c(rng, na + 1)
            pairs.append((A, B))
            pairs.append((A + 5.0 * np.triu(rand_c(rng, na), 1), B))
            pairs.append((A, embed(A, na + 1) + 1e-7 * rand_c(rng, na + 1)))
        pairs.append((jordan + 1e-6 * rand_c(rng, 4), rand_c(rng, 5)))
        for A, B in pairs:
            # Unshifted eigenpairs, as spectra_disjoint reads them.
            bound = matcore._eigen_separation(matcore._eigen(A), matcore._eigen(B))
            ref_min, ref_max = kron_sylvester_singular(A, B)
            assert not bound > ref_min + 1e-12 * ref_max


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

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_entries_near_the_double_limit(self, sign):
        # Scaled by a power of two before the shift, no trace overflows; the
        # configured filter turns a RuntimeWarning into an error here.
        fm = np.finfo(float).max
        Q, s = krylov_basis(np.array([[fm, 1.0], [1.0, sign * fm]], dtype=complex))
        if sign > 0:
            # The shifted matrix [[0, 1], [1, 0]] is at unit scale again.
            assert Q.shape[0] == 2
            np.testing.assert_allclose(s, [np.sqrt(2.0), 1.0], rtol=1e-15)
        else:
            # The span is found, but the spread exceeds the double range.
            assert Q.shape[0] == 2 and np.isinf(s[0])
            assert spectrum_split(s)[0] == 0 and np.isnan(spectrum_split(s)[2])
        Q, s = krylov_basis(np.diag([fm, 0.5 * fm, 1.0]).astype(complex))
        assert Q.shape[0] == 3 and np.all(np.isfinite(s))
        assert spectrum_split(s)[0] == 3

    def test_scaling_is_exact(self):
        # A power of two commutes with every operation of the run.
        rng = np.random.default_rng(15)
        M = rand_c(rng, 5)
        Q, s = krylov_basis(M)
        big_Q, big_s = krylov_basis(2.0**600 * M)
        np.testing.assert_array_equal(big_Q, Q)
        np.testing.assert_array_equal(big_s, 2.0**600 * s)

    def test_shift_invariant(self):
        rng = np.random.default_rng(14)
        M = rand_c(rng, 4)
        _, s = krylov_basis(M)
        _, shifted = krylov_basis(M + 1e3 * np.eye(4))
        assert np.allclose(s, shifted, rtol=1e-9)
