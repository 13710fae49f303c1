import numpy as np
import pytest

from gztower.gz import (
    GZIndex,
    SmoothFn,
    fd_gradient,
    fn_product,
    gz_eval,
    gz_fn,
    gz_grad,
    gz_hamiltonian,
    gz_indices,
    linear_fn,
    poisson_bracket,
    power_table,
)
from gztower.matcore import embed
from gztower.oracles import fd_poisson_bracket
from gztower.tower import new_tower

from conftest import plain_tower, theta_tower, unit


def involution_tower():
    return new_tower([[0.0, 1.0], [1.0, 0.0]])


class TestIndices:
    def test_validation(self):
        with pytest.raises(ValueError):
            GZIndex(2, 3)
        with pytest.raises(ValueError):
            GZIndex(1, 0)

    def test_enumeration(self):
        assert len(gz_indices(4)) == 10
        assert len(gz_indices(4, max_i=3)) == 6
        assert gz_indices(2) == [GZIndex(1, 1), GZIndex(2, 1), GZIndex(2, 2)]


class TestEval:
    def test_identity_tower_traces(self):
        T = new_tower(np.eye(5, dtype=complex))
        for i in range(1, 6):
            assert gz_eval(T, GZIndex(i, 1)) == i

    def test_involution_square_trace(self):
        # X^2 = Id for the 2x2 involution, so the quadratic trace is 2.
        assert gz_eval(involution_tower(), GZIndex(2, 2)) == 2

    def test_first_entry(self):
        T = plain_tower(4, 31)
        assert gz_eval(T, GZIndex(1, 1)) == T.top[0, 0]

    def test_index_out_of_depth(self):
        with pytest.raises(IndexError):
            gz_eval(new_tower([[1.0]]), GZIndex(2, 1))


class TestGrad:
    def test_linear_index_gives_embedded_identity(self):
        T = plain_tower(5, 32)
        for i in range(1, 5):
            assert np.array_equal(gz_grad(T, GZIndex(i, 1), 5), embed(np.eye(i), 5))

    def test_quadratic_by_hand(self):
        assert np.array_equal(
            gz_grad(involution_tower(), GZIndex(2, 2), 2), [[0, 2], [2, 0]]
        )

    def test_matches_finite_differences(self):
        for seed in (0, 1):
            T = plain_tower(5, 40 + seed)
            for idx in gz_indices(5):
                analytic = gz_grad(T, idx, 5)
                numeric = fd_gradient(gz_fn(idx), T, 5)
                scale = 1.0 + np.linalg.norm(analytic)
                assert np.linalg.norm(analytic - numeric) <= 1e-6 * scale

    def test_fd_gradient_of_constant_is_zero(self):
        T = plain_tower(3, 33)
        const = SmoothFn(level=2, eval=lambda X: 3.5 + 0j)
        assert np.abs(fd_gradient(const, T, 3)).max() <= 1e-10

    def test_fd_gradient_quadratic_diagonal(self):
        # d tr(X^2) at diag(1,2) is 2X = diag(2,4).
        T = new_tower(np.diag([1.0, 2.0]).astype(complex))
        g = fd_gradient(gz_fn(GZIndex(2, 2)), T, 2)
        assert np.abs(g - np.diag([2.0, 4.0])).max() <= 1e-8

    def test_level_bounds(self):
        T = plain_tower(3, 34)
        with pytest.raises(IndexError):
            gz_grad(T, GZIndex(2, 1), 1)
        with pytest.raises(IndexError):
            gz_grad(T, GZIndex(2, 1), 4)


class TestHamiltonian:
    def test_top_level_is_casimir(self):
        T = plain_tower(4, 35)
        for j in range(1, 5):
            value = gz_hamiltonian(T, GZIndex(4, j)).value(4)
            scale = 1.0 + np.abs(T.top).max() ** j
            assert np.abs(value).max() <= 1e-12 * scale

    def test_first_index_by_hand(self):
        # -[E_11, [[a,b],[c,d]]] = [[0, -b], [c, 0]].
        a, b, c, d = 1.5, 2.0 - 1j, -0.5 + 2j, 3.0
        T = new_tower([[a, b], [c, d]])
        value = gz_hamiltonian(T, GZIndex(1, 1)).value(2)
        assert np.allclose(value, [[0, -b], [c, 0]], atol=0)

    def test_value_at_own_level_vanishes(self):
        T = plain_tower(5, 36)
        for idx in gz_indices(4):
            value = gz_hamiltonian(T, idx).value(idx.i)
            assert np.abs(value).max() <= 1e-12 * (1.0 + np.abs(T.top).max() ** idx.j)

    def test_generator_is_gradient(self):
        T = plain_tower(4, 37)
        idx = GZIndex(3, 2)
        V = gz_hamiltonian(T, idx)
        assert V.base_level == 3
        assert np.array_equal(embed(V.generator, 4), gz_grad(T, idx, 4))


class TestBracket:
    def test_gz_pair_commutes(self):
        T = theta_tower(4, 0)
        f, g = gz_fn(GZIndex(2, 1)), gz_fn(GZIndex(2, 2))
        assert abs(poisson_bracket(f, g, T)) <= 1e-10

    def test_self_bracket_exactly_zero(self):
        T = plain_tower(3, 38)
        f = gz_fn(GZIndex(2, 2))
        assert poisson_bracket(f, f, T) == 0

    def test_antisymmetry(self):
        T = plain_tower(4, 39)
        f, g = linear_fn(unit(3, 0, 1)), linear_fn(unit(3, 2, 0))
        lhs = poisson_bracket(f, g, T)
        rhs = poisson_bracket(g, f, T)
        assert abs(lhs + rhs) <= 1e-13 * (1 + abs(lhs))

    def test_structure_constants_on_gl2(self):
        # Coordinate observables x_kl(X) = X_kl = tr(E_lk X).  The bracket of
        # linear observables is the linear observable of the commutator, so
        # {x_kl, x_pq}(X) = delta_kq X_pl - delta_pl X_kq.  (Ten-line oracle:
        # [E_lk, E_qp] = delta_kq E_lp - delta_pl E_qk, then trace against X.)
        T = plain_tower(2, 41)
        X = T.top
        for k in range(2):
            for l in range(2):
                for p in range(2):
                    for q in range(2):
                        f = linear_fn(unit(2, l, k))
                        g = linear_fn(unit(2, q, p))
                        expected = (k == q) * X[p, l] - (p == l) * X[k, q]
                        got = poisson_bracket(f, g, T)
                        assert abs(got - expected) <= 1e-13 * (1 + abs(expected))

    def test_all_gz_pairs_commute_to_tolerance(self):
        for depth, seed in ((5, 50), (5, 51), (5, 52), (8, 53)):
            T = theta_tower(depth, seed, 1.0)
            idxs = gz_indices(depth)
            for a in range(len(idxs)):
                for b in range(a + 1, len(idxs)):
                    i1, i2 = idxs[a], idxs[b]
                    n = max(i1.i, i2.i)
                    bound = 1.0 + np.linalg.norm(T.level(n), 2) ** (i1.i + i2.i)
                    val = poisson_bracket(gz_fn(i1), gz_fn(i2), T)
                    assert abs(val) <= 1e-8 * bound

    def test_leibniz_rule(self):
        # {f, g h} = g {f, h} + {f, g} h pointwise, with analytic gradients.
        T = plain_tower(4, 42)
        f = gz_fn(GZIndex(2, 2))
        g = gz_fn(GZIndex(3, 1))
        h = linear_fn(unit(3, 0, 2))
        gh = fn_product(g, h)
        lhs = poisson_bracket(f, gh, T)
        g_at = g.eval(T.level(3))
        h_at = h.eval(T.level(3))
        rhs = g_at * poisson_bracket(f, h, T) + poisson_bracket(f, g, T) * h_at
        assert abs(lhs - rhs) <= 1e-7 * (1 + abs(lhs) + abs(rhs))

    def test_jacobi_identity(self):
        # Quadratic observables tr(X A X B); inner brackets are evaluated
        # analytically, outer brackets differentiate them numerically.
        rng = np.random.default_rng(7)
        T = plain_tower(3, 43)

        def quad(A, B):
            def ev(X):
                return complex(np.trace(X @ A @ X @ B))

            def gr(X):
                return A @ X @ B + B @ X @ A

            return SmoothFn(level=3, eval=ev, grad=gr)

        mats = [
            0.5 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
            for _ in range(4)
        ]
        f = quad(mats[0], mats[1])
        g = quad(mats[2], mats[3])
        h = quad(mats[1], mats[2])

        def bracket_fn(u, v):
            return SmoothFn(
                level=3,
                eval=lambda X: complex(
                    np.trace(
                        X
                        @ (
                            u.grad(X) @ v.grad(X)
                            - v.grad(X) @ u.grad(X)
                        )
                    )
                ),
            )

        total = (
            poisson_bracket(f, bracket_fn(g, h), T)
            + poisson_bracket(g, bracket_fn(h, f), T)
            + poisson_bracket(h, bracket_fn(f, g), T)
        )
        scale = sum(
            abs(poisson_bracket(u, bracket_fn(v, w), T))
            for u, v, w in ((f, g, h), (g, h, f), (h, f, g))
        )
        assert abs(total) <= 1e-6 * (1 + scale)

    def test_bracket_level_is_the_deeper_one(self):
        T = plain_tower(4, 44)
        f = gz_fn(GZIndex(1, 1))
        g = linear_fn(unit(3, 1, 2))
        # f lives at level 1, g at level 3: evaluation happens at level 3.
        val = poisson_bracket(f, g, T)
        X3 = T.level(3)
        expected = np.trace(
            X3 @ (embed(np.eye(1), 3) @ unit(3, 1, 2) - unit(3, 1, 2) @ embed(np.eye(1), 3))
        )
        assert abs(val - expected) <= 1e-13 * (1 + abs(expected))

    def test_depth_exceeded(self):
        T = plain_tower(2, 45)
        with pytest.raises(IndexError):
            poisson_bracket(gz_fn(GZIndex(3, 1)), gz_fn(GZIndex(1, 1)), T)


class TestPowerTable:
    """The batched layer against the per-pair public API it replaces in the checks."""

    TOWERS = ((1, 60, 0.5), (2, 61, 0.5), (5, 62, 0.5), (8, 63, 0.3), (8, 64, 1.0))

    def test_traces_match_gz_eval(self):
        for depth, seed, scale in self.TOWERS:
            T = theta_tower(depth, seed, scale)
            traces = power_table(T).traces()
            idxs = gz_indices(depth)
            assert traces.shape == (len(idxs),)
            for idx, value in zip(idxs, traces):
                expected = gz_eval(T, idx)
                bound = 1.0 + np.linalg.norm(T.level(idx.i), 2) ** idx.j
                assert abs(value - expected) <= 1e-13 * bound

    def test_generators_match_gz_grad(self):
        for depth, seed, scale in self.TOWERS:
            T = theta_tower(depth, seed, scale)
            gens = power_table(T).generators()
            idxs = gz_indices(depth)
            assert len(gens) == len(idxs)
            for idx, G in zip(idxs, gens):
                expected = gz_grad(T, idx, idx.i)
                bound = 1.0 + idx.j * np.linalg.norm(T.level(idx.i), 2) ** (idx.j - 1)
                assert G.shape == (idx.i, idx.i)
                assert np.abs(G - expected).max() <= 1e-13 * bound

    def test_bracket_matrix_matches_poisson_bracket(self):
        for depth, seed, scale in self.TOWERS:
            T = theta_tower(depth, seed, scale)
            B = power_table(T).bracket_matrix()
            idxs = gz_indices(depth)
            assert B.shape == (len(idxs), len(idxs))
            for a, i1 in enumerate(idxs):
                for b, i2 in enumerate(idxs):
                    expected = poisson_bracket(gz_fn(i1), gz_fn(i2), T)
                    n = max(i1.i, i2.i)
                    bound = 1.0 + np.linalg.norm(T.level(n), 2) ** (i1.i + i2.i)
                    assert abs(B[a, b] - expected) <= 1e-13 * bound

    def test_bracket_matrix_against_fd_oracle(self):
        T = plain_tower(4, 65, 0.7)
        table = power_table(T)
        idxs = gz_indices(4)
        B = table.bracket_matrix()
        for a, b in ((0, 9), (2, 5), (4, 8), (6, 7), (3, 3)):
            expected = fd_poisson_bracket(gz_fn(idxs[a]), gz_fn(idxs[b]), T)
            assert abs(B[a, b] - expected) <= 1e-6 * (1.0 + abs(expected))

    def test_gemm_against_fd_oracle_on_noncommuting_family(self):
        # The GZ brackets all vanish; matrix units pair nontrivially, so this
        # comparison of the same GEMM is not one of two zeros.
        from gztower.matcore import bracket_matrix

        T = plain_tower(3, 66)
        units = [unit(3, k, l) for k in range(3) for l in range(3)]
        B = bracket_matrix(T.top, units)
        for a in range(0, 9, 2):
            for b in range(1, 9, 3):
                expected = fd_poisson_bracket(linear_fn(units[a]), linear_fn(units[b]), T)
                assert abs(B[a, b] - expected) <= 1e-8 * (1.0 + abs(expected))
