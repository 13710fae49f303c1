import numpy as np
import pytest

from gztower.action import flow_stack
from gztower.gz import GZIndex, gz_indices, power_table, stack_traces
from gztower.matcore import bracket_matrix, embed
from gztower.oracles import (
    SmoothFn,
    central_gradient,
    fd_poisson_bracket,
    gz_hamiltonian,
    gz_observable,
    TowerTangent,
    omega_inf,
)
from gztower.tower import Tower, new_tower

from conftest import index_flows, plain_tower, theta_tower, unit


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
        assert gz_indices(2) == [GZIndex(1, 1), GZIndex(2, 1), GZIndex(2, 2)]


def trace_of(T, idx):
    """The power-table trace of one observable."""
    return power_table(T).traces()[gz_indices(T.depth).index(idx)]


class TestEval:
    def test_identity_tower_traces(self):
        T = new_tower(np.eye(5, dtype=complex))
        for i in range(1, 6):
            assert trace_of(T, GZIndex(i, 1)) == i

    def test_involution_square_trace(self):
        # X^2 = Id for the 2x2 involution, so the quadratic trace is 2.
        assert trace_of(involution_tower(), GZIndex(2, 2)) == 2

    def test_first_entry(self):
        T = plain_tower(4, 31)
        assert trace_of(T, GZIndex(1, 1)) == T.top[0, 0]

    def test_index_out_of_depth(self):
        with pytest.raises(IndexError):
            gz_hamiltonian(new_tower([[1.0]]), GZIndex(2, 1))


def grad_of(T, idx):
    """The power-table gradient of one observable, at its own level."""
    return power_table(T).generators()[gz_indices(T.depth).index(idx)]


class TestGrad:
    def test_linear_index_gives_embedded_identity(self):
        T = plain_tower(5, 32)
        for i in range(1, 5):
            assert np.array_equal(grad_of(T, GZIndex(i, 1)), np.eye(i))

    def test_quadratic_by_hand(self):
        assert np.array_equal(grad_of(involution_tower(), GZIndex(2, 2)), [[0, 2], [2, 0]])

    def test_matches_finite_differences(self):
        for seed in (0, 1):
            T = plain_tower(5, 40 + seed)
            for idx in gz_indices(5):
                analytic = embed(grad_of(T, idx), 5)
                numeric = central_gradient(gz_observable(idx.i, idx.j), T.level(5))
                scale = 1.0 + np.linalg.norm(analytic)
                assert np.linalg.norm(analytic - numeric) <= 1e-6 * scale

    def test_fd_gradient_of_constant_is_zero(self):
        T = plain_tower(3, 33)
        const = SmoothFn(level=2, eval=lambda X: 3.5 + 0j)
        assert np.abs(central_gradient(const, T.level(3))).max() <= 1e-10

    def test_fd_gradient_quadratic_diagonal(self):
        # d tr(X^2) at diag(1,2) is 2X = diag(2,4).
        T = new_tower(np.diag([1.0, 2.0]).astype(complex))
        g = central_gradient(gz_observable(2, 2), T.level(2))
        assert np.abs(g - np.diag([2.0, 4.0])).max() <= 1e-8


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
        assert np.array_equal(V.generator, grad_of(T, idx))


class TestBracket:
    """The bracket matrix as the Lie-Poisson bracket of pairs of observables."""

    def test_gz_pair_commutes(self):
        T = theta_tower(4, 0)
        idxs = gz_indices(4)
        B = power_table(T).bracket_matrix()
        assert abs(B[idxs.index(GZIndex(2, 1)), idxs.index(GZIndex(2, 2))]) <= 1e-10

    def test_self_bracket_exactly_zero(self):
        # One pair at a time, tr(X [g, g]) is exactly zero; the batched GEMM
        # sums the same products in another order, so its diagonal is zero
        # to rounding only.
        T = plain_tower(3, 38)
        table = power_table(T)
        a = gz_indices(3).index(GZIndex(2, 2))
        g = embed(table.generators()[a], 3)
        assert np.trace(T.top @ (g @ g - g @ g)) == 0
        bound = 1.0 + np.linalg.norm(T.level(2), 2) ** 4
        assert abs(table.bracket_matrix()[a, a]) <= 1e-13 * bound

    def test_antisymmetry(self):
        T = plain_tower(4, 39)
        B = bracket_matrix(T.level(3), [unit(3, 0, 1), unit(3, 2, 0)])
        assert abs(B[0, 1] + B[1, 0]) <= 1e-13 * (1 + abs(B[0, 1]))

    def test_structure_constants_on_gl2(self):
        # Coordinate observables x_kl(X) = X_kl = tr(E_lk X) have gradient
        # E_lk.  The bracket of linear observables is the linear observable of
        # the commutator, so {x_kl, x_pq}(X) = delta_kq X_pl - delta_pl X_kq.
        # (Ten-line oracle: [E_lk, E_qp] = delta_kq E_lp - delta_pl E_qk,
        # then trace against X.)
        T = plain_tower(2, 41)
        X = T.top
        pairs = [(k, l) for k in range(2) for l in range(2)]
        B = bracket_matrix(X, [unit(2, l, k) for k, l in pairs])
        for a, (k, l) in enumerate(pairs):
            for b, (p, q) in enumerate(pairs):
                expected = (k == q) * X[p, l] - (p == l) * X[k, q]
                assert abs(B[a, b] - expected) <= 1e-13 * (1 + abs(expected))

    def test_all_gz_pairs_commute_to_tolerance(self):
        for depth, seed in ((5, 50), (5, 51), (5, 52), (8, 53)):
            T = theta_tower(depth, seed, 1.0)
            idxs = gz_indices(depth)
            B = power_table(T).bracket_matrix()
            for a, i1 in enumerate(idxs):
                for b, i2 in enumerate(idxs):
                    n = max(i1.i, i2.i)
                    bound = 1.0 + np.linalg.norm(T.level(n), 2) ** (i1.i + i2.i)
                    assert abs(B[a, b]) <= 1e-8 * bound

    def test_bracket_level_is_the_deeper_one(self):
        T = plain_tower(4, 44)
        # tr(X_1) lives at level 1, tr(E_21 X) at level 3: the bracket formed
        # at the top level equals the one evaluated at level 3.
        G = unit(3, 1, 2)
        val = bracket_matrix(T.top, [np.eye(1), G])[0, 1]
        X3 = T.level(3)
        expected = np.trace(X3 @ (embed(np.eye(1), 3) @ G - G @ embed(np.eye(1), 3)))
        assert abs(val - expected) <= 1e-13 * (1 + abs(expected))

    def test_depth_exceeded(self):
        T = plain_tower(2, 45)
        with pytest.raises(IndexError):
            bracket_matrix(T.top, [np.eye(3), np.eye(1)])


class TestPowerTable:
    """The batched layer against references that form one observable or pair at a time."""

    TOWERS = ((1, 60, 0.5), (2, 61, 0.5), (5, 62, 0.5), (8, 63, 0.3), (8, 64, 1.0))

    def test_traces_match_oracle(self):
        for depth, seed, scale in self.TOWERS:
            T = theta_tower(depth, seed, scale)
            traces = power_table(T).traces()
            idxs = gz_indices(depth)
            assert traces.shape == (len(idxs),)
            for idx, value in zip(idxs, traces):
                expected = gz_observable(idx.i, idx.j).eval(T.level(idx.i))
                bound = 1.0 + np.linalg.norm(T.level(idx.i), 2) ** idx.j
                assert abs(value - expected) <= 1e-13 * bound

    def test_generators_match_fd_oracle(self):
        for depth, seed, scale in self.TOWERS:
            T = theta_tower(depth, seed, scale)
            gens = power_table(T).generators()
            idxs = gz_indices(depth)
            assert len(gens) == len(idxs)
            for idx, G in zip(idxs, gens):
                X = T.level(idx.i)
                assert G.shape == (idx.i, idx.i)
                # Exact reference: the closed form j X^(j-1), one power at a time.
                exact = idx.j * np.linalg.matrix_power(X, idx.j - 1)
                bound = 1.0 + idx.j * np.linalg.norm(X, 2) ** (idx.j - 1)
                assert np.abs(G - exact).max() <= 1e-13 * bound
                expected = central_gradient(gz_observable(idx.i, idx.j), X)
                assert np.linalg.norm(G - expected) <= 1e-6 * (1.0 + np.linalg.norm(G))

    def test_bracket_matrix_matches_poisson_bracket(self):
        for depth, seed, scale in self.TOWERS:
            T = theta_tower(depth, seed, scale)
            B = power_table(T).bracket_matrix()
            idxs = gz_indices(depth)
            assert B.shape == (len(idxs), len(idxs))
            levels = [None] + [T.level(n) for n in range(1, depth + 1)]
            grads = [k.j * np.linalg.matrix_power(levels[k.i], k.j - 1) for k in idxs]
            for a, i1 in enumerate(idxs):
                for b, i2 in enumerate(idxs):
                    # tr(X_n [grad f, grad g]) at the deeper level n, one pair at a time.
                    n = max(i1.i, i2.i)
                    ga, gb = embed(grads[a], n), embed(grads[b], n)
                    expected = np.trace(levels[n] @ (ga @ gb - gb @ ga))
                    bound = 1.0 + np.linalg.norm(T.level(n), 2) ** (i1.i + i2.i)
                    assert abs(B[a, b] - expected) <= 1e-13 * bound

    def test_bracket_matrix_against_fd_oracle(self):
        T = plain_tower(4, 65, 0.7)
        table = power_table(T)
        idxs = gz_indices(4)
        B = table.bracket_matrix()
        for a, b in ((0, 9), (2, 5), (4, 8), (6, 7), (3, 3)):
            f = gz_observable(idxs[a].i, idxs[a].j)
            g = gz_observable(idxs[b].i, idxs[b].j)
            expected = fd_poisson_bracket(f, g, T)
            assert abs(B[a, b] - expected) <= 1e-6 * (1.0 + abs(expected))

    def test_one_table_per_tower(self):
        T = theta_tower(5, 67, 0.5)
        table = power_table(T)
        assert power_table(T) is table
        assert table.bracket_matrix() is table.bracket_matrix()
        # Towers compare by identity: an equal tower is another tower.
        twin = Tower(T.top.copy())
        assert power_table(twin) is not table
        # The cache keeps one table, so asking for T again builds it anew.
        assert power_table(T) is not table

    def test_table_is_read_only(self):
        table = power_table(theta_tower(4, 68, 0.5))
        views = (table.gradients[2], table.generators()[4], table.bracket_matrix())
        for view in views:
            with pytest.raises(ValueError):
                view[0, 0] = 1.0

    def test_generators_are_scaled_identity_products_bit_for_bit(self):
        rng = np.random.default_rng(69)
        for depth in range(1, 9):
            shape = (depth, depth)
            T = Tower(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            expected = [j * P[j - 1] for P in identity_powers(T) for j in range(1, len(P) + 1)]
            gens = power_table(T).generators()
            assert len(gens) == len(expected)
            for G, E in zip(gens, expected):
                assert np.array_equal(G, E)

    def test_overflow_is_left_non_finite_without_warnings(self):
        # The configured filter turns a RuntimeWarning into an error here.
        T = new_tower([[1, 0, 0], [0, 2, 1e160], [0, 1e160, 3]])
        table = power_table(T)
        gens = table.generators()
        assert all(np.all(np.isfinite(G)) for G in gens[:3])
        assert not np.all(np.isfinite(gens[5]))
        brackets = table.bracket_matrix()
        assert np.all(np.isfinite(brackets[:3, :3]))
        assert not np.all(np.isfinite(brackets))

    def test_gemm_against_fd_oracle_on_noncommuting_family(self):
        # The GZ brackets all vanish; matrix units pair nontrivially, so this
        # comparison of the same GEMM is not one of two zeros.
        T = plain_tower(3, 66)
        units = [unit(3, k, l) for k in range(3) for l in range(3)]
        # The linear observable tr(A X) at level 3.
        linear = [SmoothFn(level=3, eval=lambda X, A=A: complex(np.trace(A @ X))) for A in units]
        B = bracket_matrix(T.top, units)
        for a in range(0, 9, 2):
            for b in range(1, 9, 3):
                expected = fd_poisson_bracket(linear[a], linear[b], T)
                assert abs(B[a, b] - expected) <= 1e-8 * (1.0 + abs(expected))


def identity_powers(T):
    """Every level's stack ``X_i^0 .. X_i^(i-1)``, by the power table's products
    from the identity."""
    top = np.ascontiguousarray(T.top)
    stacks = []
    for i in range(1, T.depth + 1):
        P = np.empty((i, i, i), dtype=np.complex128)
        P[0] = np.eye(i)
        for k in range(1, i):
            np.matmul(P[k - 1], top[:i, :i], out=P[k])
        stacks.append(P)
    return stacks


def table_traces(T):
    """Traces read off the powers with one einsum per level, the formula the
    power table used before the stacked routine existed."""
    top = np.ascontiguousarray(T.top)
    return np.concatenate(
        [np.einsum("kab,ba->k", P, top[:i, :i]) for i, P in enumerate(identity_powers(T), 1)]
    )


class TestStackTraces:
    """The stacked trace routine is bit-identical to one tower at a time."""

    def test_random_stacks_at_depth_1_to_8(self):
        rng = np.random.default_rng(70)
        for depth in range(1, 9):
            tops = rng.standard_normal((5, depth, depth)) + 1j * rng.standard_normal(
                (5, depth, depth)
            )
            traces = stack_traces(tops)
            assert traces.shape == (5, len(gz_indices(depth)))
            for top, row in zip(tops, traces):
                T = Tower(top)
                assert np.array_equal(row, table_traces(T))
                assert np.array_equal(row, power_table(T).traces())

    @pytest.mark.parametrize("depth", [3, 6, 8])
    def test_flowed_stacks(self, depth):
        T = theta_tower(depth, 71, 0.3)
        grid = [-2.0, -0.5, 0.0, 1.0, 2.0]
        for idx in gz_indices(depth - 1)[:: max(1, depth - 3)]:
            tops, errors = index_flows(T, idx, grid)
            assert errors == [None] * len(grid)
            traces = stack_traces(tops)
            for top, row in zip(tops, traces):
                assert np.array_equal(row, table_traces(Tower(top)))

    def test_concatenated_stack_is_its_parts(self):
        # Conserve reads every flow of a level in one pass: no row may depend
        # on which other towers share its stack.
        T = theta_tower(8, 72, 0.3)
        grid = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
        table = power_table(T)
        parts = [flow_stack(table.top, [G], grid)[0] for G in table.gradients[6]]
        parts.append(parts[0][:1])
        whole = stack_traces(np.concatenate(parts))
        assert np.array_equal(whole, np.concatenate([stack_traces(p) for p in parts]))

    def test_overflow_is_left_non_finite_without_warnings(self):
        # The configured filter turns a RuntimeWarning into an error here.
        top = np.array([[1, 0, 0], [0, 2, 1e160], [0, 1e160, 3]], dtype=complex)
        traces = stack_traces(np.stack([top, top]))
        assert np.all(np.isfinite(traces[:, :3]))
        assert not np.all(np.isfinite(traces[:, 3:]))


class TestLevelPairings:
    """One GEMM per level against the per-pair glued form at that level."""

    @pytest.mark.parametrize(
        "depth,seed,scale", [(1, 72, 0.5), (3, 73, 0.5), (6, 74, 0.4), (8, 75, 0.3)]
    )
    def test_blocks_match_omega_inf(self, depth, seed, scale):
        T = theta_tower(depth, seed, scale)
        table = power_table(T)
        idxs = gz_indices(depth)
        tangents = [TowerTangent(T, G.shape[0], G) for G in table.generators()]
        norms = [0.0] + [np.linalg.norm(T.level(n), 2) for n in range(1, depth + 1)]
        blocks = table.level_pairings()
        assert len(blocks) == depth
        for k, block in enumerate(blocks, 1):
            first = k * (k - 1) // 2
            assert block.shape == (k, first + k)
            for r in range(k):
                b = first + r
                for a in range(first + k):
                    expected = omega_inf(T, tangents[b], tangents[a])
                    bound = 1.0 + norms[k] ** (idxs[a].i + idxs[b].i)
                    assert abs(block[r, a] - expected) <= 1e-13 * bound
