import json

import numpy as np
import pytest

from gztower.action import (
    AParams,
    _action_product,
    _conjugate,
    _nonzero_terms,
    a_act,
    a_act_stepwise,
    flow_stack,
    params_from_json,
    params_to_json,
    random_params,
)
from gztower.gz import GZIndex, gz_indices, power_table
from gztower.matcore import embed, mat_exp
from gztower.oracles import gz_hamiltonian, orbit_tangents_A, orbit_tangents_G, rank_split
from gztower.tower import Tower

from conftest import diag_tower, index_flow, index_flows, plain_tower, theta_tower, zero_params


class TestAParams:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            AParams(3, ((1.0,),))  # missing second row
        with pytest.raises(ValueError):
            AParams(2, ((1.0, 2.0),))  # first row too long

    def test_total_count(self):
        a = zero_params(5)
        assert sum(len(row) for row in a.t) == 10

    def test_addition(self):
        a = AParams(3, ((1.0,), (2.0, 3.0)))
        b = AParams(3, ((0.5j,), (1.0, -1.0)))
        c = a + b
        assert c.get(1, 1) == 1.0 + 0.5j
        assert c.get(2, 2) == 2.0

    def test_json_roundtrip(self):
        rng = np.random.default_rng(0)
        a = random_params(rng, 4, 0.7)
        back = params_from_json(params_to_json(a))
        assert back == a
        data = json.loads(params_to_json(a))
        assert data["n"] == 4 and len(data["t"]) == 3


class TestAAct:
    def test_zero_params_is_exact_identity(self):
        T = plain_tower(4, 100)
        acted = a_act(zero_params(4), T)
        assert np.array_equal(acted.top, T.top)

    def test_closed_form_n2(self):
        # One parameter at level 1: conjugation by diag(e^s, 1) sends
        # [[a,b],[c,d]] to [[a, e^s b], [e^{-s} c, d]].
        a, b, c, d = 1.0, 2.0 - 1j, 0.5j, -3.0
        s = 0.37 + 0.21j
        T = Tower([[a, b], [c, d]])
        acted = a_act(AParams(2, ((s,),)), T)
        expected = np.array([[a, np.exp(s) * b], [np.exp(-s) * c, d]])
        assert np.abs(acted.top - expected).max() <= 1e-12 * (1 + np.abs(expected).max())

    def test_group_law(self):
        rng = np.random.default_rng(1)
        for depth in (3, 4, 5, 6):
            T = theta_tower(depth, 110 + depth)
            a = random_params(rng, depth, 0.4)
            b = random_params(rng, depth, 0.4)
            lhs = a_act(b, a_act(a, T)).top
            rhs = a_act(a + b, T).top
            scale = 1.0 + np.abs(rhs).max()
            assert np.abs(lhs - rhs).max() <= 1e-8 * scale

    def test_stepwise_application_order_independent(self):
        rng = np.random.default_rng(2)
        T = theta_tower(5, 115)
        a = random_params(rng, 5, 0.4)
        reference = a_act(a, T).top
        order = gz_indices(4)
        for perm_seed in range(3):
            perm_rng = np.random.default_rng(perm_seed)
            perm = [order[int(k)] for k in perm_rng.permutation(len(order))]
            stepped = a_act_stepwise(a, T, perm).top
            scale = 1.0 + np.abs(reference).max()
            assert np.abs(stepped - reference).max() <= 1e-8 * scale

    def test_observables_invariant(self):
        rng = np.random.default_rng(3)
        for depth in (3, 5):
            T = theta_tower(depth, 120 + depth)
            acted = a_act(random_params(rng, depth, 0.5), T)
            after = power_table(acted).traces()
            for idx, base, value in zip(gz_indices(depth), power_table(T).traces(), after):
                bound = 1.0 + np.linalg.norm(T.level(idx.i), 2) ** idx.i
                assert abs(value - base) <= 1e-8 * bound

    def test_depth_precondition(self):
        T = plain_tower(2, 101)
        with pytest.raises(IndexError):
            a_act(zero_params(4), T)
        # n = depth + 1 is allowed: factors use corners up to depth.
        a_act(zero_params(3), T)


class TestActionCost:
    """One matrix exponential per nonzero parameter, whatever the depth."""

    @pytest.fixture
    def expm_calls(self, monkeypatch):
        calls = []

        def counting(M):
            calls.append(M.shape)
            return mat_exp(M)

        monkeypatch.setattr("gztower.action.mat_exp", counting)
        return calls

    def test_one_call_per_nonzero_parameter(self, expm_calls):
        rng = np.random.default_rng(7)
        T = theta_tower(6, 150)
        a = random_params(rng, 6, 0.4)
        rows = [[t if rng.random() < 0.5 else 0j for t in row] for row in a.t]
        a = AParams(6, tuple(tuple(r) for r in rows))
        nonzero = sum(t != 0 for row in a.t for t in row)
        assert 0 < nonzero < 15
        a_act(a, T)
        assert len(expm_calls) == nonzero

    def test_zero_params_make_no_calls(self, expm_calls):
        # Powers of this corner overflow by X_3^2; zero parameters never form them.
        T = Tower(np.full((4, 4), 1e200, dtype=complex))
        acted = a_act(zero_params(4), T)
        assert expm_calls == []
        assert np.array_equal(acted.top, T.top)

    def test_stepwise_depth_16_makes_one_call_per_step(self, expm_calls):
        rng = np.random.default_rng(8)
        T = plain_tower(16, 151, 0.2)
        a = random_params(rng, 16, 0.1)
        order = gz_indices(15)
        perm = [order[int(k)] for k in rng.permutation(len(order))]
        a_act_stepwise(a, T, perm)
        assert len(expm_calls) == 120


class TestOverflow:
    """A conjugate that leaves the double range raises OverflowError."""

    TOWER = [[0.0, 1e306], [0.0, 0.0]]

    @pytest.mark.parametrize(
        "move",
        [
            lambda T: a_act(AParams(2, ((20.0,),)), T),
            lambda T: index_flow(T, GZIndex(1, 1), -20.0),
            lambda T: gl_adjoint(np.diag([1e4, 1.0]).astype(complex), T),
        ],
        ids=["a_act", "flow", "gl_adjoint"],
    )
    def test_non_finite_conjugate(self, move):
        with pytest.raises(OverflowError):
            move(Tower(self.TOWER))


def gl_adjoint(g, T):
    """The adjoint action of diag(g, Id) on the top: the conjugation the abelian action makes."""
    G = np.eye(T.depth, dtype=complex)
    G[: len(g), : len(g)] = g
    return Tower(_conjugate(G, T.top))


class TestGLAdjoint:
    def test_identity(self):
        T = plain_tower(3, 102)
        assert np.array_equal(gl_adjoint(np.eye(3, dtype=complex), T).top, T.top)

    def test_deep_traces_invariant(self):
        rng = np.random.default_rng(4)
        T = plain_tower(4, 103)
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        acted = gl_adjoint(np.eye(2, dtype=complex) + 0.3 * m, T)
        # Similarity preserves every trace power of the deepest level.
        base = power_table(T).traces()[-4:]
        deep = power_table(acted).traces()[-4:]
        assert np.all(np.abs(deep - base) <= 1e-10 * (1 + np.abs(base)))

    def test_permutation_conjugation_permutes_diagonal(self):
        T = diag_tower([1.0, 2.0, 3.0])
        P = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
        acted = gl_adjoint(P, T)
        assert np.allclose(acted.top, np.diag([2.0, 1.0, 3.0]), atol=1e-14)

    def test_singular_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            gl_adjoint(np.zeros((2, 2), dtype=complex), plain_tower(3, 102))


class TestFlow:
    def test_time_zero_identity(self):
        T = plain_tower(4, 104)
        assert np.array_equal(index_flow(T, GZIndex(2, 1), 0.0).top, T.top)

    def test_derivative_matches_hamiltonian(self):
        T = theta_tower(4, 130)
        h = 1e-6
        for idx in gz_indices(3):
            plus = index_flow(T, idx, h).top
            minus = index_flow(T, idx, -h).top
            numeric = (plus - minus) / (2 * h)
            analytic = gz_hamiltonian(T, idx).value(4)
            scale = 1.0 + np.abs(analytic).max()
            assert np.abs(numeric - analytic).max() <= 1e-6 * scale

    def test_closed_form_level_one(self):
        # Flowing the first coordinate conjugates by diag(e^{-s}, 1).
        a, b, c, d = 0.3, 1.0 + 1j, -2.0, 0.9
        s = 0.45
        T = Tower([[a, b], [c, d]])
        out = index_flow(T, GZIndex(1, 1), s).top
        expected = np.array([[a, np.exp(-s) * b], [np.exp(s) * c, d]])
        assert np.abs(out - expected).max() <= 1e-13

    def test_conserves_all_observables(self):
        T = theta_tower(5, 131, 0.4)
        base = power_table(T).traces()
        for idx in gz_indices(4):
            for t in (-2.0, -0.5, 1.0, 2.0):
                values = power_table(index_flow(T, idx, t)).traces()
                assert np.all(np.abs(values - base) <= 1e-8 * (1 + np.abs(base)))

    def test_fixes_own_corner(self):
        T = theta_tower(5, 132, 0.4)
        for idx in gz_indices(4):
            flowed = index_flow(T, idx, 1.7)
            scale = 1.0 + np.abs(T.level(idx.i)).max()
            assert np.abs(flowed.level(idx.i) - T.level(idx.i)).max() <= 1e-12 * scale

    def test_top_level_flow_acts_trivially(self):
        T = theta_tower(3, 133, 0.4)
        flowed = index_flow(T, GZIndex(3, 2), 0.8)
        scale = 1.0 + np.abs(T.top).max()
        assert np.abs(flowed.top - T.top).max() <= 1e-10 * scale

    def test_flow_equals_action_with_negated_time(self):
        T = theta_tower(4, 134)
        idx = GZIndex(2, 2)
        t = 0.6 - 0.2j
        rows = [list(row) for row in zero_params(4).t]
        rows[idx.i - 1][idx.j - 1] = -t
        via_action = a_act(AParams(4, tuple(tuple(r) for r in rows)), T)
        via_flow = index_flow(T, idx, t)
        assert np.abs(via_action.top - via_flow.top).max() <= 1e-12 * (
            1 + np.abs(via_flow.top).max()
        )


class TestFlowStack:
    """A stack of times is the single-time flow, slice by slice."""

    GRID = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 0.3 - 0.7j]

    def test_flow_equals_its_slice(self):
        T = theta_tower(6, 135, 0.4)
        for idx in gz_indices(6)[::4]:
            tops, errors = index_flows(T, idx, self.GRID)
            assert tops.shape == (len(self.GRID), 6, 6)
            assert errors == [None] * len(self.GRID)
            for t, top in zip(self.GRID, tops):
                assert np.array_equal(index_flow(T, idx, t).top, top)

    @pytest.mark.parametrize(
        "top,idx,grid,bad,error",
        [
            # exp(20) * 1e300 leaves the double range in the conjugate.
            ([[0.0, 1e300], [0.0, 0.0]], GZIndex(1, 1), [0.0, 1.0, -20.0, 2.0], 2, OverflowError),
            # exp(-800) underflows to 0, so the conjugator is exactly singular.
            (
                [[0.5, 0.25], [0.25, 0.5]],
                GZIndex(1, 1),
                [0.0, 800.0, 1.0],
                1,
                np.linalg.LinAlgError,
            ),
            # exp(800) itself overflows.
            (
                [[400.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                GZIndex(2, 2),
                [0.0, 0.5, -1.0],
                2,
                OverflowError,
            ),
        ],
        ids=["conjugate-overflow", "singular-conjugator", "expm-overflow"],
    )
    def test_one_failing_time_fails_only_its_flow(self, top, idx, grid, bad, error):
        T = Tower(top)
        tops, errors = index_flows(T, idx, grid)
        assert [e is None for e in errors] == [s != bad for s in range(len(grid))]
        assert isinstance(errors[bad], error)
        with pytest.raises(error, match=str(errors[bad])):
            index_flow(T, idx, grid[bad])
        for s, t in enumerate(grid):
            if s != bad:
                assert np.array_equal(index_flow(T, idx, t).top, tops[s])

    def test_index_out_of_depth(self):
        T = plain_tower(2, 136)
        with pytest.raises(IndexError):
            flow_stack(T.top, [np.eye(3)], [0.0])
        with pytest.raises(IndexError):
            index_flow(T, GZIndex(3, 1), 0.0)


class TestOrbitTangents:
    def test_counts(self):
        T = plain_tower(2, 105)
        assert len(orbit_tangents_A(T)) == 1
        assert len(orbit_tangents_G(T)) == 4

    def test_depth_one_rejected(self):
        with pytest.raises(ValueError):
            orbit_tangents_A(Tower([[1.0]]))

    def test_rank_at_sreg(self):
        for depth in (3, 4, 5):
            T = theta_tower(depth, 140 + depth)
            values = [v.value(depth) for v in orbit_tangents_A(T)]
            assert rank_split(values)[0] == depth * (depth - 1) // 2

    def test_rank_at_diagonal_zero(self):
        T = diag_tower([1.0, 2.0, 3.0])
        values = [v.value(3) for v in orbit_tangents_A(T)]
        assert rank_split(values)[0] == 0

    def test_g_rank_at_regular(self):
        T = theta_tower(4, 144)
        values = [v.value(4) for v in orbit_tangents_G(T)]
        assert rank_split(values)[0] == 4 * 4 - 4

    def test_g_rank_at_identity_zero(self):
        T = Tower(np.eye(3, dtype=complex))
        values = [v.value(3) for v in orbit_tangents_G(T)]
        assert rank_split(values)[0] == 0

    def test_abelian_tangents_inside_orbit_tangents(self):
        T = theta_tower(4, 145)
        a_values = [v.value(4) for v in orbit_tangents_A(T)]
        g_values = [v.value(4) for v in orbit_tangents_G(T)]
        assert rank_split(a_values + g_values)[0] == rank_split(g_values)[0]


def zn_element(T, a):
    """The element of Z(X_1) ... Z(X_(N-1)) whose adjoint action is ``a_act(a, T)``."""
    return _action_product(_nonzero_terms(a), T, T.depth)


class TestZnElement:
    def test_zero_params_identity(self):
        T = plain_tower(3, 106)
        g = zn_element(T, zero_params(3))
        assert np.array_equal(g, np.eye(3))

    def test_realizes_action(self):
        rng = np.random.default_rng(5)
        T = theta_tower(4, 146)
        a = random_params(rng, 4, 0.5)
        g = zn_element(T, a)
        via_adjoint = g @ T.top @ np.linalg.inv(g)
        via_action = a_act(a, T)
        scale = 1.0 + np.abs(via_action.top).max()
        assert np.abs(via_adjoint - via_action.top).max() <= 1e-9 * scale

    def test_factors_commute_with_their_corners(self):
        rng = np.random.default_rng(6)
        T = theta_tower(5, 147)
        N = T.depth
        for i in range(1, 5):
            rows = [list(row) for row in zero_params(5).t]
            for j in range(1, i + 1):
                rows[i - 1][j - 1] = complex(rng.standard_normal(), rng.standard_normal()) * 0.3
            factor = zn_element(T, AParams(5, tuple(tuple(r) for r in rows)))
            level = embed(T.level(i), N)
            res = factor @ level - level @ factor
            scale = 1.0 + np.abs(factor).max() * np.abs(level).max()
            assert np.abs(res).max() <= 1e-10 * scale
