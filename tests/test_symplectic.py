import numpy as np
import pytest

from gztower.action import orbit_tangents_A
from gztower.gz import gz_hamiltonian, gz_indices, power_table
from gztower.matcore import bracket_matrix, commutator, embed, rank_split
from gztower.regularity import centralizer_basis
from gztower.symplectic import (
    anchor,
    isotropy_check,
    kk_form,
    lagrangian_check,
    match_residual,
    omega_inf,
)
from gztower.tower import new_tower, random_entries

from conftest import diag_tower, plain_tower, theta_tower, unit


class TestKKForm:
    def test_self_pairing_zero(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        Z = rng.standard_normal((3, 3)) + 0j
        assert kk_form(M, Z, Z) == 0

    def test_hand_value(self):
        # tr(diag(1,-1) [E_12, E_21]) = tr(diag(1,-1) diag(1,-1)) = 2.
        M = np.diag([1.0, -1.0]).astype(complex)
        assert kk_form(M, unit(2, 0, 1), unit(2, 1, 0)) == 2

    def test_degenerate_direction(self):
        # [Z1, M] = 0 makes the pairing vanish: well-defined on the quotient.
        M = np.diag([1.0, 2.0]).astype(complex)
        Z1 = np.diag([3.0, 4.0]).astype(complex)  # commutes with M
        rng = np.random.default_rng(1)
        for _ in range(5):
            Z2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            assert abs(kk_form(M, Z1, Z2)) <= 1e-13


class TestOmegaInf:
    def test_self_zero(self):
        T = plain_tower(3, 200)
        V = anchor(T, unit(2, 0, 1))
        assert omega_inf(T, V, V) == 0

    def test_antisymmetry(self):
        T = plain_tower(4, 201)
        V1 = anchor(T, unit(2, 0, 1))
        V2 = anchor(T, unit(3, 2, 0))
        a = omega_inf(T, V1, V2)
        b = omega_inf(T, V2, V1)
        assert abs(a + b) <= 1e-14 * (1 + abs(a))

    def test_level_independence(self):
        # Evaluating at the minimal level or any deeper one agrees.
        T = plain_tower(5, 202)
        V1 = anchor(T, unit(2, 0, 1))
        V2 = anchor(T, unit(2, 1, 0))
        vals = []
        for k in (2, 3, 4, 5):
            vals.append(kk_form(T.level(k), embed(V1.generator, k), embed(V2.generator, k)))
        scale = 1.0 + abs(vals[0])
        assert max(abs(v - vals[0]) for v in vals) <= 1e-12 * scale

    def test_depth2_direct_trace(self):
        T = theta_tower(2, 210)
        V1 = anchor(T, unit(2, 0, 1))
        V2 = anchor(T, unit(2, 1, 0))
        expected = kk_form(T.level(2), unit(2, 0, 1), unit(2, 1, 0))
        assert omega_inf(T, V1, V2) == expected

    def test_quotient_well_defined(self):
        # Adding a representative that is degenerate at the evaluation level
        # ([embed(Z0, k), X(k)] = 0) moves the pairing by rounding only.
        T = theta_tower(4, 211)
        V1 = anchor(T, unit(4, 0, 2))
        V2 = anchor(T, unit(4, 1, 3))
        base = omega_inf(T, V1, V2)
        for Z0 in centralizer_basis(T.level(4)):
            shifted = anchor(T, V1.generator + Z0)
            scale = 1.0 + abs(base) + np.abs(T.top).max()
            assert abs(omega_inf(T, shifted, V2) - base) <= 1e-10 * scale

    def test_quotient_well_defined_mixed_levels(self):
        # On a diagonal tower the unit E_11 commutes with every level, so it
        # is degenerate at any evaluation depth, including deeper ones.
        T = diag_tower([1.0, 2.0, 3.0, 4.0])
        V1 = anchor(T, unit(2, 0, 1))
        V2 = anchor(T, unit(4, 1, 3))
        base = omega_inf(T, V1, V2)
        shifted = anchor(T, V1.generator + unit(2, 0, 0))
        assert abs(omega_inf(T, shifted, V2) - base) <= 1e-13 * (1 + abs(base))


class TestMatchResidual:
    def test_diagonal_tower_units(self):
        T = diag_tower([1.0, 2.0, 3.0])
        assert match_residual(T, unit(2, 0, 1), unit(2, 1, 0), 2) <= 1e-15

    def test_equal_reps_exact_zero(self):
        T = plain_tower(4, 203)
        Z = unit(3, 0, 1)
        assert match_residual(T, Z, Z, 3) == 0

    def test_random_draws_small(self):
        rng = np.random.default_rng(2)
        for seed in range(5):
            T = plain_tower(5, 220 + seed)
            for _ in range(20):
                n = int(rng.integers(1, 5))
                Z1 = random_entries(rng, (n, n), 1.0)
                Z2 = random_entries(rng, (n, n), 1.0)
                scale = 1.0 + np.linalg.norm(T.level(n + 1), 2) * np.linalg.norm(
                    Z1, 2
                ) * np.linalg.norm(Z2, 2)
                assert match_residual(T, Z1, Z2, n) <= 1e-12 * scale

    def test_level_bounds(self):
        T = plain_tower(3, 204)
        with pytest.raises(IndexError):
            match_residual(T, unit(3, 0, 1), unit(3, 1, 0), 3)


class TestAnchor:
    def test_diagonal_tower_diagonal_covector_is_zero(self):
        T = diag_tower([1.0, 2.0, 3.0])
        V = anchor(T, unit(1, 0, 0))
        for k in (1, 2, 3):
            assert np.abs(V.value(k)).max() == 0

    def test_own_level_vanishes_deeper_does_not(self):
        T = theta_tower(4, 212)
        V = anchor(T, T.level(2))
        assert np.abs(V.value(2)).max() <= 1e-14 * (1 + np.abs(T.top).max() ** 2)
        assert np.abs(V.value(4)).max() > 1e-6

    def test_generator_is_covector(self):
        T = plain_tower(3, 205)
        x = unit(2, 0, 1)
        V = anchor(T, x)
        assert V.base_level == 2 and np.array_equal(V.generator, x)
        expected = -commutator(embed(x, 3), T.level(3))
        assert np.array_equal(V.value(3), expected)

    def test_anchor_spans_orbit_tangents(self):
        T = theta_tower(3, 213)
        anchors = []
        for k in range(3):
            for l in range(3):
                anchors.append(anchor(T, unit(3, k, l)).value(3))
        g_values = [commutator(unit(3, k, l), T.top) for k in range(3) for l in range(3)]
        assert rank_split(anchors)[0] == rank_split(g_values)[0] == 6


class TestIsotropy:
    def test_single_tangent(self):
        T = plain_tower(3, 206)
        V = anchor(T, unit(2, 0, 1))
        assert isotropy_check(T, [V]) == 0

    def test_abelian_family_isotropic(self):
        for depth in (3, 4, 5):
            T = theta_tower(depth, 230 + depth)
            fam = orbit_tangents_A(T)
            gen_norm = max(np.linalg.norm(v.generator) for v in fam)
            scale = 1.0 + 2.0 * np.linalg.norm(T.top) * gen_norm**2
            assert isotropy_check(T, fam) <= 1e-8 * scale

    def test_full_orbit_family_not_isotropic(self):
        # On 2x2: tr(diag(1,-1) [E_12, E_21]) = 2, an explicitly nonzero
        # pairing of two orbit tangents.
        T = new_tower(np.diag([1.0, -1.0]).astype(complex))
        fam = [anchor(T, unit(2, 0, 1)), anchor(T, unit(2, 1, 0))]
        assert isotropy_check(T, fam) == 2

    def test_batched_matches_per_pair_maximum(self):
        for depth, seed in ((3, 233), (5, 235), (8, 238)):
            T = theta_tower(depth, seed, 0.5)
            # A non-isotropic family too, so the maximum is not rounding noise.
            units = [
                anchor(T, unit(depth, k, l))
                for k in range(2)
                for l in range(depth)
            ]
            abelian = orbit_tangents_A(T)
            for fam in (abelian, units, abelian[:3] + units[:4]):
                per_pair = max(
                    abs(omega_inf(T, fam[a], fam[b]))
                    for a in range(len(fam))
                    for b in range(a + 1, len(fam))
                )
                gen_norm = max(np.linalg.norm(v.generator) for v in fam)
                scale = 1.0 + 2.0 * np.linalg.norm(T.top) * gen_norm**2
                assert abs(isotropy_check(T, fam) - per_pair) <= 1e-13 * scale
                P = bracket_matrix(T.top, [v.generator for v in fam])
                assert np.abs(P + P.T).max() <= 1e-13 * scale
                for a in range(len(fam)):
                    for b in range(a + 1, len(fam)):
                        assert abs(P[a, b] - omega_inf(T, fam[a], fam[b])) <= 1e-13 * scale

    def test_non_finite_pairing_is_not_isotropic(self, monkeypatch):
        from gztower import symplectic

        T = theta_tower(4, 234)
        fam = orbit_tangents_A(T)
        original = symplectic.bracket_matrix

        def with_nan(X, gens):
            out = original(X, gens)
            out[1, 4] = np.nan
            return out

        monkeypatch.setattr(symplectic, "bracket_matrix", with_nan)
        assert np.isnan(isotropy_check(T, fam))
        assert lagrangian_check(T).verdict == "false"


class TestBracketFormConsistency:
    def test_gz_pairs(self):
        T = theta_tower(5, 240)
        idxs = gz_indices(5)
        B = power_table(T).bracket_matrix()
        for a in range(len(idxs)):
            for b in range(a, len(idxs)):
                i1, i2 = idxs[a], idxs[b]
                n = max(i1.i, i2.i)
                bound = 1.0 + np.linalg.norm(T.level(n), 2) ** (i1.i + i2.i)
                br = B[a, b]
                om = omega_inf(T, gz_hamiltonian(T, i1), gz_hamiltonian(T, i2))
                assert abs(br - om) <= 1e-8 * bound

    def test_non_commuting_observables(self):
        # Linear observables do not commute; the bracket still equals the
        # form on their Hamiltonian tangents.
        T = plain_tower(3, 207)
        A, B = unit(3, 0, 1), unit(3, 1, 2)
        br = bracket_matrix(T.level(3), [A, B])[0, 1]
        om = omega_inf(T, anchor(T, A), anchor(T, B))
        assert abs(br) > 1e-8  # genuinely nonzero pairing
        assert abs(br - om) <= 1e-12 * (1 + abs(br))


class TestLagrangian:
    def test_depth2_theta(self):
        report = lagrangian_check(theta_tower(2, 214))
        assert report.verdict == "true"
        assert report.rank_A == 1 and report.rank_G == 2

    def test_depth5_theta(self):
        report = lagrangian_check(theta_tower(5, 215))
        assert report.verdict == "true"
        assert report.rank_A == 10 and report.rank_G == 20

    def test_diagonal_not_applicable(self):
        report = lagrangian_check(diag_tower([1.0, 2.0, 3.0]))
        assert report.verdict == "not applicable"

    def test_depth1_not_applicable(self):
        report = lagrangian_check(new_tower([[1.0]]))
        assert report.verdict == "not applicable"

    def test_json_shape(self):
        data = lagrangian_check(theta_tower(3, 216)).to_json_dict()
        assert set(data) >= {"depth", "rank_A", "rank_G", "max_pairing", "verdict", "tolerance"}
        assert data["verdict"] == "true"

    def test_rank_margins_reported(self):
        data = lagrangian_check(theta_tower(4, 218)).to_json_dict()
        for key in ("margin_A", "margin_G"):
            assert isinstance(data[key], float) and np.isfinite(data[key])
            assert data[key] > 10

    def test_rank_margins_null_when_not_applicable(self):
        data = lagrangian_check(diag_tower([1.0, 2.0, 3.0])).to_json_dict()
        assert data["margin_A"] is None and data["margin_G"] is None


class TestNondegeneracy:
    def test_pairing_matrix_full_rank_on_orbit_basis(self):
        for depth in (2, 3, 4):
            T = theta_tower(depth, 250 + depth)
            # Select an independent orbit-tangent basis from the matrix units.
            units = [unit(depth, k, l) for k in range(depth) for l in range(depth)]
            values = [commutator(u, T.top) for u in units]
            basis_idx = []
            for idx in range(len(units)):
                trial = [values[i] for i in basis_idx] + [values[idx]]
                if rank_split(trial)[0] == len(trial):
                    basis_idx.append(idx)
            expected = depth * depth - depth
            assert len(basis_idx) == expected
            fam = [anchor(T, units[i]) for i in basis_idx]
            P = bracket_matrix(T.top, [v.generator for v in fam])
            s = np.linalg.svd(P, compute_uv=False)
            assert int((s > 1e-9 * s[0]).sum()) == expected

    def test_every_basis_tangent_pairs_nontrivially(self):
        T = theta_tower(3, 217)
        units = [unit(3, k, l) for k in range(3) for l in range(3)]
        values = [commutator(u, T.top) for u in units]
        basis_idx = []
        for idx in range(len(units)):
            trial = [values[i] for i in basis_idx] + [values[idx]]
            if rank_split(trial)[0] == len(trial):
                basis_idx.append(idx)
        fam = [anchor(T, units[i]) for i in basis_idx]
        P = bracket_matrix(T.top, [v.generator for v in fam])
        for row in range(P.shape[0]):
            assert np.abs(P[row]).max() > 1e-9
