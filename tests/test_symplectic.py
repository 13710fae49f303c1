import numpy as np
import pytest

from gztower import gz, matcore, regularity, symplectic
from gztower.gz import gz_indices, power_table
from gztower.matcore import commutator, embed, krylov_basis, spectrum_split
from gztower.oracles import (
    TowerTangent,
    bracket_matrix,
    gz_hamiltonian,
    kk_form,
    omega_inf,
    orbit_tangents_A,
    rank_split,
)
from gztower.symplectic import ISOTROPY_RTOL, lagrangian_check, match_residual
from gztower.tower import Tower, random_entries

from conftest import diag_tower, pairing_matrix, plain_tower, theta_tower, unit


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
        V = TowerTangent(T, 2, unit(2, 0, 1))
        assert omega_inf(T, V, V) == 0

    def test_antisymmetry(self):
        T = plain_tower(4, 201)
        V1 = TowerTangent(T, 2, unit(2, 0, 1))
        V2 = TowerTangent(T, 3, unit(3, 2, 0))
        a = omega_inf(T, V1, V2)
        b = omega_inf(T, V2, V1)
        assert abs(a + b) <= 1e-14 * (1 + abs(a))

    def test_level_independence(self):
        # Evaluating at the minimal level or any deeper one agrees.
        T = plain_tower(5, 202)
        V1 = TowerTangent(T, 2, unit(2, 0, 1))
        V2 = TowerTangent(T, 2, unit(2, 1, 0))
        vals = []
        for k in (2, 3, 4, 5):
            vals.append(kk_form(T.level(k), embed(V1.generator, k), embed(V2.generator, k)))
        scale = 1.0 + abs(vals[0])
        assert max(abs(v - vals[0]) for v in vals) <= 1e-12 * scale

    def test_depth2_direct_trace(self):
        T = theta_tower(2, 210)
        V1 = TowerTangent(T, 2, unit(2, 0, 1))
        V2 = TowerTangent(T, 2, unit(2, 1, 0))
        expected = kk_form(T.level(2), unit(2, 0, 1), unit(2, 1, 0))
        assert omega_inf(T, V1, V2) == expected

    def test_quotient_well_defined(self):
        # Adding a representative that is degenerate at the evaluation level
        # ([embed(Z0, k), X(k)] = 0) moves the pairing by rounding only.
        T = theta_tower(4, 211)
        V1 = TowerTangent(T, 4, unit(4, 0, 2))
        V2 = TowerTangent(T, 4, unit(4, 1, 3))
        base = omega_inf(T, V1, V2)
        # X_4 is regular, so its Arnoldi basis spans its centralizer.
        centralizer, _ = krylov_basis(T.level(4))
        assert len(centralizer) == 4
        for Z0 in centralizer:
            shifted = TowerTangent(T, 4, V1.generator + Z0)
            scale = 1.0 + abs(base) + np.abs(T.top).max()
            assert abs(omega_inf(T, shifted, V2) - base) <= 1e-10 * scale

    def test_quotient_well_defined_mixed_levels(self):
        # On a diagonal tower the unit E_11 commutes with every level, so it
        # is degenerate at any evaluation depth, including deeper ones.
        T = diag_tower([1.0, 2.0, 3.0, 4.0])
        V1 = TowerTangent(T, 2, unit(2, 0, 1))
        V2 = TowerTangent(T, 4, unit(4, 1, 3))
        base = omega_inf(T, V1, V2)
        shifted = TowerTangent(T, 2, V1.generator + unit(2, 0, 0))
        assert abs(omega_inf(T, shifted, V2) - base) <= 1e-13 * (1 + abs(base))


class TestMatchResidual:
    """The stacked gluing defect: one residual per pair of representatives."""

    def test_diagonal_tower_units(self):
        T = diag_tower([1.0, 2.0, 3.0])
        residuals = match_residual(T, unit(2, 0, 1)[None], unit(2, 1, 0)[None], 2)
        assert residuals.shape == (1,)
        assert residuals[0] <= 1e-15

    def test_equal_reps_exact_zero(self):
        T = plain_tower(4, 203)
        Z = np.stack([unit(3, 0, 1), unit(3, 1, 2)])
        assert np.array_equal(match_residual(T, Z, Z, 3), np.zeros(2))

    def test_random_draws_small(self):
        # Each slice's residual is its own, whatever else shares its stack.
        rng = np.random.default_rng(2)
        for seed in range(5):
            T = plain_tower(5, 220 + seed)
            for n in range(1, 5):
                Z1 = random_entries(rng, (20, n, n), 1.0)
                Z2 = random_entries(rng, (20, n, n), 1.0)
                scale = 1.0 + np.linalg.norm(T.level(n + 1), 2) * np.linalg.norm(
                    Z1, 2, axis=(1, 2)
                ) * np.linalg.norm(Z2, 2, axis=(1, 2))
                residuals = match_residual(T, Z1, Z2, n)
                assert np.all(residuals <= 1e-12 * scale)
                for r in (0, 7, 19):
                    alone = match_residual(T, Z1[r : r + 1], Z2[r : r + 1], n)
                    assert alone[0] == residuals[r]

    def test_level_bounds(self):
        T = plain_tower(3, 204)
        with pytest.raises(IndexError):
            match_residual(T, unit(3, 0, 1)[None], unit(3, 1, 0)[None], 3)
        with pytest.raises(ValueError):
            match_residual(T, unit(2, 0, 1)[None], unit(2, 1, 0)[None], 1)


class TestAnchor:
    def test_diagonal_tower_diagonal_covector_is_zero(self):
        T = diag_tower([1.0, 2.0, 3.0])
        V = TowerTangent(T, 1, unit(1, 0, 0))
        for k in (1, 2, 3):
            assert np.abs(V.value(k)).max() == 0

    def test_own_level_vanishes_deeper_does_not(self):
        T = theta_tower(4, 212)
        V = TowerTangent(T, 2, T.level(2))
        assert np.abs(V.value(2)).max() <= 1e-14 * (1 + np.abs(T.top).max() ** 2)
        assert np.abs(V.value(4)).max() > 1e-6

    def test_generator_is_covector(self):
        T = plain_tower(3, 205)
        x = unit(2, 0, 1)
        V = TowerTangent(T, 2, x)
        assert np.array_equal(V.generator, x)
        expected = -commutator(embed(x, 3), T.level(3))
        assert np.array_equal(V.value(3), expected)

    def test_anchor_spans_orbit_tangents(self):
        T = theta_tower(3, 213)
        anchors = []
        for k in range(3):
            for l in range(3):
                anchors.append(TowerTangent(T, 3, unit(3, k, l)).value(3))
        g_values = [commutator(unit(3, k, l), T.top) for k in range(3) for l in range(3)]
        assert rank_split(anchors)[0] == rank_split(g_values)[0] == 6


class TestIsotropy:
    """The Lagrangian pairings of the generators below the top level, under their certificate."""

    def test_single_tangent(self):
        # At depth 2 the abelian family is one tangent: there is no pair.
        report = lagrangian_check(theta_tower(2, 206))
        assert report.verdict == "true" and report.max_pairing == 0

    def test_abelian_family_isotropic(self):
        for depth in (3, 4, 5):
            T = theta_tower(depth, 230 + depth)
            fam = orbit_tangents_A(T)
            gen_norm = max(np.linalg.norm(v.generator) for v in fam)
            scale = 1.0 + 2.0 * np.linalg.norm(T.top) * gen_norm**2
            assert lagrangian_check(T).max_pairing <= 1e-8 * scale

    def test_full_orbit_family_not_isotropic(self):
        # On 2x2: tr(diag(1,-1) [E_12, E_21]) = 2, an explicitly nonzero
        # pairing of two orbit tangents.
        X = np.diag([1.0, -1.0]).astype(complex)
        assert bracket_matrix(X, [unit(2, 0, 1), unit(2, 1, 0)])[0, 1] == 2

    def test_batched_matches_per_pair_maximum(self):
        for depth, seed in ((3, 233), (5, 235), (8, 238)):
            T = theta_tower(depth, seed, 0.5)
            # A non-isotropic family too, so the maximum is not rounding noise.
            units = [
                TowerTangent(T, depth, unit(depth, k, l))
                for k in range(2)
                for l in range(depth)
            ]
            abelian = orbit_tangents_A(T)
            # The oracle's block of the generators below the top level, the
            # pairs the check certifies.
            block = pairing_matrix(T)[: len(abelian), : len(abelian)]
            for fam in (abelian, units, abelian[:3] + units[:4]):
                per_pair = max(
                    abs(omega_inf(T, fam[a], fam[b]))
                    for a in range(len(fam))
                    for b in range(a + 1, len(fam))
                )
                gen_norm = max(np.linalg.norm(v.generator) for v in fam)
                scale = 1.0 + 2.0 * np.linalg.norm(T.top) * gen_norm**2
                P = block if fam is abelian else bracket_matrix(T.top, [v.generator for v in fam])
                upper = np.triu_indices(len(fam), 1)
                assert abs(np.abs(P[upper]).max() - per_pair) <= 1e-13 * scale
                assert np.abs(P + P.T).max() <= 1e-13 * scale
                for a in range(len(fam)):
                    for b in range(a + 1, len(fam)):
                        assert abs(P[a, b] - omega_inf(T, fam[a], fam[b])) <= 1e-13 * scale
                if fam is abelian:
                    # The check reports the certificate's maximum, an upper bound.
                    commutators, norms = power_table(T).residuals()
                    certified = max(
                        norms[a] * commutators[b] for b in range(len(fam)) for a in range(b)
                    )
                    max_pairing = lagrangian_check(T).max_pairing
                    assert max_pairing == certified
                    assert np.abs(P[upper]).max() <= max_pairing + 1e-13 * scale

    def test_non_finite_pairing_is_not_isotropic(self, monkeypatch):
        T = theta_tower(4, 234)
        original = gz.PowerTable.residuals

        def with_nan(table):
            # The pass's own arrays are read-only.  f[3,2] lies below the top
            # level, so its commutator norm certifies pairs the check reads.
            commutators, norms = (v.copy() for v in original(table))
            commutators[4] = np.nan
            return commutators, norms

        monkeypatch.setattr(gz.PowerTable, "residuals", with_nan)
        report = lagrangian_check(T)
        assert np.isnan(report.max_pairing)
        assert report.verdict == "false"
        assert report.to_json_dict()["max_pairing"] is None


class TestBracketFormConsistency:
    def test_gz_pairs(self):
        T = theta_tower(5, 240)
        idxs = gz_indices(5)
        B = pairing_matrix(T)
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
        om = omega_inf(T, TowerTangent(T, 3, A), TowerTangent(T, 3, B))
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

    def test_margin_G_is_the_arnoldi_margin_of_the_top(self):
        # Criterion 2's split of X_N, bit for bit; the sreg JSON leaves it out.
        T = theta_tower(4, 218)
        _, arnoldi = krylov_basis(T.top)
        assert lagrangian_check(T).margin_G == spectrum_split(arnoldi)[2]
        assert "top_arnoldi_margin" not in regularity.sreg_report(T).to_json_dict()

    def test_depth1_not_applicable(self):
        report = lagrangian_check(Tower([[1.0]]))
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

    def test_isotropy_rtol_is_the_module_constant(self):
        data = lagrangian_check(theta_tower(3, 216)).to_json_dict()
        assert data["isotropy_rtol"] == ISOTROPY_RTOL == 1e-8

    def test_rank_margins_null_when_not_applicable(self):
        data = lagrangian_check(diag_tower([1.0, 2.0, 3.0])).to_json_dict()
        assert data["margin_A"] is None and data["margin_G"] is None


class TestNoDenseOrbitFamily:
    """The check reads its ranks off strong regularity: no rank SVD, no n^2 x n^2 family."""

    DEPTH = 8

    def test_regular_tower_reads_true(self, monkeypatch):
        T = theta_tower(self.DEPTH, 219)
        # Criteria 1 and 3 rank their families; the check reads the tower's
        # one report, computed here before the refusals.
        regularity.sreg_report(T)

        def refuse(*args, **kwargs):
            raise AssertionError("dense orbit family ranked or Kronecker operator formed")

        svd = np.linalg.svd

        def svd_below_n_squared(a, *args, **kwargs):
            if max(np.shape(a)) >= self.DEPTH**2:
                raise AssertionError(f"SVD of a {np.shape(a)} family")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(symplectic, "level_splits", refuse, raising=False)
        for module in (matcore, regularity):
            monkeypatch.setattr(module, "level_splits", refuse)
        monkeypatch.setattr(np, "kron", refuse)
        monkeypatch.setattr(np.linalg, "svd", svd_below_n_squared)
        report = lagrangian_check(T)
        assert report.verdict == "true"
        assert report.rank_A == 28 and report.rank_G == 56


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
            P = bracket_matrix(T.top, [units[i] for i in basis_idx])
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
        P = bracket_matrix(T.top, [units[i] for i in basis_idx])
        for row in range(P.shape[0]):
            assert np.abs(P[row]).max() > 1e-9
