import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gztower.matcore import commutator, corner, embed, spectra_disjoint
from gztower.oracles import TowerTangent
from gztower.tower import (
    GenerationError,
    Tower,
    random_entries,
    random_theta_tower,
    tower_from_json,
    tower_to_json,
)

from conftest import plain_tower, theta_tower


class TestTowerBasics:
    def test_identity_tower_levels(self):
        T = Tower(np.eye(3, dtype=complex))
        assert T.depth == 3
        assert np.array_equal(T.level(2), np.eye(2))

    def test_depth_one(self):
        T = Tower([[1.0]])
        assert T.depth == 1 and T.level(1)[0, 0] == 1.0

    def test_levels_are_corners(self):
        T = plain_tower(5, 11)
        for k in range(1, 6):
            assert np.array_equal(T.level(k), corner(T.top, k))

    def test_level_out_of_range(self):
        T = Tower(np.eye(2, dtype=complex))
        with pytest.raises(IndexError):
            T.level(3)
        with pytest.raises(IndexError):
            T.level(0)

    def test_corner_compatibility_all_pairs(self):
        T = plain_tower(6, 12)
        for k in range(1, 7):
            for i in range(1, k + 1):
                assert np.array_equal(corner(T.level(k), i), T.level(i))

    def test_top_is_read_only(self):
        T = plain_tower(3, 13)
        with pytest.raises(ValueError):
            T.top[0, 0] = 0.0


class TestRandomThetaTower:
    def test_depth_one_always_valid(self):
        T = random_theta_tower(1, 5, 1.0)
        assert T.depth == 1

    def test_consecutive_spectra_disjoint(self):
        T = random_theta_tower(6, 21, 0.5)
        for n in range(1, 6):
            assert spectra_disjoint(T.level(n), T.level(n + 1))

    def test_deterministic(self):
        A = random_theta_tower(5, 99, 0.7)
        B = random_theta_tower(5, 99, 0.7)
        assert np.array_equal(A.top, B.top)
        assert tower_to_json(A) == tower_to_json(B)

    def test_each_matrix_is_decomposed_once(self, monkeypatch):
        # One eigendecomposition per candidate and one for level 1: the
        # accepted level's eigenpairs serve every candidate above it, and
        # give the tower that each test computing its own gives.
        from gztower import tower

        eigs, tests = [], []
        eig, test = np.linalg.eig, tower.spectra_disjoint
        monkeypatch.setattr(np.linalg, "eig", lambda M: eigs.append(len(M)) or eig(M))
        monkeypatch.setattr(tower, "spectra_disjoint", lambda *a: tests.append(a) or test(*a))
        T = random_theta_tower(12, 21, 0.5)
        assert len(eigs) == len(tests) + 1 and len(tests) >= 11
        monkeypatch.setattr(tower, "spectra_disjoint", lambda A, B, tol, eigen: test(A, B, tol))
        assert np.array_equal(random_theta_tower(12, 21, 0.5).top, T.top)

    def test_scale_bounds_entries(self):
        T = random_theta_tower(6, 3, 0.25)
        assert np.abs(T.top).max() <= 0.25 + 1e-15

    def test_retry_exhaustion(self, monkeypatch):
        # An impossible tolerance forces every candidate to be rejected.
        from gztower import tower
        from gztower.matcore import Tolerance

        monkeypatch.setattr(tower, "MAX_RETRIES", 5)
        hopeless = Tolerance(rel=0.0, abs=1e9)
        with pytest.raises(GenerationError, match="after 5 attempts"):
            random_theta_tower(3, 0, 1.0, hopeless)

    def test_strongly_regular(self):
        # Spectrum-disjoint towers are strongly regular.
        from gztower.regularity import sreg_report

        for seed in range(4):
            report = sreg_report(theta_tower(4, seed))
            assert report.verdict == "true"


class TestTangent:
    def test_value_formula(self):
        T = plain_tower(5, 18)
        gen = np.eye(2, dtype=complex)
        V = TowerTangent(tower=T, base_level=2, generator=gen)
        for k in range(2, 6):
            expected = -commutator(embed(gen, k), T.level(k))
            assert np.array_equal(V.value(k), expected)

    def test_below_base_is_corner_exactly(self):
        T = plain_tower(5, 19)
        rng = np.random.default_rng(1)
        gen = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        V = TowerTangent(tower=T, base_level=3, generator=gen)
        for k in (1, 2):
            assert np.array_equal(V.value(k), corner(V.value(3), k))

    def test_consecutive_values_corner_compatible(self):
        T = plain_tower(6, 20)
        rng = np.random.default_rng(2)
        gen = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        V = TowerTangent(tower=T, base_level=2, generator=gen)
        for k in range(2, 6):
            deep = corner(V.value(k + 1), k)
            scale = 1.0 + np.abs(V.value(k)).max()
            assert np.abs(deep - V.value(k)).max() <= 1e-13 * scale

    def test_generator_dim_checked(self):
        T = plain_tower(3, 21)
        with pytest.raises(ValueError):
            TowerTangent(tower=T, base_level=2, generator=np.eye(3, dtype=complex))


class TestSerialization:
    def test_shape_of_payload(self):
        T = Tower([[1 + 2j]])
        data = json.loads(tower_to_json(T))
        assert data == {"depth": 1, "top": [[[1.0, 2.0]]]}

    def test_roundtrip_bit_exact(self):
        T = plain_tower(5, 22)
        back = tower_from_json(tower_to_json(T))
        assert np.array_equal(back.top, T.top)

    def test_roundtrip_extreme_doubles(self):
        vals = np.array(
            [
                [1e-308 + 1e308j, np.pi],
                [-2.2250738585072014e-308, 0.1 + 0.3j],
            ],
            dtype=complex,
        )
        back = tower_from_json(tower_to_json(Tower(vals)))
        assert np.array_equal(back.top, vals)

    @given(seed=st.integers(0, 10_000), depth=st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, seed, depth):
        rng = np.random.default_rng(seed)
        T = Tower(random_entries(rng, (depth, depth), 10.0 ** rng.integers(-8, 9)))
        assert np.array_equal(tower_from_json(tower_to_json(T)).top, T.top)

    def test_malformed_inputs(self):
        with pytest.raises(ValueError):
            tower_from_json("not json {")
        with pytest.raises(ValueError):
            tower_from_json(json.dumps({"depth": 2, "top": [[[1, 0]]]}))
        with pytest.raises(ValueError):
            tower_from_json(json.dumps({"top": [[[1, 0]]]}))
