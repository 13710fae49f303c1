"""Shared fixtures and tower factories for the test suite."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import pytest

from gztower import gz, matcore, regularity
from gztower.matcore import DEFAULT_TOL, Tolerance
from gztower.tower import Tower, random_entries, random_theta_tower


@lru_cache(maxsize=None)
def theta_tower(depth: int, seed: int, scale: float = 0.5) -> Tower:
    """Cached spectrum-disjoint random tower."""
    return random_theta_tower(depth, seed, scale)


@lru_cache(maxsize=None)
def plain_tower(depth: int, seed: int, scale: float = 1.0) -> Tower:
    """Cached unconstrained random tower (no spectrum condition)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return Tower(random_entries(rng, (depth, depth), scale))


def jordan_tower(depth: int) -> Tower:
    """The nilpotent shift tower: strongly regular with every consecutive
    spectrum equal to {0}, the standard non-generic fixture."""
    return Tower(np.diag(np.ones(depth - 1), 1).astype(np.complex128)) if depth > 1 else Tower(
        np.zeros((1, 1), dtype=np.complex128)
    )


def diag_tower(values) -> Tower:
    return Tower(np.diag(np.asarray(values, dtype=np.complex128)))


def index_flows(T: Tower, idx, ts):
    """``flow_stack`` of the gradient of f_{ij} over the times ``ts``, as ``flow`` reads it."""
    from gztower.action import flow_stack

    table = gz.power_table(T)
    return flow_stack(table.top, [table.gradient(idx)], ts)


def unit(n: int, k: int, l: int) -> np.ndarray:
    out = np.zeros((n, n), dtype=np.complex128)
    out[k, l] = 1.0
    return out


def probe_operator(op, n: int) -> np.ndarray:
    """Dense matrix of a linear map on n x n matrices, one column per matrix unit.

    Columns follow row-major unit order, matching row-major flattening.
    References built this way share no code with the production builders.
    """
    return np.column_stack(
        [np.asarray(op(unit(n, k, l))).reshape(-1) for k in range(n) for l in range(n)]
    )


def regular(M: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Criterion 2's regularity decision for one matrix: the Arnoldi split."""
    return regularity._regular_split(M, tol)[0]


def intersection_trivial(X_i: np.ndarray, X_ip1: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Criterion 2's decision for one consecutive pair: X_i regular, and its border system
    full rank, so no nonzero Z in gl(i) commutes with both X_i and X_(i+1)."""
    i = X_i.shape[0]
    ok, _, _, Q = regularity._regular_split(X_i, tol)
    return ok and regularity._border_split(Q, X_ip1[:i, i], X_ip1[i, :i], tol)[0]


def sylvester_singular(A: np.ndarray, B: np.ndarray) -> tuple[float, float]:
    """Smallest and largest singular value of Z -> A Z - Z B, by the Schur/trsyl
    Lanczos that spectra_disjoint falls back to; (nan, nan) for non-finite input."""
    pair = matcore._shifted(A, B)
    if pair is None:
        return math.nan, math.nan
    forms = matcore._schur_triangles(*pair)
    return matcore._sylvester_smin(*forms), matcore._sylvester_smax(*forms)


@pytest.fixture
def tol() -> Tolerance:
    return DEFAULT_TOL


@pytest.fixture(autouse=True)
def fresh_sreg_report():
    """Each test computes its own strong-regularity reports and power tables.

    The cached towers above are shared across tests, and ``sreg_report``
    and ``power_table`` keep the result of the last tower they were asked
    about; a test that patches a criterion or the bracket GEMM must not
    read a result computed before the patch.
    """
    regularity._tower_report.cache_clear()
    gz.power_table.cache_clear()
