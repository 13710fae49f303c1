"""Shared fixtures and tower factories for the test suite."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import pytest

from gztower import gz, matcore, oracles, regularity
from gztower.action import AParams, flow_stack
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
    """``flow_stack`` of the table's gradient of f_{ij} over the times ``ts``."""
    table = gz.power_table(T)
    return flow_stack(table.top, [table.gradient(idx)], ts)


def index_flow(T: Tower, idx, t) -> Tower:
    """The exact Hamiltonian flow of f_{ij} for time t: the one-time case of :func:`index_flows`.

    Raises the error that the stack reports for it.
    """
    tops, errors = index_flows(T, idx, [t])
    if errors[0] is not None:
        raise errors[0]
    return Tower(tops[0])


def zero_params(n: int) -> AParams:
    """The identity of the abelian group of level n: every parameter zero."""
    return AParams(n, [[0] * i for i in range(1, n)])


def pairing_matrix(T: Tower) -> np.ndarray:
    """Every pair's bracket as one m x m matrix, m = N(N+1)/2, by the all-pairs oracle.

    Entry (a, b) is ``tr(X_N [G_a, G_b])`` of the table's generators: the
    glued form at the top level, which equals the pair's bracket at the
    deeper of its two levels.
    """
    return oracles.bracket_matrix(T.top, gz.power_table(T).generators())


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


def projector_tower(T: Tower, k: int) -> Tower:
    """T with the border of level k + 1 cut so that the tower is not strongly regular there.

    For an eigenvalue of X_k with right eigenvector v and left eigenvector
    w, the border gets ``w^T b = 0`` and ``c v = 0``.  Then the projector
    ``v w^T`` commutes with X_k and, embedded, with X_(k+1): z(X_k) meets
    z(X_(k+1)), and every criterion fails at level k + 1.
    """
    top = T.top.copy()
    lam, V = np.linalg.eig(top[:k, :k])
    mu, W = np.linalg.eig(top[:k, :k].T)
    v, w = V[:, 0], W[:, np.argmin(np.abs(mu - lam[0]))]
    b, c = top[:k, k], top[k, :k]
    top[:k, k] = b - w.conj() * (w @ b) / (w @ w.conj())
    top[k, :k] = c - v.conj() * (c @ v) / (v.conj() @ v)
    return Tower(top)


def family_splits(F: np.ndarray, bounds, tol: Tolerance = DEFAULT_TOL):
    """``matcore.level_splits`` of a whole (m, k) family: its Gram block rows, one GEMM each."""
    F = np.asarray(F, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = [F[a:b] @ F[:b].conj().T for a, b in zip(bounds, bounds[1:])]
    return matcore.level_splits(rows, F.shape[1], lambda: F, tol)


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
    about; a test that patches a criterion or the pairing GEMM must not
    read a result computed before the patch.
    """
    regularity._tower_report.cache_clear()
    gz.power_table.cache_clear()
