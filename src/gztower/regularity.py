"""Strong-regularity tests and the spectrum-disjointness condition.

A tower is strongly regular when the differentials of all its
Gelfand-Zeitlin observables are linearly independent.  Three equivalent
formulations are implemented and cross-validated:

1. differentials: the gradient family at the deepest level has full rank,
2. centralizers: every level is a regular matrix and consecutive
   centralizers intersect trivially; both questions are answered in the
   Krylov coordinates of span{I, X_i, ..., X_i^(i-1)}, which is the
   centralizer of a regular X_i (Kostant-Wallach 2006); the intersection
   is the kernel of a border system in those coordinates,
3. tangents: the Hamiltonian tangent family (below the top level) has
   full rank.

The criteria are mathematically equivalent but numerically differently
conditioned, so each verdict carries a margin: how cleanly its decisive
singular values split at the threshold.  Disagreement within margin is
reported as "indeterminate" rather than raised as an error.

The joint commutant of levels n..N, which the ``anchor`` check tests, is
the same border system with the whole border blocks of X_N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gz import gz_grad, gz_indices
from .matcore import (
    DEFAULT_TOL,
    Tolerance,
    ad_operator,
    commutator,
    kernel_basis,
    krylov_basis,
    null_space,
    rank_split,
    spectra_disjoint,
    spectrum_split,
)
from .tower import Tower

__all__ = [
    "SregReport",
    "report_number",
    "is_regular",
    "centralizer_basis",
    "centralizer_intersection_trivial",
    "is_sreg_differentials",
    "is_sreg_centralizers",
    "is_sreg_tangents",
    "sreg_report",
    "INDETERMINATE_MARGIN",
]

# Verdicts whose margins fall below this factor are considered too close
# to the threshold to adjudicate disagreements between criteria.
INDETERMINATE_MARGIN = 10.0


def _regular_split(M: np.ndarray, tol: Tolerance) -> tuple[bool, float, float, np.ndarray]:
    """Regularity of M via Arnoldi breakdown in span{I, M, ..., M^(n-1)}.

    Returns (regular, decisive value, split margin, Krylov basis), the
    middle two from :func:`spectrum_split` of the Arnoldi norms.  M is
    regular exactly when the span reaches dimension n, the smallest a
    centralizer can be.
    """
    n = M.shape[0]
    if n == 1:
        # Every 1 x 1 matrix is regular; infinity keeps these levels out of
        # the centralizer criterion's minimum.
        return True, math.inf, math.inf, np.ones((1, 1, 1), dtype=np.complex128)
    Q, s = krylov_basis(M, tol)
    rank, decisive, margin = spectrum_split(s, tol)
    return rank == n, decisive, margin, Q


def is_regular(M: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when the centralizer of M has the minimal dimension M.dim."""
    ok, _, _, _ = _regular_split(M, tol)
    return ok


def centralizer_basis(M: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Frobenius-orthonormal basis of ``{Z : [Z, M] = 0}``.

    At a regular M the centralizer is span{Id, M, ..., M^(n-1)}, and the
    basis is the Arnoldi basis of :func:`~gztower.matcore.krylov_basis`,
    O(n^4).  Only a non-regular M, whose centralizer is larger than that
    span, takes the kernel of the dense n^2 x n^2 ``ad_operator(M)``.
    """
    regular, _, _, Q = _regular_split(M, tol)
    return list(Q) if regular else null_space(ad_operator(M), tol=tol)


def _unit(v: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if math.isinf(norm):
        # The squares overflowed; entries scaled by the largest one cannot.
        v = v / np.abs(v).max()
        norm = float(np.linalg.norm(v))
    return v / norm if norm > 0 else v


def _border_system(Q: np.ndarray, B: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Matrix of ``a -> (Z B, C Z)`` on ``Z = sum_j a_j Q_j``, 2nm x k, blocks flattened.

    With ``X = [[X_n, B], [C, D]]`` and Z in the centralizer ``span(Q)`` of
    X_n, ``[embed(Z), X] = [[0, Z B], [-C Z, 0]]``, so the kernel is the part
    of that centralizer which commutes with X.  B (n x m) and C (m x n) enter
    at unit Frobenius norm: the kernel does not see their scale, and neither
    sets the other's threshold.
    """
    k = Q.shape[0]
    return np.concatenate(
        [(Q @ _unit(B)).reshape(k, -1), (_unit(C) @ Q).reshape(k, -1)], axis=1
    ).T


def _border_split(
    Q: np.ndarray, b: np.ndarray, c: np.ndarray, tol: Tolerance
) -> tuple[bool, float, float]:
    """Whether no nonzero Z in span(Q) has ``Z b = 0`` and ``c Z = 0`` (a 2i x i system)."""
    s = np.linalg.svd(_border_system(Q, b[:, None], c[None, :]), compute_uv=False)
    rank, decisive, margin = spectrum_split(s, tol)
    return rank == Q.shape[0], decisive, margin


def centralizer_intersection_trivial(
    X_i: np.ndarray, X_ip1: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """Whether no nonzero Z in gl(i) commutes with both X_i and X_{i+1}.

    A non-regular X_i has an eigenvalue with right and left eigenspaces of
    dimension at least 2, so it has a right eigenvector x with ``c x = 0``
    and a left eigenvector y with ``y^T b = 0``; then ``Z = x y^T`` commutes
    with X_i and annihilates both borders, and the intersection is never
    trivial.
    """
    i = X_i.shape[0]
    if X_ip1.shape[0] != i + 1:
        raise ValueError("second matrix must be one dimension deeper")
    if not np.array_equal(X_ip1[:i, :i], X_i):
        raise ValueError("corner compatibility violated: X_i is not the corner of X_{i+1}")
    regular, _, _, Q = _regular_split(X_i, tol)
    return regular and _border_split(Q, X_ip1[:i, i], X_ip1[i, :i], tol)[0]


def _differentials_split(T: Tower, tol: Tolerance) -> tuple[bool, float, float]:
    N = T.depth
    grads = [gz_grad(T, idx, N) for idx in gz_indices(N)]
    expected = N * (N + 1) // 2
    rank, decisive, margin = rank_split(grads, tol)
    return rank == expected, decisive, margin


def is_sreg_differentials(T: Tower, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Full rank of the N(N+1)/2 gradient family at the deepest level."""
    ok, _, _ = _differentials_split(T, tol)
    return ok


def _centralizers_split(T: Tower, tol: Tolerance) -> tuple[bool, float, float]:
    splits = []
    for n in range(1, T.depth + 1):
        regular, sv, margin, Q = _regular_split(T.level(n), tol)
        splits.append((regular, sv, margin))
        # A non-regular level already fails, and its intersection with the
        # next level is never trivial (see centralizer_intersection_trivial).
        if regular and n < T.depth:
            splits.append(_border_split(Q, T.top[:n, n], T.top[n, :n], tol))
    return (
        all(ok for ok, _, _ in splits),
        float(min(sv for _, sv, _ in splits)),
        float(min(margin for _, _, margin in splits)),
    )


def is_sreg_centralizers(T: Tower, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Every level regular and every consecutive centralizer intersection trivial."""
    ok, _, _ = _centralizers_split(T, tol)
    return ok


def _tangents_split(T: Tower, tol: Tolerance) -> tuple[bool, float, float]:
    # The values at level N of orbit_tangents_A(T), -[grad f_ij, X_N] for
    # i < N, formed from the gradients: an overflowed generator then makes
    # a non-finite family, which has no rank, rather than an invalid tangent.
    N = T.depth
    X = T.level(N)
    with np.errstate(over="ignore", invalid="ignore"):
        values = [-commutator(gz_grad(T, idx, N), X) for idx in gz_indices(N, max_i=N - 1)]
    expected = N * (N - 1) // 2
    rank, decisive, margin = rank_split(values, tol)
    return rank == expected, decisive, margin


def is_sreg_tangents(T: Tower, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Full rank of the N(N-1)/2 Hamiltonian tangent values at the deepest level.

    Rejects depth-1 towers: the tangent family is empty there and the
    criterion is vacuous.
    """
    if T.depth < 2:
        raise ValueError("tangent criterion is vacuous for depth-1 towers")
    ok, _, _ = _tangents_split(T, tol)
    return ok


def _theta_holds(T: Tower, tol: Tolerance) -> bool:
    return all(
        spectra_disjoint(T.level(n), T.level(n + 1), tol) for n in range(1, T.depth)
    )


def report_number(x: Optional[float]) -> Optional[float]:
    """A diagnostic as a JSON report value: missing or infinite becomes null."""
    return None if x is None or math.isinf(x) else x


@dataclass(frozen=True)
class SregReport:
    """Joint result of the three strong-regularity criteria plus the
    spectrum-disjointness test, with per-criterion diagnostics."""

    depth: int
    by_differentials: bool
    by_centralizers: bool
    by_tangents: Optional[bool]  # None: vacuous (depth 1)
    theta: bool
    min_singular_values: tuple[Optional[float], Optional[float], Optional[float]]
    margins: tuple[Optional[float], Optional[float], Optional[float]]
    verdict: str  # "true" | "false" | "indeterminate"
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        def tri(v: Optional[bool]) -> str:
            return "indeterminate" if v is None else ("true" if v else "false")

        return {
            "depth": self.depth,
            "by_differentials": tri(self.by_differentials),
            "by_centralizers": tri(self.by_centralizers),
            "by_tangents": tri(self.by_tangents),
            "theta": tri(self.theta),
            "min_singular_values": [report_number(x) for x in self.min_singular_values],
            "margins": [report_number(x) for x in self.margins],
            "verdict": self.verdict,
            "notes": list(self.notes),
        }


def sreg_report(T: Tower, tol: Tolerance = DEFAULT_TOL) -> SregReport:
    """Run all strong-regularity criteria and the spectrum test.

    The overall verdict is "true"/"false" when the criteria agree and
    "indeterminate" when they disagree; disagreement can only occur
    numerically, near the rank threshold, and the recorded margins say
    how near.
    """
    d_ok, d_sv, d_margin = _differentials_split(T, tol)
    c_ok, c_sv, c_margin = _centralizers_split(T, tol)
    notes: list[str] = []
    if T.depth >= 2:
        t_ok, t_sv, t_margin = _tangents_split(T, tol)
        tangents: Optional[bool] = t_ok
    else:
        tangents, t_sv, t_margin = None, None, None
        notes.append("tangent criterion vacuous at depth 1; verdict uses criteria 1-2")

    verdicts = [d_ok, c_ok] + ([tangents] if tangents is not None else [])
    if all(verdicts):
        verdict = "true"
    elif not any(verdicts):
        verdict = "false"
    else:
        verdict = "indeterminate"
        margins = [m for m in (d_margin, c_margin, t_margin) if m is not None]
        if any(math.isnan(m) for m in margins):
            notes.append(
                "a criterion's family overflows double precision and cannot read "
                "true; regenerate the tower at a smaller scale"
            )
        elif min(margins) >= INDETERMINATE_MARGIN:
            notes.append(
                "criteria disagree with comfortable margins; this should not "
                "happen for exact towers - inspect the diagnostics"
            )
        else:
            notes.append("criteria disagree within margin; tighten the tolerance")

    return SregReport(
        depth=T.depth,
        by_differentials=d_ok,
        by_centralizers=c_ok,
        by_tangents=tangents,
        theta=_theta_holds(T, tol),
        min_singular_values=(d_sv, c_sv, t_sv),
        margins=(d_margin, c_margin, t_margin),
        verdict=verdict,
        notes=tuple(notes),
    )


def joint_commutant_kernel(
    T: Tower, base_level: int, tol: Tolerance = DEFAULT_TOL
) -> list[np.ndarray]:
    """Basis of ``{x in gl(n) : [embed(x, k), X(k)] = 0 for all n <= k <= N}``.

    This is the kernel of the anchor map restricted to level-n covectors;
    at strongly regular towers it is trivial for every n < N.  The borders
    of every X(k) are sub-blocks of X(N)'s, so the kernel is
    ``{x in z(X(n)) : x X(N)[:n, n:] = 0, X(N)[n:, :n] x = 0}``: the
    :func:`_border_system` kernel over an orthonormal :func:`centralizer_basis`.
    """
    if not 1 <= base_level <= T.depth:
        raise IndexError("base level out of range")
    n = base_level
    basis = centralizer_basis(T.level(n), tol)
    if n == T.depth:
        return basis
    Q = np.stack(basis)
    system = _border_system(Q, T.top[:n, n:], T.top[n:, :n])
    return [np.tensordot(a, Q, axes=1) for a in kernel_basis(system, tol)]
