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

Criterion 2 also decides the ``anchor`` and ``lagrangian`` checks: every
joint commutant of levels n..N (n < N) embeds into that of levels N-1..N,
whose border system is its last, and the orbit through X_N has dimension
N^2 - N exactly when it finds X_N regular.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gz import power_table
from .matcore import (
    DEFAULT_TOL,
    Tolerance,
    embed_stack,
    krylov_basis,
    rank_split,
    spectra_disjoint,
    spectrum_split,
    tangent_values,
)
from .tower import Tower

__all__ = [
    "SregReport",
    "report_number",
    "is_sreg_differentials",
    "is_sreg_centralizers",
    "is_sreg_tangents",
    "sreg_report",
    "INDETERMINATE_MARGIN",
]

# Verdicts whose margins fall below this factor are considered too close
# to the threshold to adjudicate disagreements between criteria.
INDETERMINATE_MARGIN = 10.0

# (verdict, decisive singular value, margin) of one rank decision.
_Split = tuple[bool, float, float]


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


def _unit(v: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if math.isinf(norm):
        # The squares overflowed; entries scaled by the largest one cannot.
        v = v / np.abs(v).max()
        norm = float(np.linalg.norm(v))
    return v / norm if norm > 0 else v


def _border_split(Q: np.ndarray, b: np.ndarray, c: np.ndarray, tol: Tolerance) -> _Split:
    """Whether no nonzero Z in span(Q) has ``Z b = 0`` and ``c Z = 0``.

    With ``X = [[X_n, b], [c, d]]`` and Z in the centralizer ``span(Q)`` of
    X_n, ``[embed(Z), X] = [[0, Z b], [-c Z, 0]]``, so the kernel of the
    2n x k system ``a -> (Z b, c Z)`` on ``Z = sum_j a_j Q_j`` is the part of
    that centralizer which commutes with X.  b and c enter at unit norm:
    the kernel does not see their scale, and neither sets the other's
    threshold.
    """
    system = np.concatenate([Q @ _unit(b), _unit(c) @ Q], axis=1).T
    rank, decisive, margin = spectrum_split(np.linalg.svd(system, compute_uv=False), tol)
    return rank == Q.shape[0], decisive, margin


def _full_rank_split(family: np.ndarray, tol: Tolerance) -> _Split:
    # A family with an overflowed generator is not finite and has no rank.
    rank, decisive, margin = rank_split(family, tol)
    return rank == len(family), decisive, margin


def _differentials_split(T: Tower, gens: list[np.ndarray], tol: Tolerance) -> _Split:
    # Criterion 1: every generator of the power table, embedded at level N.
    return _full_rank_split(embed_stack(gens, T.depth), tol)


def _tangents_split(T: Tower, gens: list[np.ndarray], tol: Tolerance) -> _Split:
    # Criterion 3: the tangent values [X_N, grad f_ij] of the generators with i < N.
    return _full_rank_split(tangent_values(T.top, gens[: T.depth * (T.depth - 1) // 2]), tol)


def is_sreg_differentials(T: Tower, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Full rank of the N(N+1)/2 gradient family at the deepest level."""
    ok, _, _ = _differentials_split(T, power_table(T).generators(), tol)
    return ok


def _centralizers_split(T: Tower, tol: Tolerance) -> tuple[bool, float, float, float]:
    """Criterion 2: (verdict, decisive value, margin, margin of X_N's Arnoldi split)."""
    splits = []
    for n in range(1, T.depth + 1):
        regular, sv, margin, Q = _regular_split(T.level(n), tol)
        splits.append((regular, sv, margin))
        # A non-regular level already fails, and its intersection with the
        # next level is never trivial: such an X_n has an eigenvalue with
        # right and left eigenspaces of dimension at least 2, hence a right
        # eigenvector x with ``c x = 0`` and a left one y with ``y^T b = 0``,
        # and ``Z = x y^T`` commutes with X_n and annihilates both borders.
        if regular and n < T.depth:
            splits.append(_border_split(Q, T.top[:n, n], T.top[n, :n], tol))
    # The last split is X_N's Arnoldi split: level N has no border below it.
    return (
        all(ok for ok, _, _ in splits),
        float(min(sv for _, sv, _ in splits)),
        float(min(margin for _, _, margin in splits)),
        splits[-1][2],
    )


def is_sreg_centralizers(T: Tower, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Every level regular and every consecutive centralizer intersection trivial."""
    ok, _, _, _ = _centralizers_split(T, tol)
    return ok


def is_sreg_tangents(T: Tower, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Full rank of the N(N-1)/2 Hamiltonian tangent values at the deepest level.

    Rejects depth-1 towers: the tangent family is empty there and the
    criterion is vacuous.
    """
    if T.depth < 2:
        raise ValueError("tangent criterion is vacuous for depth-1 towers")
    ok, _, _ = _tangents_split(T, power_table(T).generators(), tol)
    return ok


def _theta_holds(T: Tower, tol: Tolerance) -> bool:
    return all(
        spectra_disjoint(T.level(n), T.level(n + 1), tol) for n in range(1, T.depth)
    )


def report_number(x: Optional[float]) -> Optional[float]:
    """A diagnostic as a JSON report value: missing or non-finite becomes null.

    JSON has no token for NaN or the infinities (RFC 8259).
    """
    return None if x is None or not math.isfinite(x) else x


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
    # Margin of criterion 2's Arnoldi split of X_N, the orbit-rank margin of
    # the Lagrangian check; it is not part of the JSON report.
    top_arnoldi_margin: float
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
    how near.  Criterion 1 ranks every generator of one
    :func:`~gztower.gz.power_table`, embedded at level N; criterion 3 the
    Hamiltonian tangent values ``[X_N, grad f_ij]`` of those with i < N.

    Each tower has one report, as it has one power table: ``Tower``
    compares by identity, so the report of the last tower and tolerance
    asked for is kept and returned again.
    """
    return _tower_report(T, tol)


@functools.lru_cache(maxsize=1)
def _tower_report(T: Tower, tol: Tolerance) -> SregReport:
    N = T.depth
    gens = power_table(T).generators()
    d_ok, d_sv, d_margin = _differentials_split(T, gens, tol)
    c_ok, c_sv, c_margin, top_margin = _centralizers_split(T, tol)
    notes: list[str] = []
    if N >= 2:
        t_ok, t_sv, t_margin = _tangents_split(T, gens, tol)
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
        top_arnoldi_margin=top_margin,
        verdict=verdict,
        notes=tuple(notes),
    )

