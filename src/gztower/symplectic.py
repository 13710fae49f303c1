"""Orbit symplectic geometry via the trace pairing.

On a (co)adjoint orbit through M, tangent vectors are commutators
``[Z, M]`` and the Kostant-Kirillov form pairs them by
``tr(M [Z1, Z2])``.  Gluing the level forms over a tower is consistent
because the trace of a product against an embedded matrix only sees the
matching corner; the glued form is therefore independent of the
evaluation level, which :func:`match_residual` measures directly.

Tangents are :class:`~gztower.tower.TowerTangent` values
``-[embed(g, k), X(k)]``, and the forms here pair their generators
directly: the sign is common to both sides of every pairing, so it
cancels.  The anchor map sends a level-n covector x to the tangent with
generator x; its image spans the orbit directions.  At strongly regular
towers the abelian orbit tangents are isotropic and of exactly half the
orbit rank: the Lagrangian verification checks both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .action import orbit_tangents_A, orbit_tangents_G
from .matcore import (
    DEFAULT_TOL,
    Tolerance,
    as_cmatrix,
    bracket_matrix,
    commutator,
    embed,
    rank_split,
    trace_pair,
)
from .regularity import SregReport, report_number, sreg_report
from .tower import Tower, TowerTangent

__all__ = [
    "kk_form",
    "omega_inf",
    "match_residual",
    "anchor",
    "isotropy_check",
    "LagrangianReport",
    "lagrangian_check",
]


def kk_form(M: np.ndarray, Z1: np.ndarray, Z2: np.ndarray) -> complex:
    """Kostant-Kirillov pairing of the tangents [Z1, M] and [Z2, M]: tr(M [Z1, Z2])."""
    return trace_pair(M, commutator(Z1, Z2))


def omega_inf(T: Tower, V1: TowerTangent, V2: TowerTangent) -> complex:
    """The glued orbit form evaluated at the deeper of the two base levels.

    Level consistency makes the choice of evaluation level immaterial up
    to rounding; see :func:`match_residual`.
    """
    k = max(V1.base_level, V2.base_level)
    if k > T.depth:
        raise IndexError(f"tangent level {k} exceeds tower depth {T.depth}")
    return kk_form(T.level(k), embed(V1.generator, k), embed(V2.generator, k))


def match_residual(T: Tower, Z1: np.ndarray, Z2: np.ndarray, n: int) -> float:
    """Gluing defect between levels n and n+1 for level-n representatives.

    Mathematically zero: the deeper matrix restricts to the shallower one
    on the corner the embedded commutator lives in.
    """
    Z1 = as_cmatrix(Z1)
    Z2 = as_cmatrix(Z2)
    if Z1.shape != Z2.shape or Z1.shape[0] != n:
        raise ValueError("representatives must both have dimension n")
    if n >= T.depth:
        raise IndexError(f"need n < depth, got n={n}, depth={T.depth}")
    deep = kk_form(T.level(n + 1), embed(Z1, n + 1), embed(Z2, n + 1))
    shallow = kk_form(T.level(n), Z1, Z2)
    return abs(deep - shallow)


def anchor(T: Tower, x: np.ndarray) -> TowerTangent:
    """Anchor-map image of the level-n covector x: the tangent -[x, X(.)].

    The images over all covectors span the characteristic (orbit)
    directions at the tower.
    """
    x = as_cmatrix(x)
    return TowerTangent(tower=T, base_level=x.shape[0], generator=x)


def isotropy_check(
    T: Tower, tangents: Sequence[TowerTangent], tol: Tolerance = DEFAULT_TOL
) -> float:
    """Maximum absolute pairing over all pairs of the given tangents.

    Every ``omega_inf`` pairing comes from one GEMM at the family's
    deepest level.  The family is isotropic when the result is below the
    caller's threshold; self-pairings vanish identically.  A non-finite
    pairing makes the result non-finite, so it passes no threshold.
    """
    k = max((v.base_level for v in tangents), default=1)
    if k > T.depth:
        raise IndexError(f"tangent level {k} exceeds tower depth {T.depth}")
    pairings = bracket_matrix(T.level(k), [v.generator for v in tangents])
    upper = np.triu_indices(len(tangents), 1)
    return float(np.abs(pairings[upper]).max(initial=0.0))


@dataclass(frozen=True)
class LagrangianReport:
    depth: int
    rank_A: Optional[int]
    rank_G: Optional[int]
    margin_A: Optional[float]
    margin_G: Optional[float]
    max_pairing: Optional[float]
    pairing_scale: Optional[float]
    verdict: str  # "true" | "false" | "not applicable"
    tol_rel: float
    tol_abs: float
    isotropy_rtol: float
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "depth": self.depth,
            "rank_A": self.rank_A,
            "rank_G": self.rank_G,
            "margin_A": report_number(self.margin_A),
            "margin_G": report_number(self.margin_G),
            "max_pairing": self.max_pairing,
            "pairing_scale": self.pairing_scale,
            "verdict": self.verdict,
            "tolerance": {"rel": self.tol_rel, "abs": self.tol_abs},
            "isotropy_rtol": self.isotropy_rtol,
            "notes": list(self.notes),
        }


def lagrangian_check(
    T: Tower,
    tol: Tolerance = DEFAULT_TOL,
    isotropy_rtol: float = 1e-8,
    *,
    sreg: Optional[SregReport] = None,
) -> LagrangianReport:
    """Verify the Lagrangian structure of the abelian orbit at a tower.

    At a strongly regular tower of depth N this checks, at the deepest
    level: the abelian tangent family has rank exactly N(N-1)/2, the
    orbit tangent family has rank exactly N^2 - N (half/double), and the
    abelian family is isotropic for the glued form.  Towers that are not
    strongly regular (or have depth 1) yield a "not applicable" verdict
    rather than an error.  ``sreg`` is the tower's :func:`sreg_report` at
    ``tol`` when the caller already has it; without it the check runs one.
    """
    N = T.depth
    base = dict(
        depth=N,
        tol_rel=tol.rel,
        tol_abs=tol.abs,
        isotropy_rtol=isotropy_rtol,
    )
    if N < 2:
        return LagrangianReport(
            rank_A=None,
            rank_G=None,
            margin_A=None,
            margin_G=None,
            max_pairing=None,
            pairing_scale=None,
            verdict="not applicable",
            notes=("depth-1 towers have no abelian orbit directions",),
            **base,
        )
    if sreg is None:
        sreg = sreg_report(T, tol)
    if sreg.verdict != "true":
        return LagrangianReport(
            rank_A=None,
            rank_G=None,
            margin_A=None,
            margin_G=None,
            max_pairing=None,
            pairing_scale=None,
            verdict="not applicable",
            notes=(f"tower is not strongly regular (verdict: {sreg.verdict})",),
            **base,
        )

    ham_tangents = orbit_tangents_A(T)
    rank_A, _, margin_A = rank_split([v.value(N) for v in ham_tangents], tol)
    rank_G, _, margin_G = rank_split([v.value(N) for v in orbit_tangents_G(T)], tol)

    max_pairing = isotropy_check(T, ham_tangents, tol)
    # |tr(X [Z1, Z2])| <= 2 ||X|| ||Z1|| ||Z2||: the cancellation error of
    # an exactly-zero pairing scales with the same product.
    gen_norm = max(float(np.linalg.norm(v.generator)) for v in ham_tangents)
    pairing_scale = 1.0 + 2.0 * float(np.linalg.norm(T.top)) * gen_norm**2

    ok = (
        rank_A == N * (N - 1) // 2
        and rank_G == N * N - N
        and max_pairing <= isotropy_rtol * pairing_scale
    )
    return LagrangianReport(
        rank_A=rank_A,
        rank_G=rank_G,
        margin_A=margin_A,
        margin_G=margin_G,
        max_pairing=max_pairing,
        pairing_scale=pairing_scale,
        verdict="true" if ok else "false",
        **base,
    )
