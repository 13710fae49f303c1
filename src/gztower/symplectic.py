"""Orbit symplectic geometry via the trace pairing.

On a (co)adjoint orbit through M, tangent vectors are commutators
``[Z, M]`` and the Kostant-Kirillov form pairs them by
``tr(M [Z1, Z2])``.  Gluing the level forms over a tower is consistent
because the trace of a product against an embedded matrix only sees the
matching corner; the glued form is therefore independent of the
evaluation level, which :func:`match_residual` measures directly.

A tangent ``-[embed(g, k), X(k)]`` is paired through its generator g:
the sign is common to both sides of every pairing, so it cancels, and
the pairing of two generators is ``tr(X [g1, g2])``.  At strongly
regular towers the abelian orbit tangents are isotropic and of exactly
half the orbit rank: the Lagrangian verification reads both ranks off
the strong-regularity criteria and bounds the pairings by the tower's
centralizer certificate, :meth:`~gztower.gz.PowerTable.residuals`: each
pair is ``tr([X_k, G_b] G_a)`` at the deeper of its two levels k, at most
``||G_a||_F ||[X_k, G_b]||_F``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gz import power_table
from .matcore import DEFAULT_TOL, Tolerance
from .regularity import report_number, residual_ratios, residual_verdict, sreg_report
from .tower import Tower

__all__ = [
    "match_residual",
    "LagrangianReport",
    "lagrangian_check",
    "ISOTROPY_RTOL",
]

# The abelian family is isotropic when its largest pairing is at most this
# fraction of the pairing scale.
ISOTROPY_RTOL = 1e-8


def match_residual(T: Tower, Z1: np.ndarray, Z2: np.ndarray, n: int) -> np.ndarray:
    """Gluing defect between levels n and n+1 of every pair of two (s, n, n) stacks.

    Entry r is ``|tr(X_(n+1) [Z1_r, Z2_r]) - tr(X_n [Z1_r, Z2_r])|``, with
    the representatives embedded into gl(n+1) on the deep side, so its
    products run at the deeper dimension.  Mathematically zero: the deeper
    matrix restricts to the shallower one on the corner the embedded
    commutator lives in.
    """
    if Z1.shape != Z2.shape or Z1.shape[1:] != (n, n):
        raise ValueError("representatives must be two (s, n, n) stacks")
    if n >= T.depth:
        raise IndexError(f"need n < depth, got n={n}, depth={T.depth}")
    # tr(X [A, B]) of every slice, as oracles.kk_form pairs one.
    E1, E2 = np.zeros((2, len(Z1), n + 1, n + 1), dtype=np.complex128)
    E1[:, :n, :n], E2[:, :n, :n] = Z1, Z2
    deep = np.einsum("ab,sba->s", T.level(n + 1), E1 @ E2 - E2 @ E1)
    return np.abs(deep - np.einsum("ab,sba->s", T.level(n), Z1 @ Z2 - Z2 @ Z1))


@dataclass(frozen=True)
class LagrangianReport:
    depth: int
    verdict: str  # "true" | "false" | "indeterminate" | "not applicable"
    tol_rel: float
    tol_abs: float
    isotropy_rtol: float
    # Ranks, margins and pairings stay None when the check is not applicable.
    rank_A: Optional[int] = None
    rank_G: Optional[int] = None
    margin_A: Optional[float] = None
    margin_G: Optional[float] = None
    max_pairing: Optional[float] = None
    pairing_scale: Optional[float] = None
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "depth": self.depth,
            "rank_A": self.rank_A,
            "rank_G": self.rank_G,
            "margin_A": report_number(self.margin_A),
            "margin_G": report_number(self.margin_G),
            "max_pairing": report_number(self.max_pairing),
            "pairing_scale": report_number(self.pairing_scale),
            "verdict": self.verdict,
            "tolerance": {"rel": self.tol_rel, "abs": self.tol_abs},
            "isotropy_rtol": self.isotropy_rtol,
            "notes": list(self.notes),
        }


def lagrangian_check(T: Tower, tol: Tolerance = DEFAULT_TOL) -> LagrangianReport:
    """Verify the Lagrangian structure of the abelian orbit at a tower.

    At a strongly regular tower of depth N the abelian tangent family has
    rank exactly N(N-1)/2 and the orbit through X_N has dimension N^2 - N
    (half/double); the check reads both ranks off the tower's
    :func:`sreg_report` and verifies that the abelian family is isotropic
    for the glued form.  Criterion 3 ranks the abelian family itself, so
    its margin is ``margin_A``.  The orbit dimension is N^2 minus that of
    the centralizer of X_N, which is N exactly when X_N is regular, as
    criterion 2 found it: the margin of that Arnoldi split is ``margin_G``.
    The pairings are those of the generators below the top level, each
    bounded at the deeper of its two levels by the tower's centralizer
    certificate, :meth:`~gztower.gz.PowerTable.residuals`, so
    ``max_pairing`` is a certified upper bound on the largest pairing.
    Towers that are not strongly regular (or have depth 1) yield a "not
    applicable" verdict rather than an error, and towers whose powers
    overflow, so that the pairings have no finite scale, an
    "indeterminate" one.
    """
    N = T.depth
    base = dict(depth=N, tol_rel=tol.rel, tol_abs=tol.abs, isotropy_rtol=ISOTROPY_RTOL)
    sreg = sreg_report(T, tol) if N >= 2 else None
    if sreg is None or sreg.verdict != "true":
        note = (
            "depth-1 towers have no abelian orbit directions"
            if sreg is None
            else f"tower is not strongly regular (verdict: {sreg.verdict})"
        )
        return LagrangianReport(verdict="not applicable", notes=(note,), **base)

    # A "true" verdict means criterion 3 found the abelian family at full
    # rank and criterion 2 found X_N regular.
    rank_A = N * (N - 1) // 2

    # The Hamiltonian tangent of f_ij is generated by its gradient, and the
    # glued form pairs two tangents at the deeper of their levels k, where
    # |{f_b, f_a}| <= ||G_a|| ||[X_k, G_b]||: the largest bound over a < b is
    # each commutator norm times the largest gradient norm before it.  A
    # non-finite norm makes the maximum non-finite, so it passes no threshold.
    commutators, norms = power_table(T).residuals()
    with np.errstate(over="ignore", invalid="ignore"):
        pairings = commutators[1:rank_A] * np.maximum.accumulate(norms[: rank_A - 1])
        max_pairing = float(np.max(pairings, initial=0.0))
        # |tr(X [Z1, Z2])| <= 2 ||X|| ||Z1|| ||Z2||: the cancellation error of
        # an exactly-zero pairing scales with the same product.
        pairing_scale = float(1.0 + 2.0 * np.linalg.norm(T.top) * norms[:rank_A].max() ** 2)
    # Where the powers overflow, so does the scale: no pairing is compared with it.
    ratio, left_out = residual_ratios(max_pairing, pairing_scale)
    notes = (
        "the generators' pairing scale overflows double precision; "
        "regenerate the tower at a smaller scale",
    ) if left_out else ()
    return LagrangianReport(
        rank_A=rank_A,
        rank_G=N * N - N,
        margin_A=sreg.margins[2],
        margin_G=sreg.top_arnoldi_margin,
        max_pairing=max_pairing,
        pairing_scale=pairing_scale,
        verdict=residual_verdict(float(ratio), ISOTROPY_RTOL, left_out),
        notes=notes,
        **base,
    )
