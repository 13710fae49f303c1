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

All three read one Frobenius-orthonormal Arnoldi basis Q_i of
span{I, X_i, ..., X_i^(i-1)} per level, built once per report and kept in
corner coordinates, where gl(l) is the first l^2 coordinates of gl(N) for
every l <= N.  That span holds the gradients j X_i^(j-1) of f_i1, ...,
f_ii, so criterion 1 ranks the Q_i embedded at level N, and criterion 3
the tangent values [X_N, Q_i] for i < N, with X_N scaled by an exact
power of two.  Neither reads a power of the tower: the monomials span the
same subspaces but are as ill-conditioned as a Vandermonde matrix.  Both
rank level by level: level i's decisive value is the smallest singular
value of its block of rows net of the levels below, so each criterion
holds exactly when every level does, and each report carries a per-level
profile.  The values depend only on the level subspaces, not on the basis
chosen in each.  A level whose Arnoldi run breaks down early has
dependent gradients, and criteria 1 and 3 read false from its split.

Neither criterion forms its (m, N^2) family.  The Gram block of levels
l <= i is one GEMM of level-i rows, cut to their first l^2 corner
coordinates, against Q_l: Q_i for criterion 1, and for criterion 3 the
i x i corner of [X^H, [X, Q_i]], since <[X, A], [X, B]> =
<[X^H, [X, A]], B> and B = Q_l vanishes outside its l x l corner.  That
is exact whether or not Q_i commutes with X_i.  About N^6/24 products per
Gram, held as its lower triangle, a quarter of a family.  The family is
built only where the Gram's Cholesky cannot decide, as on a tower that is
not strongly regular, and freed with its criterion.

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
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .matcore import (
    DEFAULT_TOL,
    Tolerance,
    _eigen,
    _pow2_scaled,
    krylov_basis,
    level_splits,
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
# (regular, decisive value, margin, Arnoldi basis) of one level: _regular_split.
_Level = tuple[bool, float, float, np.ndarray]


def _regular_split(M: np.ndarray, tol: Tolerance) -> _Level:
    """Regularity of M via Arnoldi breakdown in span{I, M, ..., M^(n-1)}.

    Returns (regular, decisive value, split margin, Krylov basis), the
    middle two from :func:`spectrum_split` of the Arnoldi norms and the
    basis as a (k, n^2) array in corner coordinates.  M is regular exactly
    when the span reaches dimension n, the smallest a centralizer can be.
    """
    n = M.shape[0]
    if n == 1:
        # Every 1 x 1 matrix is regular; infinity keeps these levels out of
        # the centralizer criterion's minimum.
        return True, math.inf, math.inf, np.ones((1, 1), dtype=np.complex128)
    Q, s = krylov_basis(M, tol)
    rank, decisive, margin = spectrum_split(s, tol)
    return rank == n, decisive, margin, Q.reshape(len(Q), -1)[:, np.argsort(_shell_positions(n))]


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
    Q = _natural(Q)
    system = np.concatenate([Q @ _unit(b), _unit(c) @ Q], axis=1).T
    rank, decisive, margin = spectrum_split(np.linalg.svd(system, compute_uv=False), tol)
    return rank == Q.shape[0], decisive, margin


def _shell_positions(n: int) -> np.ndarray:
    """Where each entry of gl(n), taken row-major, sits in corner coordinates.

    Corner coordinates order the entries of gl(N) by shells: shell s holds
    row s up to the diagonal, then column s above it, so that gl(n) is the
    first n^2 coordinates for every n <= N.
    """
    r, c = np.divmod(np.arange(n * n), n)
    s = np.maximum(r, c)
    return s * s + np.where(r == s, c, s + 1 + r)


def _natural(Q: np.ndarray) -> np.ndarray:
    """A level basis in corner coordinates as the (k, n, n) stack of its matrices."""
    n = math.isqrt(Q.shape[1])
    return Q[:, _shell_positions(n)].reshape(len(Q), n, n)


def _gram_rows(factor: Callable, bases: list[np.ndarray]) -> list[np.ndarray]:
    """The conjugated Gram block rows that :func:`level_splits` reads.

    ``factor(Q_i)`` is the conjugate of level i's factor F_i in corner
    coordinates; its block against l <= i is ``conj(F_i[:, :n_l^2]) Q_l^T``.
    """
    widths = np.cumsum([len(Q) for Q in bases]).tolist()
    # One allocation, so that the whole Gram goes back to the system with its rows.
    buffer = np.empty(sum(len(Q) * w for Q, w in zip(bases, widths)), dtype=np.complex128)
    rows: list[np.ndarray] = []
    for Q, width in zip(bases, widths):
        F = factor(Q)
        R = buffer[: len(Q) * width].reshape(len(Q), width)
        buffer = buffer[R.size :]
        for B, end in zip(bases, widths[: len(rows) + 1]):
            np.matmul(F[:, : B.shape[1]], B.T, out=R[:, end - len(B) : end])
        rows.append(R)
        del F  # so that two factors are never held at once
    return rows


def _normal_corners(X: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """The conjugated i x i corner of ``[X^H, [X, E]]`` for each E of a level-i basis.

    For E in the corner of gl(N) it is ``P E + E K - H^H E H - H E H^H``,
    with H, P and K the i x i corners of X, ``X^H X`` and ``X X^H``.  Each
    eighth of the basis is laid side by side, ``S = [E_1 | E_2 | ...]``, so
    that every product is one GEMM: M S on the left, and on the right each
    row of S, a row of one E, times the i x i factor.
    """
    i = math.isqrt(Q.shape[1])
    H, Hh = X[:i, :i], X[:i, :i].conj().T
    P = X[:, :i].conj().T @ X[:, :i]
    K = X[:i] @ X[:i].conj().T
    positions = _shell_positions(i)
    order = np.argsort(positions)

    def right(S: np.ndarray, M: np.ndarray) -> np.ndarray:
        return (S.reshape(-1, i) @ M).reshape(S.shape)

    out = np.empty_like(Q)
    step = -(-len(Q) // 8)
    for a in range(0, len(Q), step):
        E = Q[a : a + step, positions].reshape(-1, i, i)
        S = E.transpose(1, 0, 2).reshape(i, -1)
        Y = P @ S + right(S, K) - right(Hh @ S, H) - right(H @ S, Hh)
        Y = Y.reshape(i, len(E), i).transpose(1, 0, 2).reshape(len(E), -1)
        np.conjugate(Y[:, order], out=out[a : a + step])
    return out


def _level_profile(
    T: Tower, levels: list[_Level], factor: Callable, members: Callable, tol: Tolerance
) -> list[_Split]:
    """Per level: its Arnoldi split where the run broke down, else the rank of its rows.

    The family holds ``members(Q)``, the rows of each level's basis Q or
    its images in N^2 coordinates, lowest level first.  :func:`level_splits`
    ranks each block net of the blocks below off the Gram rows of
    ``factor`` (:func:`_gram_rows`), and builds the family only where its
    Cholesky cannot decide.  A family that is not finite has no rank:
    every level reads (False, nan, nan).
    """
    bases = [Q for *_, Q in levels]

    def family() -> np.ndarray:
        F = np.zeros((sum(len(Q) for Q in bases), T.depth**2), dtype=np.complex128)
        row = 0
        for Q in bases:
            block = members(Q)
            F[row : row + len(Q), : block.shape[1]] = block
            row += len(Q)
        return F

    splits = level_splits(_gram_rows(factor, bases), T.depth**2, family, tol)
    return [
        (rank == len(Q), decisive, margin) if regular else (False, sv, sv_margin)
        for (regular, sv, sv_margin, Q), (rank, decisive, margin) in zip(levels, splits)
    ]


def _criterion_split(levels: list[_Level], profile: list[_Split]) -> _Split:
    """A criterion's verdict from its level profile, with the value and margin that decide it.

    A level whose Arnoldi run broke down spans fewer than i dimensions, so
    its i gradients are dependent, as the monomials j X_i^(j-1) would show:
    such levels decide a false verdict alone.  Otherwise the failing
    levels decide it, or every level when none fails.  NaN propagates.
    """
    broken = [split for level, split in zip(levels, profile) if not level[0]]
    failed = broken or [split for split in profile if not split[0]]
    _, sv, margin = _least(failed or profile)
    return not failed, sv, margin


def _least(splits: list[_Split]) -> _Split:
    """Whether every split holds, with the smallest decisive value and margin; NaN propagates."""
    return (
        all(ok for ok, _, _ in splits),
        float(np.min([sv for _, sv, _ in splits])),
        float(np.min([margin for _, _, margin in splits])),
    )


def _arnoldi_levels(T: Tower, tol: Tolerance) -> list[_Level]:
    """:func:`_regular_split` of every level, lowest first: one Arnoldi run each."""
    return [_regular_split(T.level(n), tol) for n in range(1, T.depth + 1)]


def _differentials_profile(T: Tower, levels: list[_Level], tol: Tolerance) -> list[_Split]:
    # Criterion 1: every level's orthonormal basis embedded at level N, in
    # corner coordinates, where level n's rows fill the first n^2 columns.
    return _level_profile(T, levels, np.conj, lambda Q: Q, tol)


def _differentials_split(T: Tower, levels: list[_Level], tol: Tolerance) -> _Split:
    return _criterion_split(levels, _differentials_profile(T, levels, tol))


def _scaled_top(T: Tower) -> np.ndarray:
    """X_N scaled by the exact power of two that brings its largest modulus into [1/2, 1)."""
    peak = float(np.abs(T.top).max())
    if peak == 0.0:
        return T.top
    return _pow2_scaled(T.top, math.frexp(peak)[1])


def _tangents_profile(T: Tower, levels: list[_Level], tol: Tolerance) -> list[_Split]:
    # Criterion 3: the tangent values [X_N, Q] of the bases below the top level.
    # Rank does not see the scale of X_N, and at unit scale no value overflows.
    # Its Gram reads only the level corners of [X^H, [X, Q]].
    X = _scaled_top(T)
    return _level_profile(
        T,
        levels[:-1],
        functools.partial(_normal_corners, X),
        lambda Q: tangent_values(X, _natural(Q)).reshape(len(Q), -1),
        tol,
    )


def _tangents_split(T: Tower, levels: list[_Level], tol: Tolerance) -> _Split:
    return _criterion_split(levels[:-1], _tangents_profile(T, levels, tol))


def is_sreg_differentials(T: Tower, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Full rank of the N(N+1)/2 gradient family at the deepest level."""
    ok, _, _ = _differentials_split(T, _arnoldi_levels(T, tol), tol)
    return ok


def _centralizers_profile(T: Tower, levels: list[_Level], tol: Tolerance) -> list[_Split]:
    """Criterion 2 by level: level n's Arnoldi split with the border split from level n - 1.

    Both depend on X_1, ..., X_n only.  Level n's entry holds when both
    splits do, and carries the smaller decisive value and margin.
    """
    profile = [levels[0][:3]]
    for n in range(1, len(levels)):
        (below_regular, _, _, Q), (regular, sv, margin, _) = levels[n - 1], levels[n]
        # A non-regular level already fails, and its intersection with the
        # next level is never trivial: such an X_n has an eigenvalue with
        # right and left eigenspaces of dimension at least 2, hence a right
        # eigenvector x with ``c x = 0`` and a left one y with ``y^T b = 0``,
        # and ``Z = x y^T`` commutes with X_n and annihilates both borders.
        split = (regular, sv, margin)
        if below_regular:
            split = _least([split, _border_split(Q, T.top[:n, n], T.top[n, :n], tol)])
        profile.append(split)
    return profile


def is_sreg_centralizers(T: Tower, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Every level regular and every consecutive centralizer intersection trivial."""
    ok, _, _ = _least(_centralizers_profile(T, _arnoldi_levels(T, tol), tol))
    return ok


def is_sreg_tangents(T: Tower, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Full rank of the N(N-1)/2 Hamiltonian tangent values at the deepest level.

    Rejects depth-1 towers: the tangent family is empty there and the
    criterion is vacuous.
    """
    if T.depth < 2:
        raise ValueError("tangent criterion is vacuous for depth-1 towers")
    ok, _, _ = _tangents_split(T, _arnoldi_levels(T, tol), tol)
    return ok


def _theta_holds(T: Tower, tol: Tolerance) -> bool:
    # Each level's eigenpairs serve both pairs it belongs to.
    levels = [T.level(n) for n in range(1, T.depth + 1)]
    eigen = [_eigen(X) for X in levels]
    pairs = zip(levels, levels[1:], zip(eigen, eigen[1:]))
    return all(spectra_disjoint(A, B, tol, both) for A, B, both in pairs)


def report_number(x: Optional[float]) -> Optional[float]:
    """A diagnostic as a JSON report value: missing or non-finite becomes null.

    JSON has no token for NaN or the infinities (RFC 8259).
    """
    return None if x is None or not math.isfinite(x) else x


def _decidable_depth(*profiles: list[_Split]) -> int:
    """The deepest n at which every level up to n of each profile clears INDETERMINATE_MARGIN."""
    depth = 0
    for splits in zip(*profiles):
        if not all(margin >= INDETERMINATE_MARGIN for _, _, margin in splits):
            break
        depth += 1
    return depth


@dataclass(frozen=True)
class SregReport:
    """Joint result of the three strong-regularity criteria plus the
    spectrum-disjointness test, with per-criterion diagnostics."""

    depth: int
    by_differentials: bool
    by_centralizers: bool
    by_tangents: Optional[bool]  # None: vacuous (depth 1)
    min_singular_values: tuple[Optional[float], Optional[float], Optional[float]]
    margins: tuple[Optional[float], Optional[float], Optional[float]]
    # Each criterion's (verdict, decisive value, margin) at every level it
    # ranks, lowest first: levels 1..N for criteria 1 and 2, 1..N-1 for 3.
    profile: tuple[tuple[_Split, ...], tuple[_Split, ...], tuple[_Split, ...]]
    # The deepest n at which every level up to n of criteria 1 and 2 clears
    # INDETERMINATE_MARGIN; neither criterion's level-n entry reads X_(n+1).
    decidable_depth: int
    # Margin of criterion 2's Arnoldi split of X_N, the orbit-rank margin of
    # the Lagrangian check; it is not part of the JSON report.
    top_arnoldi_margin: float
    verdict: str  # "true" | "false" | "indeterminate"
    # The tower and tolerance the report was made for, which theta reads.
    tower: Tower = field(repr=False, compare=False)
    tol: Tolerance = DEFAULT_TOL
    notes: tuple[str, ...] = ()

    @functools.cached_property
    def theta(self) -> bool:
        """Whether consecutive levels have disjoint spectra.

        Not a strong-regularity criterion, and not needed for the verdict:
        it is evaluated the first time it is read.
        """
        return _theta_holds(self.tower, self.tol)

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
            "level_min_singular_values": [
                [report_number(sv) for _, sv, _ in levels] for levels in self.profile
            ],
            "level_margins": [
                [report_number(margin) for _, _, margin in levels] for levels in self.profile
            ],
            "decidable_depth": self.decidable_depth,
            "verdict": self.verdict,
            "notes": list(self.notes),
        }


def sreg_report(T: Tower, tol: Tolerance = DEFAULT_TOL) -> SregReport:
    """Run all strong-regularity criteria; the spectrum test runs when ``theta`` is read.

    The overall verdict is "true"/"false" when the criteria agree and
    "indeterminate" when they disagree; disagreement can only occur
    numerically, near the rank threshold, and the recorded margins say
    how near.  Criterion 2's Arnoldi basis Q_i of each level is built
    once and shared: criterion 1 ranks every Q_i embedded at level N, and
    criterion 3 the tangent values ``[X_N, Q_i]`` for i < N, both level by
    level through :func:`~gztower.matcore.level_splits`, from Gram blocks
    formed off the bases (see the module docstring): level i's decisive
    value is the smallest singular value of its block net of the levels
    below, against one threshold at the largest singular value of any
    level's own block.  Those values do not depend on the orthonormal
    basis chosen in each level.  ``profile`` keeps every level's entry,
    and ``min_singular_values`` and ``margins`` the minimum over the levels
    that decide each verdict: the failing levels when it is false, every
    level when it is true.  A level whose Arnoldi run broke down gives its
    own split instead, and alone decides criteria 1 and 3.  The report
    builds no power table.

    Each tower has one report: ``Tower`` compares by identity, so the
    report of the last tower and tolerance asked for is kept and returned
    again.
    """
    return _tower_report(T, tol)


@functools.lru_cache(maxsize=1)
def _tower_report(T: Tower, tol: Tolerance) -> SregReport:
    N = T.depth
    levels = _arnoldi_levels(T, tol)
    differentials = _differentials_profile(T, levels, tol)
    centralizers = _centralizers_profile(T, levels, tol)
    d_ok, d_sv, d_margin = _criterion_split(levels, differentials)
    c_ok, c_sv, c_margin = _least(centralizers)
    notes: list[str] = []
    if N >= 2:
        tangent_levels = _tangents_profile(T, levels, tol)
        t_ok, t_sv, t_margin = _criterion_split(levels[:-1], tangent_levels)
        tangents: Optional[bool] = t_ok
    else:
        tangent_levels, tangents, t_sv, t_margin = [], None, None, None
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
        min_singular_values=(d_sv, c_sv, t_sv),
        margins=(d_margin, c_margin, t_margin),
        profile=(tuple(differentials), tuple(centralizers), tuple(tangent_levels)),
        decidable_depth=_decidable_depth(differentials, centralizers),
        # The margin of X_N's own Arnoldi split: level N has no border below it.
        top_arnoldi_margin=levels[-1][2],
        verdict=verdict,
        tower=T,
        tol=tol,
        notes=tuple(notes),
    )

