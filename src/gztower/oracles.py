"""Brute-force oracles for cross-checking the main modules.

These deliberately share no code with the operations they validate: the
GZ observable takes its powers with numpy's own ``matrix_power``, the
bracket oracle differentiates both observables numerically with its own
loops, the eigenvalue oracle goes through characteristic-polynomial
coefficients and simultaneous root iteration, the kernel oracle is a
full-pivot Gaussian elimination, and the Kronecker oracles answer the
strong-regularity and spectrum questions by a dense SVD of the full
operator on gl(n), which production code no longer forms.  The
Hamiltonian tangents take their generators ``j X_i^(j-1)`` with
``matrix_power`` too, and the orbit family is the N^2 matrix units at
the top level: the dense families whose ranks the Lagrangian check reads
off the strong-regularity criteria rather than forming them.  Ranked by a
dense SVD, those monomial generators are also the reference for criteria
1 and 3, which rank orthonormal bases of the same spans.  ``rank_split``
ranks a whole family off its Gram eigenvalues, or a dense SVD inside
their rounding floor, and ``projected_level_values`` projects each level
of a family off an explicit orthonormal basis of the levels below: the
references for the per-level block Cholesky of those criteria.  The
criterion families are built whole, entry by entry from the corner
coordinates of each basis, with a dense commutator per tangent: the
reference for the Gram blocks production forms without them.  The dense
action product multiplies every exponential factor of the abelian
action, zero parameters included; it shares only ``mat_exp`` and
``embed`` with the action, so the two must agree bit for bit.  A
:class:`TowerTangent` evaluates one tangent ``-[embed(g, k), X(k)]`` at a
time: the reference for the batched tangent stack, which is the only
tangent representation production code forms.  The per-pair glued form
evaluates the Kostant-Kirillov pairing, :func:`kk_form`, one pair at a
time, with no tangent stack and no GEMM: the reference for the brackets and the
Lagrangian isotropy.  The all-pairs bracket matrix pairs every generator
at the top level in one GEMM, with its own embedding: production forms no
bracket, only the centralizer certificate that bounds each one, and this
matrix is what the tests hold that certificate against at depth <= 8.
The pair certificate forms the whole m x m array of certified ratios, one
entry per pair with its own bound: the reference for the level blocks
``commute`` and ``consistent`` fold it in.
The gluing draws run the ``match`` check one draw at a time, one SVD per
norm and two :func:`kk_form` pairings per draw: the reference for the
member's stacked draws and residual passes.
Clarity over speed; the root and Kronecker oracles are capped at test
scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .action import AParams
from .gz import GZIndex, gz_indices
from .matcore import (
    DEFAULT_TOL,
    Tolerance,
    as_cmatrix,
    commutator,
    corner,
    embed,
    mat_exp,
    spectrum_split,
    trace_pair,
)
from .tower import Tower, random_entries

__all__ = [
    "ConvergenceError",
    "SmoothFn",
    "gz_observable",
    "central_gradient",
    "fd_poisson_bracket",
    "bracket_matrix",
    "pair_certificate",
    "charpoly_coefficients",
    "charpoly_roots",
    "dense_kernel",
    "rank_split",
    "projected_level_values",
    "criterion_families",
    "kron_is_regular",
    "kron_intersection_trivial",
    "kron_sylvester_singular",
    "kron_spectra_disjoint",
    "dense_action_product",
    "TowerTangent",
    "gz_hamiltonian",
    "orbit_tangents_A",
    "orbit_tangents_G",
    "omega_inf",
    "kk_form",
    "match_draws",
]

MAX_ORACLE_DIM = 8


def kk_form(M: np.ndarray, Z1: np.ndarray, Z2: np.ndarray) -> complex:
    """Kostant-Kirillov pairing of the tangents [Z1, M] and [Z2, M]: tr(M [Z1, Z2])."""
    return trace_pair(M, commutator(Z1, Z2))


class ConvergenceError(RuntimeError):
    """Root iteration failed to converge within the iteration budget."""


@dataclass(frozen=True)
class SmoothFn:
    """An observable pulled back from a finite level.

    ``eval`` receives the level-sized corner matrix.  The same formula at a
    different level is a different function, so the level is explicit.
    """

    level: int
    eval: Callable[[np.ndarray], complex]


def gz_observable(i: int, j: int) -> SmoothFn:
    """The GZ observable tr(X_i^j) as a :class:`SmoothFn`."""
    return SmoothFn(level=i, eval=lambda Xi: complex(np.trace(np.linalg.matrix_power(Xi, j))))


def central_gradient(fn: SmoothFn, X: np.ndarray, h: float | None = None) -> np.ndarray:
    """Central-difference trace-form gradient of ``fn`` at the square matrix X.

    Entry (k, l) is ``(f(X + h E_lk) - f(X - h E_lk)) / (2h)``, so that
    ``tr(G Z)`` approximates the directional derivative along Z.  Entries
    outside the function's own level are exactly zero because the
    observable only reads its corner.  The default step scales with the
    matrix norm to balance truncation against rounding.  Real steps
    suffice: the observables are holomorphic, so the real directional
    derivative along E_lk equals the complex partial.
    """
    n, m = X.shape[0], fn.level
    if h is None:
        h = 1e-5 * (1.0 + float(np.linalg.norm(X)))
    grad = np.zeros((n, n), dtype=np.complex128)
    pert = X[:m, :m].copy()
    for k in range(m):
        for l in range(m):
            orig = pert[l, k]
            pert[l, k] = orig + h
            fp = complex(fn.eval(pert))
            pert[l, k] = orig - h
            fm = complex(fn.eval(pert))
            pert[l, k] = orig
            grad[k, l] = (fp - fm) / (2.0 * h)
    return grad


def fd_poisson_bracket(
    f: SmoothFn, g: SmoothFn, T: Tower, h: float | None = None
) -> complex:
    """Lie-Poisson bracket ``tr(X [grad f, grad g])`` with *both* gradients by central differences.

    Evaluated at the deeper of the two levels, independent of any
    analytic gradient code path; this is the oracle the all-pairs bracket
    matrix, and through it the production certificate, is validated
    against.
    """
    n = max(f.level, g.level)
    if n > T.depth:
        raise IndexError(f"bracket level {n} exceeds tower depth {T.depth}")
    X = T.level(n)
    gf = central_gradient(f, X, h)
    gg = central_gradient(g, X, h)
    return complex(np.trace(X @ (gf @ gg - gg @ gf)))


def bracket_matrix(X: np.ndarray, gens) -> np.ndarray:
    """``tr(X [G_a, G_b])`` for every pair of a family of generators, in one GEMM at X.

    Every generator is embedded into gl(n) of the n x n matrix X, so each
    pair is paired at X whatever its levels: the all-pairs reference, at
    depth <= 8, for the centralizer certificate of the power table.
    ``tr(X [A, B]) = tr([X, A] B)``, so entry (a, b) is the dot product of
    ``vec([X, G_a])`` with ``vec(G_b^T)``.  Entries that overflow are left
    non-finite, without a warning.
    """
    n = X.shape[0]
    E = np.array([embed(G, n) for G in gens], dtype=np.complex128).reshape(-1, n, n)
    with np.errstate(over="ignore", invalid="ignore"):
        left = (X @ E - E @ X).reshape(len(E), n * n)
        return left @ E.transpose(0, 2, 1).reshape(len(E), n * n).T


def pair_certificate(
    T: Tower, left: np.ndarray, right: np.ndarray, k: int
) -> tuple[float, Optional[tuple[int, int]], int]:
    """The worst certified ratio over the pairs a <= b + k of :func:`gz_indices`, by definition.

    Entry (b, a) of the m x m array is ``left[b] right[a] / (1 + ||X_n||_2^(i + n))``,
    with n and i the levels of b and a; it is 0 off the pairs and where the
    bound overflows.  Returns its largest entry (NaN propagates), the pair
    ``(a, b)`` that ``np.argmax`` finds (None when the largest is 0) and the
    number of pairs whose bound overflows.
    """
    levels = np.array([idx.i for idx in gz_indices(T.depth)])
    norm = np.array([np.linalg.norm(T.level(n), 2) for n in levels])
    pairs = np.tri(len(levels), k=k, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        bound = 1.0 + norm[:, None] ** (levels[:, None] + levels[None, :])
        ratios = np.where(pairs & ~np.isinf(bound), np.outer(left, right) / bound, 0.0)
    b, a = np.unravel_index(np.argmax(ratios), ratios.shape)
    worst = float(ratios[b, a])
    return worst, None if worst == 0.0 else (int(a), int(b)), int((pairs & np.isinf(bound)).sum())


def charpoly_coefficients(M: np.ndarray) -> np.ndarray:
    """Monic characteristic polynomial coefficients, highest power first.

    Faddeev-LeVerrier recursion: exactish at oracle scale.
    """
    M = np.asarray(M, dtype=np.complex128)
    n = M.shape[0]
    coeffs = np.zeros(n + 1, dtype=np.complex128)
    coeffs[0] = 1.0
    Mk = np.eye(n, dtype=np.complex128)
    for k in range(1, n + 1):
        Mk = M @ Mk
        ck = -np.trace(Mk) / k
        coeffs[k] = ck
        Mk = Mk + ck * np.eye(n, dtype=np.complex128)
    return coeffs


def _durand_kerner(coeffs: np.ndarray, max_iter: int = 500, rtol: float = 1e-13) -> np.ndarray:
    """All roots of a monic polynomial by simultaneous (Weierstrass) iteration."""
    n = len(coeffs) - 1
    if n == 0:
        return np.array([], dtype=np.complex128)
    if n == 1:
        return np.array([-coeffs[1]], dtype=np.complex128)

    def p(z: np.ndarray) -> np.ndarray:
        acc = np.full_like(z, coeffs[0])
        for c in coeffs[1:]:
            acc = acc * z + c
        return acc

    radius = 1.0 + float(np.max(np.abs(coeffs[1:])))
    base = 0.4 + 0.9j
    z = radius * base ** np.arange(1, n + 1)
    for _ in range(max_iter):
        pz = p(z)
        diffs = z[:, None] - z[None, :]
        np.fill_diagonal(diffs, 1.0)
        denom = np.prod(diffs, axis=1)
        # Nudge coincident iterates apart rather than dividing by zero.
        bad = np.abs(denom) < 1e-300
        if np.any(bad):
            z = z + np.where(bad, 1e-8 * radius * (1 + 1j), 0.0)
            continue
        update = pz / denom
        z = z - update
        if np.max(np.abs(update)) <= rtol * (1.0 + np.max(np.abs(z))):
            return z
    raise ConvergenceError(f"root iteration did not converge in {max_iter} steps")


def charpoly_roots(M: np.ndarray) -> list[complex]:
    """Eigenvalue estimates via characteristic-polynomial root iteration.

    Test-scale diagnostic (dim <= 8) used to cross-check the
    Sylvester-operator spectrum test; not an eigensolver.
    """
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix")
    if M.shape[0] > MAX_ORACLE_DIM:
        raise ValueError(f"oracle capped at dimension {MAX_ORACLE_DIM}")
    roots = _durand_kerner(charpoly_coefficients(M))
    return [complex(z) for z in roots]


def dense_kernel(matrix, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Kernel basis by full-pivot Gaussian elimination.

    Pivots below ``max(tol.abs, tol.rel * first_pivot)`` terminate the
    elimination; one kernel vector is produced per free column.  The
    threshold convention matches the SVD-based production kernel, the
    algorithm shares nothing with it.
    """
    A = np.array(matrix, dtype=np.complex128)
    if A.ndim != 2:
        raise ValueError("expected a 2D array")
    m, n = A.shape
    col_perm = list(range(n))
    rank = 0
    scale = None
    steps = min(m, n)
    for r in range(steps):
        sub = np.abs(A[r:, r:])
        p, q = np.unravel_index(int(np.argmax(sub)), sub.shape)
        pivot = abs(A[r + p, r + q])
        if scale is None:
            scale = pivot
        if pivot <= tol.threshold(scale):
            break
        if p:
            A[[r, r + p], :] = A[[r + p, r], :]
        if q:
            A[:, [r, r + q]] = A[:, [r + q, r]]
            col_perm[r], col_perm[r + q] = col_perm[r + q], col_perm[r]
        A[r + 1 :, r:] -= np.outer(A[r + 1 :, r] / A[r, r], A[r, r:])
        A[r + 1 :, r] = 0.0
        rank += 1

    basis: list[np.ndarray] = []
    for free in range(rank, n):
        x = np.zeros(n, dtype=np.complex128)
        x[free] = 1.0
        for row in range(rank - 1, -1, -1):
            x[row] = -np.dot(A[row, row + 1 :], x[row + 1 :]) / A[row, row]
        v = np.zeros(n, dtype=np.complex128)
        for pos, orig in enumerate(col_perm):
            v[orig] = x[pos]
        basis.append(v)
    return basis


# rank_split's Gram matrix is formed this many rows at a time, and its
# largest eigenvalue must lie between these bounds: inside them no square
# that matters overflows or falls into the subnormal range.
_GRAM_BLOCK_ROWS = 64
_GRAM_MIN_SQUARE = 2.0**-900
_GRAM_MAX_SQUARE = 2.0**900
_EPS = float(np.finfo(np.float64).eps)


def _gram_singular_values(F: np.ndarray) -> Optional[np.ndarray]:
    """Descending singular values of the (m, k) matrix F read off its Gram matrix.

    The Gram matrix is one GEMM, formed in row blocks of at most
    ``_GRAM_BLOCK_ROWS``: block ``[a, b)`` is ``conj(F[a:b]) @ F[:b].T``, so
    only that block is ever conjugated and only the lower triangle, the
    one ``eigvalsh`` reads, is computed.  The result is ``conj(F F^H)``,
    which has the eigenvalues of ``F F^H``.  Rounding in the Gram moves
    its eigenvalues by about ``(m + k) eps s_max^2``, so a singular value
    near ``sqrt((m + k) eps) s_max`` is not resolved.  Returns None, and
    the caller takes the SVD, when the smallest value lies at or below
    ten times that floor, or when the squares leave the range in which
    the bound holds.
    """
    m, k = F.shape
    G = np.zeros((m, m), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, m, _GRAM_BLOCK_ROWS):
            b = min(a + _GRAM_BLOCK_ROWS, m)
            np.matmul(F[a:b].conj(), F[:b].T, out=G[a:b, :b])
    if not np.all(np.isfinite(G)):
        return None
    lam = np.linalg.eigvalsh(G)
    if not _GRAM_MIN_SQUARE < lam[-1] < _GRAM_MAX_SQUARE:
        return None
    s = np.sqrt(np.maximum(lam[::-1], 0.0))
    floor = 10.0 * math.sqrt((m + k) * _EPS) * s[0]
    return s if s[-1] > floor else None


def rank_split(family, tol: Tolerance = DEFAULT_TOL) -> tuple[int, float, float]:
    """Numerical rank of a family of matrices viewed as flat vectors.

    ``family`` is an (m, n, n) stack, or anything ``np.asarray`` makes one
    of, such as a list of equal-shape matrices.  Returns the
    :func:`spectrum_split` of the singular values of its m flattened
    members.  They are read off the m x m Gram matrix, one GEMM and one
    ``eigvalsh``, and taken by a dense SVD of the family only when the
    smallest lies inside the Gram's rounding floor (see
    :func:`_gram_singular_values`); a rank-deficient family always does.
    Above the floor every value clears the default threshold by orders of
    magnitude, so both routes decide the same rank.  A family with a
    non-finite entry has no numerical rank: it gives ``(0, nan, nan)``, so
    no full-rank test passes on it and no margin vouches for the result.
    """
    family = np.asarray(family, dtype=np.complex128)
    if family.shape[0] == 0:
        raise ValueError("empty family")
    family = family.reshape(family.shape[0], -1)
    if not np.all(np.isfinite(family)):
        return 0, math.nan, math.nan
    s = _gram_singular_values(family)
    if s is None:
        s = np.linalg.svd(family, compute_uv=False)
    return spectrum_split(s, tol)


def projected_level_values(family, bounds, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Each level's singular values after projecting out the levels below, explicitly.

    The reference for :func:`gztower.matcore.level_splits`: an orthonormal
    basis of the span of the rows of the levels below, from a dense SVD cut
    at ``tol`` relative to its largest value, is projected out of the
    level's rows, and the rest is ranked by a dense SVD.
    """
    F = np.asarray(family, dtype=np.complex128)
    F = F.reshape(F.shape[0], -1)
    values = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        rows = F[a:b]
        if a:
            _, s, Vh = np.linalg.svd(F[:a], full_matrices=False)
            basis = Vh[s > max(tol.abs, tol.rel * s[0])]
            for _ in range(2):  # the second pass removes what rounding left of the first
                rows = rows - (rows @ basis.conj().T) @ basis
        values.append(np.linalg.svd(rows, compute_uv=False))
    return values


def _corner_matrices(Q: np.ndarray) -> np.ndarray:
    """The (k, n, n) matrices of a (k, n^2) level basis in corner coordinates, entry by entry.

    Corner coordinates list gl(n) shell by shell: shell s holds row s from
    column 0 to the diagonal, then column s from row 0 down to row s - 1.
    """
    n = math.isqrt(Q.shape[1])
    out = np.zeros((len(Q), n, n), dtype=np.complex128)
    position = 0
    for s in range(n):
        for c in range(s + 1):
            out[:, s, c] = Q[:, position]
            position += 1
        for r in range(s):
            out[:, r, s] = Q[:, position]
            position += 1
    return out


def criterion_families(X: np.ndarray, bases: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The whole families that criteria 1 and 3 rank, as (m, N, N) stacks.

    ``bases`` holds every level's basis in corner coordinates, lowest level
    first, and X is the top level at the scale criterion 3 reads it.
    Criterion 1's members are the basis matrices embedded at level N;
    criterion 3's are the commutators ``[X, E]`` of those below the top
    level, each a dense product at level N.  Production forms neither
    family where its Gram decides: these are the reference for its Gram
    blocks.
    """
    N = X.shape[0]
    embedded = [embed(E, N) for Q in bases for E in _corner_matrices(Q)]
    below = embedded[: len(embedded) - len(bases[-1])]
    tangents = np.array([commutator(X, E) for E in below]).reshape(len(below), N, N)
    return np.array(embedded), tangents


def _kron_rank(op: np.ndarray, tol: Tolerance) -> int:
    s = np.linalg.svd(op, compute_uv=False)
    return int(np.sum(s > max(tol.abs, tol.rel * s[0])))


def _kron_ad(M: np.ndarray) -> np.ndarray:
    # Z -> Z M - M Z on row-major vec: vec(Z M) = (I (x) M^T) vec Z, vec(M Z) = (M (x) I) vec Z.
    eye = np.eye(M.shape[0])
    return np.kron(eye, M.T) - np.kron(M, eye)


def _kron_cap(*mats: np.ndarray) -> None:
    if max(m.shape[0] for m in mats) > MAX_ORACLE_DIM:
        raise ValueError(f"oracle capped at dimension {MAX_ORACLE_DIM}")


def kron_is_regular(M, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Regularity as the n-dimensional kernel of the n^2 x n^2 ad operator."""
    M = np.asarray(M, dtype=np.complex128)
    _kron_cap(M)
    return M.shape[0] ** 2 - _kron_rank(_kron_ad(M), tol) == M.shape[0]


def kron_intersection_trivial(X_i, X_ip1, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Trivial intersection of consecutive centralizers, from the stacked ad operators.

    ``embed(Z, i+1) = P Z P^T`` with the (i+1) x i inclusion P, so on
    row-major vectors the level-(i+1) condition is ``ad(X_{i+1}) (P (x) P)``.
    """
    X_i = np.asarray(X_i, dtype=np.complex128)
    X_ip1 = np.asarray(X_ip1, dtype=np.complex128)
    _kron_cap(X_i, X_ip1)
    i = X_i.shape[0]
    P = np.eye(i + 1, i)
    stack = np.vstack([_kron_ad(X_i), _kron_ad(X_ip1) @ np.kron(P, P)])
    return _kron_rank(stack, tol) == i * i


def kron_sylvester_singular(A, B) -> tuple[float, float]:
    """Smallest and largest singular value of Z -> A Z - Z B from its Kronecker matrix."""
    A = np.asarray(A, dtype=np.complex128)
    B = np.asarray(B, dtype=np.complex128)
    _kron_cap(A, B)
    op = np.kron(A, np.eye(B.shape[0])) - np.kron(np.eye(A.shape[0]), B.T)
    s = np.linalg.svd(op, compute_uv=False)
    return float(s[-1]), float(s[0])


def kron_spectra_disjoint(A, B, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Invertibility of the Kronecker Sylvester matrix, with the production threshold rule."""
    smin, smax = kron_sylvester_singular(A, B)
    return smin > max(tol.abs, tol.rel * smax)


def dense_action_product(a: AParams, T: Tower, N: int) -> np.ndarray:
    """Ordered product of all n(n-1)/2 action factors exp(j t_ij X_i^(j-1)) at level N.

    Factors ascend lexicographically in (i, j), zero parameters included;
    every corner power is taken from the input tower.
    """
    g = np.eye(N, dtype=np.complex128)
    for i in range(1, a.n):
        Xi = T.level(i)
        powers = np.eye(i, dtype=np.complex128)
        for j in range(1, i + 1):
            factor = mat_exp(embed(j * a.get(i, j) * powers, N))
            g = g @ factor
            powers = powers @ Xi
    return g


@dataclass(frozen=True, eq=False)
class TowerTangent:
    """Tangent vector to the space of towers, generated at a base level.

    The per-tangent reference for :func:`~gztower.matcore.tangent_values`:
    slice a of that stack at X(n) is ``value(n)`` of the tangent that
    ``G_a`` generates at its own level.

    Sign convention: the value at level ``k >= base_level`` is
    ``-[embed(generator, k), X(k)]``; values below the base level are
    literal corners of the base-level value, so compatibility there is
    exact by construction.  Above the base level the corner identity
    holds structurally (the embedded generator zeroes the border terms);
    recomputed values at different levels agree to rounding.
    """

    tower: Tower
    base_level: int
    generator: np.ndarray

    def __post_init__(self) -> None:
        gen = as_cmatrix(self.generator)
        if not 1 <= self.base_level <= self.tower.depth:
            raise IndexError("base level out of range")
        if gen.shape[0] != self.base_level:
            raise ValueError("generator dimension must equal the base level")
        gen.flags.writeable = False
        object.__setattr__(self, "generator", gen)

    def value(self, k: int) -> np.ndarray:
        if not 1 <= k <= self.tower.depth:
            raise IndexError(f"level {k} out of range for depth {self.tower.depth}")
        if k >= self.base_level:
            return -commutator(embed(self.generator, k), self.tower.level(k))
        return corner(self.value(self.base_level), k)


def gz_hamiltonian(T: Tower, idx: GZIndex) -> TowerTangent:
    """Hamiltonian tangent of f_{ij}: value ``-[j X_i^(j-1), X(k)]`` at level k.

    The value at the base level itself vanishes to rounding (a polynomial
    in X_i commutes with X_i), matching the Casimir property of top-level
    observables.
    """
    if idx.i > T.depth:
        raise IndexError(f"index level {idx.i} exceeds tower depth {T.depth}")
    generator = idx.j * np.linalg.matrix_power(T.level(idx.i), idx.j - 1)
    return TowerTangent(tower=T, base_level=idx.i, generator=generator)


def orbit_tangents_A(T: Tower) -> list[TowerTangent]:
    """The N(N-1)/2 Hamiltonian tangents spanning the abelian orbit direction."""
    if T.depth < 2:
        raise ValueError("abelian orbit tangents need depth at least 2")
    return [gz_hamiltonian(T, idx) for idx in gz_indices(T.depth - 1)]


def orbit_tangents_G(T: Tower) -> list[TowerTangent]:
    """Adjoint-orbit tangents generated by matrix units at the deepest level.

    The spanned space at level N is the image of ``Z -> [Z, X(N)]``,
    of dimension N^2 - N at regular matrices.
    """
    N = T.depth
    out: list[TowerTangent] = []
    for k in range(N):
        for l in range(N):
            unit = np.zeros((N, N), dtype=np.complex128)
            unit[k, l] = 1.0
            out.append(TowerTangent(tower=T, base_level=N, generator=unit))
    return out


def omega_inf(T: Tower, V1: TowerTangent, V2: TowerTangent) -> complex:
    """The glued orbit form of one pair, evaluated at the deeper of the two base levels.

    Level consistency makes the choice of evaluation level immaterial up
    to rounding; see :func:`~gztower.symplectic.match_residual`.
    """
    k = max(V1.base_level, V2.base_level)
    if k > T.depth:
        raise IndexError(f"tangent level {k} exceeds tower depth {T.depth}")
    return kk_form(T.level(k), embed(V1.generator, k), embed(V2.generator, k))


def match_draws(T: Tower, seed: int, draws: int) -> list[tuple]:
    """The gluing check's seeded draws, one at a time: ``(n, Z1, Z2, scale, residual)``.

    Each draw takes the level n, then Z1 and Z2 with
    :func:`~gztower.tower.random_entries`; its scale is
    ``1 + ||X_(n+1)||_2 ||Z1||_2 ||Z2||_2``, three SVDs, and its residual
    ``|tr(X_(n+1) [Z1, Z2]) - tr(X_n [Z1, Z2])|``, the representatives
    embedded into gl(n+1) on the deep side.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(1,))))
    out = []
    for _ in range(draws):
        n = int(rng.integers(1, T.depth))
        Z1 = random_entries(rng, (n, n), 1.0)
        Z2 = random_entries(rng, (n, n), 1.0)
        norms = [float(np.linalg.norm(M, 2)) for M in (T.level(n + 1), Z1, Z2)]
        scale = 1.0 + norms[0] * norms[1] * norms[2]
        deep = kk_form(T.level(n + 1), embed(Z1, n + 1), embed(Z2, n + 1))
        out.append((n, Z1, Z2, scale, abs(deep - kk_form(T.level(n), Z1, Z2))))
    return out
