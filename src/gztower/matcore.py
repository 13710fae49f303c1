"""Dense complex matrix kernels.

Everything downstream works on square ``numpy.ndarray`` matrices with
``complex128`` entries.  This module owns the shared conventions:

* corner extraction / zero-padded embedding between sizes,
* commutator and trace pairing, and their stacked tangent families,
* matrix exponentials, alone or stacked, by Pade scaling and squaring,
* numerical rank and Krylov bases of matrix powers,
* the Sylvester-operator spectrum test: an eigenvalue separation bound,
  and complex Schur forms with triangular Sylvester solves where the
  bound does not decide,

and the single tolerance rule used by all of them: a quantity of scale
``s`` counts as zero when it is below ``max(tol.abs, tol.rel * s)``.
No kernel here forms a Kronecker operator; those dense forms live in
:mod:`gztower.oracles`, as references for the tests.
Everything runs on numpy alone except the Schur/``trsyl`` path of the
Sylvester test, which imports its LAPACK routines from scipy when it runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "MAX_DIM",
    "Tolerance",
    "DEFAULT_TOL",
    "as_cmatrix",
    "corner",
    "embed",
    "commutator",
    "trace_pair",
    "tangent_values",
    "embed_stack",
    "bracket_matrix",
    "mat_exp",
    "mat_exp_stack",
    "spectrum_split",
    "rank_split",
    "krylov_basis",
    "spectra_disjoint",
]

# Supported working range; larger matrices are out of scope for this toolkit.
MAX_DIM = 256

_EPS = float(np.finfo(np.float64).eps)
_SQRT_HALF = math.sqrt(0.5)
# A norm above this has a sum of squares far enough above the subnormal
# range that the squares lost to underflow cannot move it.
_TINY_NORM = 2.0**-480


@dataclass(frozen=True)
class Tolerance:
    """Relative/absolute threshold pair.

    The effective cut for a computation whose magnitude scale is ``s``
    is ``max(abs, rel * s)``.
    """

    rel: float = 1e-9
    abs: float = 1e-12

    def __post_init__(self) -> None:
        if self.rel < 0 or self.abs < 0:
            raise ValueError("tolerances must be nonnegative")

    def threshold(self, scale: float) -> float:
        return max(self.abs, self.rel * float(scale))


DEFAULT_TOL = Tolerance()


def as_cmatrix(entries) -> np.ndarray:
    """Validate and normalize input into a square complex128 matrix.

    Rejects non-square input, empty matrices, matrices larger than
    ``MAX_DIM`` and any non-finite entry.
    """
    a = np.array(entries, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("matrix dimension must be at least 1")
    if a.shape[0] > MAX_DIM:
        raise ValueError(f"dimension {a.shape[0]} exceeds supported maximum {MAX_DIM}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _require_same_dim(A: np.ndarray, B: np.ndarray) -> None:
    if A.shape != B.shape:
        raise ValueError(f"dimension mismatch: {A.shape} vs {B.shape}")


def corner(M: np.ndarray, i: int) -> np.ndarray:
    """Top-left ``i x i`` block of ``M``."""
    n = M.shape[0]
    if not 1 <= i <= n:
        raise IndexError(f"corner size {i} out of range for dimension {n}")
    return M[:i, :i].copy()


def embed(M: np.ndarray, n: int) -> np.ndarray:
    """Zero-padded embedding of ``M`` into the top-left block of an n x n matrix."""
    m = M.shape[0]
    if n < m:
        raise IndexError(f"cannot embed dimension {m} into smaller dimension {n}")
    out = np.zeros((n, n), dtype=np.complex128)
    out[:m, :m] = M
    return out


def commutator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``A @ B - B @ A``."""
    _require_same_dim(A, B)
    return A @ B - B @ A


def trace_pair(A: np.ndarray, B: np.ndarray) -> complex:
    """Trace form ``tr(A B)``: symmetric and nondegenerate."""
    _require_same_dim(A, B)
    # tr(AB) without forming the product: sum over A[k, l] * B[l, k].
    return complex(np.sum(A * B.T))


def tangent_values(X: np.ndarray, gens: Sequence[np.ndarray]) -> np.ndarray:
    """The (m, n, n) stack of ``[X, embed(G_a, n)]`` over a family of generators.

    Each ``G_a`` is a square matrix no larger than ``X``.  Slice a is the
    value at X of the :class:`~gztower.tower.TowerTangent` generated by
    ``G_a`` at its own level: the batched form of that one tangent type.
    Entries that overflow are left non-finite, without a warning.
    """
    n = X.shape[0]
    out = np.zeros((len(gens), n, n), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for a, G in enumerate(gens):
            k = G.shape[0]
            if k > n:
                raise IndexError(f"cannot embed dimension {k} into smaller dimension {n}")
            # With E = embed(G, n): X E fills columns :k and E X fills rows :k.
            out[a, :, :k] = X[:, :k] @ G
            out[a, :k, :] -= G @ X[:k, :]
    return out


def embed_stack(gens: Sequence[np.ndarray], n: int) -> np.ndarray:
    """The (m, n, n) stack of ``embed(G_a, n)`` over a family of generators."""
    out = np.empty((len(gens), n, n), dtype=np.complex128)
    for a, G in enumerate(gens):
        out[a] = embed(G, n)
    return out


def bracket_matrix(X: np.ndarray, gens: Sequence[np.ndarray]) -> np.ndarray:
    """Matrix of ``tr(X [G_a, G_b])`` over a family of generators, in one GEMM.

    Because ``tr(X [A, B]) = tr([X, A] B)``, entry (a, b) is the dot product
    of ``vec([X, G_a])`` with ``vec(G_b^T)``: the :func:`tangent_values`
    stack against the :func:`embed_stack` of the transposes, whose views
    are copied once, into the padded stack.
    """
    n, m = X.shape[0], len(gens)
    left = tangent_values(X, gens).reshape(m, n * n)
    right = embed_stack([G.T for G in gens], n).reshape(m, n * n)
    with np.errstate(over="ignore", invalid="ignore"):
        return left @ right.T


_UNIT_ROUNDOFF = 2.0**-53


class _Pade(NamedTuple):
    """The [m/m] Pade approximant of exp that scaling and squaring uses at degree m."""

    # The bound on ``||A^k||_1^(1/k)`` up to which the approximant meets
    # unit roundoff (Higham, SIAM J. Matrix Anal. Appl. 26, 2005, Table 2.3,
    # for m <= 9; for m = 13 the 4.25 that scipy's ``expm`` pairs with these
    # power norms).
    theta: float
    # The numerator coefficients ``b_k = (2m - k)! / (k! (m - k)!)`` of the
    # odd and of the even powers, complex so that the products take them
    # without a cast.
    odd: np.ndarray
    even: np.ndarray
    # ``1 / |c_(2m+1)| = C(2m, m) (2m + 1)!``, the reciprocal of the leading
    # coefficient of the backward error series.
    c_inv: float
    # A 1-norm at or below this needs no overscaling correction: see _ells.
    ell_free: float


def _pade(m: int, theta: float) -> _Pade:
    b = [math.factorial(2 * m - k) // (math.factorial(k) * math.factorial(m - k))
         for k in range(m + 1)]
    c_inv = float(math.comb(2 * m, m) * math.factorial(2 * m + 1))
    return _Pade(
        theta,
        np.array(b[1::2], dtype=np.complex128),
        np.array(b[0::2], dtype=np.complex128),
        c_inv,
        (c_inv * _UNIT_ROUNDOFF / 4.0) ** (1.0 / (2 * m)),
    )


_PADE = {
    m: _pade(m, theta)
    for m, theta in (
        (3, 1.495585217958292e-2),
        (5, 2.539398330063230e-1),
        (7, 9.504178996162932e-1),
        (9, 2.097847961257068e0),
        (13, 4.25),
    )
}
# Bytes of input that :func:`mat_exp_stack` exponentiates at once.  Every
# temporary of a chunk is a fixed multiple of this, whatever the stack size.
_EXP_CHUNK_BYTES = 1 << 15


def _norms1(R: np.ndarray) -> list:
    """The 1-norm of every matrix of a stack of moduli, as nested lists of floats."""
    return np.maximum.reduce(np.add.reduce(R, axis=-2), axis=-1).tolist()


def _root(norm: float, k: int) -> float:
    """``||P||_1^(1/k)`` from ``norm = ||P||_1``, ``P = A^k``; inf where the power overflowed."""
    # Python's pow: numpy's vectorized pow may differ from it in the last bit.
    value = norm ** (1.0 / k)
    return value if value <= math.inf else math.inf


def _take(A: np.ndarray, rows: list[int]) -> np.ndarray:
    """The slices ``rows`` (ascending) of a stack: the stack itself when they are all of it."""
    return A if len(rows) == len(A) else A[rows]


def _power(R: np.ndarray, p: int) -> np.ndarray:
    """``R^p`` of every slice, by the binary powering of ``np.linalg.matrix_power``.

    The same products in the same order, without that function's checks,
    which cost about as much as a product at these sizes.
    """
    z = result = None
    while p > 0:
        z = R if z is None else z @ z
        p, bit = divmod(p, 2)
        if bit:
            result = z if result is None else result @ z
    return result


def _ells(absA: np.ndarray, norms: list[float], m: int) -> list[int]:
    """Squarings to add so that the Pade error of degree m stays below unit roundoff, per slice.

    Al-Mohy and Higham's (2009) correction against overscaling, from
    ``alpha = |c_(2m+1)| ||abs(A)^(2m+1)||_1 / ||A||_1``, given ``abs(A)``
    and the 1-norms of the slices; 0 when that power is zero, or overflows,
    which leaves the decision to the norms.  The power is not formed where
    the norm is at most ``ell_free``: there ``||abs(A)^(2m+1)||_1 <=
    ||A||_1^(2m+1)`` keeps alpha below a quarter of the unit roundoff, a
    margin far wider than the rounding of either side, so the correction
    is 0 either way.
    """
    pade = _PADE[m]
    ells = [0] * len(norms)
    rows = [k for k, norm in enumerate(norms) if norm > pade.ell_free]
    if not rows:
        return ells
    power_norms = _norms1(_power(_take(absA, rows), 2 * m + 1))
    for k, power_norm in zip(rows, power_norms):
        if 0.0 < power_norm < math.inf:
            alpha = power_norm / (norms[k] * pade.c_inv)
            ells[k] = max(0, math.ceil(math.log2(alpha / _UNIT_ROUNDOFF) / (2 * m)))
    return ells


def _even_powers(A: np.ndarray, count: int) -> np.ndarray:
    """The (s, count, n, n) stack ``I, A^2, A^4, ...`` of every slice of A."""
    s, n, _ = A.shape
    powers = np.zeros((s, count, n, n), dtype=np.complex128)
    powers[:, 0].reshape(s, n * n)[:, :: n + 1] = 1.0
    np.matmul(A, A, out=powers[:, 1])
    for k in range(2, count):
        np.matmul(powers[:, k - 1], powers[:, 1], out=powers[:, k])
    return powers


def _combine(coefficients: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """``sum_k coefficients[k] powers[:, k]``, as one product per slice."""
    s, k, n, _ = powers.shape
    return (coefficients @ powers.reshape(s, k, n * n)).reshape(s, n, n)


def _pade_exp(A: np.ndarray, powers: np.ndarray, m: int) -> np.ndarray:
    """The [m/m] Pade approximant ``(V - U)^-1 (V + U)`` of exp at every slice of A.

    ``powers`` holds the even powers ``I, A^2, ...`` of each slice, up to
    A^6 for m = 13 and to A^(m-1) below it.  ``U + V = sum_k b_k A^k`` with
    U the odd powers and V the even ones; degree 13 forms the powers above
    A^6 by Horner's rule in A^6, so it takes six products in all.
    """
    pade = _PADE[m]
    k = 4 if m == 13 else (m + 1) // 2
    low = powers[:, :k]
    odd = _combine(pade.odd[:k], low)
    V = _combine(pade.even[:k], low)
    if m == 13:
        odd += low[:, 3] @ _combine(pade.odd[k:], low[:, 1:])
        V += low[:, 3] @ _combine(pade.even[k:], low[:, 1:])
    U = A @ odd
    return np.linalg.solve(V - U, V + U)


def _expm(A: np.ndarray, out: np.ndarray) -> None:
    """Matrix exponential of every slice of a C-contiguous (s, n, n) stack, into ``out``.

    Al-Mohy and Higham's (SIAM J. Matrix Anal. Appl. 31, 2009) Pade
    scaling and squaring with exact 1-norms, as scipy's ``expm`` runs it on
    a matrix that is not triangular: the degree and the scaling 2^-s follow
    from ``||A^k||_1^(1/k)``, which can be far below ``||A||_1`` for a
    non-normal A, corrected by :func:`_ells`; then s squarings.  Every slice
    takes its degree and squarings from its own norms, and the slices of
    each (degree, squarings) group run their products, solve and squarings
    as stacked numpy calls, which run slice by slice: no slice's result
    depends on the others.  A non-finite 1-norm gives a NaN slice; so can
    the squarings, when the result overflows.  Callers silence the
    floating-point warnings.
    """
    absA = np.abs(A)
    norms = _norms1(absA)
    live: Sequence[int] = range(len(A))
    if not all(map(math.isfinite, norms)):
        live = [k for k, norm in enumerate(norms) if math.isfinite(norm)]
        out[[k for k, norm in enumerate(norms) if not math.isfinite(norm)]] = np.nan
        if not live:
            return
        A, absA, norms = A[live], absA[live], [norms[k] for k in live]
    powers = _even_powers(A, 5)
    roots = [
        (_root(n4, 4), _root(n6, 6), _root(n8, 8))
        for n4, n6, n8 in _norms1(np.abs(powers[:, 2:]))
    ]
    low = [max(d4, d6) for d4, d6, _ in roots]
    high = [max(d6, d8) for _, d6, d8 in roots]
    # (degree, squarings) of every slice: the first degree whose bound holds
    # with no squaring added, else 13 with the squarings its norms ask for.
    plans: list[Optional[tuple[int, int]]] = [None] * len(A)
    for m, etas in ((3, low), (5, low), (7, high), (9, high)):
        theta = _PADE[m].theta
        if min(etas) > theta:
            continue
        rows = [k for k, plan in enumerate(plans) if plan is None and etas[k] <= theta]
        if rows:
            for k, ell in zip(rows, _ells(_take(absA, rows), [norms[k] for k in rows], m)):
                if ell == 0:
                    plans[k] = (m, 0)
    rows = [k for k, plan in enumerate(plans) if plan is None]
    if rows:
        P = _take(powers, rows)
        # Degree 13 from its scaling 2^-s, then the correction at A 2^-s, per s.
        scalings: dict[int, list[int]] = {}
        for k, d10 in zip(rows, _norms1(np.abs(P[:, 2] @ P[:, 3]))):
            # ||A^k||^(1/k) <= ||A||: the norm stands in where a power overflowed.
            eta = min(high[k], max(roots[k][2], _root(d10, 10)), norms[k])
            s = math.ceil(math.log2(eta / _PADE[13].theta)) if eta > 0.0 else 0
            scalings.setdefault(max(0, s), []).append(k)
        for s, group in scalings.items():
            scaled = np.abs(_take(A, group) * 2.0**-s)
            for k, ell in zip(group, _ells(scaled, _norms1(scaled), 13)):
                plans[k] = (13, s + ell)
    groups: dict[tuple[int, int], list[int]] = {}
    for k, plan in enumerate(plans):
        groups.setdefault(plan, []).append(k)
    for (m, s), rows in groups.items():
        Ag = _take(A, rows)
        if s:
            Ag = Ag * 2.0**-s
            E = _pade_exp(Ag, _even_powers(Ag, 4), m)
        else:
            E = _pade_exp(Ag, _take(powers, rows), m)
        for _ in range(s):
            E = E @ E
        targets = [live[k] for k in rows]
        if len(targets) == len(out):
            out[...] = E
        else:
            out[targets] = E


def mat_exp(M: np.ndarray) -> np.ndarray:
    """Matrix exponential (Pade scaling and squaring, in numpy).

    Raises OverflowError when the result leaves the representable range.
    """
    out, errors = mat_exp_stack(np.asarray(M, dtype=np.complex128)[None])
    if errors[0] is not None:
        raise errors[0]
    return out[0]


def mat_exp_stack(M: np.ndarray) -> tuple[np.ndarray, list[Optional[OverflowError]]]:
    """Matrix exponential of every matrix of an (s, n, n) stack, in one call.

    One scaling and squaring pass over the stack, ``_EXP_CHUNK_BYTES`` of
    input at a time, so that no temporary grows with the stack.  Within a
    chunk the slices are grouped by Pade degree and squarings, and each
    group runs as stacked numpy calls.  Those run slice by slice, so every
    slice is bit-identical to :func:`mat_exp` of that slice alone.  Returns
    the stack and, per slice, None or the OverflowError :func:`mat_exp`
    raises for it; an overflowed slice is not finite.
    """
    M = np.asarray(M, dtype=np.complex128)
    out = np.empty_like(M)
    errors: list[Optional[OverflowError]] = []
    step = max(1, _EXP_CHUNK_BYTES // (M.itemsize * M.shape[-1] ** 2 or 1))
    for start in range(0, len(M), step):
        chunk = out[start : start + step]
        # The result is checked below, so the warnings of an overflow are noise.
        with np.errstate(over="ignore", invalid="ignore"):
            # One memory layout, so that a slice's products are the same in any stack.
            _expm(np.ascontiguousarray(M[start : start + step]), chunk)
        errors += [
            None if ok else OverflowError("matrix exponential overflowed the representable range")
            for ok in np.isfinite(chunk).all(axis=(1, 2))
        ]
    return out, errors


def spectrum_split(s: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> tuple[int, float, float]:
    """Numerical rank of a descending singular-value array, with its diagnostics.

    Returns ``(rank, decisive_sv, margin)``: ``rank`` counts the values
    above ``max(tol.abs, tol.rel * s[0])``, ``decisive_sv`` is the smallest
    value kept (or the largest dropped when the rank is zero) and
    ``margin >= 1`` is the factor by which the values clear the threshold
    on both sides of the cut.  A margin close to 1 means the rank decision
    is near-threshold and should not be trusted.  :func:`rank_split` and
    the strong-regularity criteria all decide rank through this rule.
    """
    thr = tol.threshold(s[0] if s.size else 0.0)
    rank = int(np.sum(s > thr))
    above = s[rank - 1] / thr if rank > 0 and thr > 0 else np.inf
    below = thr / s[rank] if rank < s.size and s[rank] > 0 else np.inf
    decisive = float(s[rank - 1]) if rank > 0 else (float(s[0]) if s.size else 0.0)
    return rank, decisive, float(min(above, below))


def rank_split(family, tol: Tolerance = DEFAULT_TOL) -> tuple[int, float, float]:
    """Numerical rank of a family of matrices viewed as flat vectors.

    ``family`` is an (m, n, n) stack, or anything ``np.asarray`` makes one
    of, such as a list of equal-shape matrices.  Returns the
    :func:`spectrum_split` of its m flattened members.  A family with a
    non-finite entry has no numerical rank: it gives ``(0, nan, nan)``, so
    no full-rank test passes on it and no margin vouches for the result.
    """
    family = np.asarray(family, dtype=np.complex128)
    if family.shape[0] == 0:
        raise ValueError("empty family")
    family = family.reshape(family.shape[0], -1)
    if not np.all(np.isfinite(family)):
        return 0, math.nan, math.nan
    s = np.linalg.svd(family, compute_uv=False)
    return spectrum_split(s, tol)


def _fro(Y: np.ndarray) -> float:
    """Frobenius norm that neither overflows nor underflows.

    The entries are scaled by the exact power of two that brings the
    largest modulus into [1/2, 1), and the norm is scaled back.  The factor
    is applied in two halves, because for a subnormal peak the whole factor
    is not representable.  Exact scaling leaves the norm unchanged where
    the plain sum of squares neither overflows nor underflows, so it is
    taken unscaled when its value shows that neither happened.
    """
    y = Y.reshape(-1)
    # vdot is one BLAS call, and an overflow in it leaves inf with no warning.
    norm = math.sqrt(np.vdot(y, y).real)
    if _TINY_NORM < norm < math.inf:
        return norm
    with np.errstate(over="ignore"):
        peak = float(np.max(np.abs(y), initial=0.0))
    if not 0.0 < peak < math.inf:
        return peak
    exponent = math.frexp(peak)[1]
    half = exponent // 2
    scaled = y * 2.0**-half
    scaled *= 2.0 ** (half - exponent)
    try:
        return math.ldexp(math.sqrt(np.vdot(scaled, scaled).real), exponent)
    except OverflowError:
        return math.inf


def _reorthogonalize(y: np.ndarray, basis: np.ndarray) -> float:
    """Remove from y, in place, its components along the orthonormal rows of basis.

    Classical Gram-Schmidt, with a second pass only when the first removes
    more than ``1 - 1/sqrt(2)`` of the norm (the Daniel-Gragg-Kaufman-Stewart
    criterion: the one case where a single pass can leave y far from
    orthogonal).  Returns the norm of what is left.
    """
    norm = _fro(y)
    if basis.shape[0] == 0:
        return norm
    for _ in range(2):
        y -= (y.conj() @ basis.T).conj() @ basis
        previous, norm = norm, _fro(y)
        if not norm < _SQRT_HALF * previous:
            break
    return norm


def krylov_basis(M: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Frobenius-orthonormal Arnoldi basis of ``span{I, M, ..., M^(n-1)}``.

    Runs Arnoldi for ``Z -> (M - mu I) Z`` from ``I / sqrt(n)``, with
    ``mu = tr(M) / n``: the shift leaves the span unchanged and keeps
    rounding relative to the spread ``||M - mu I||_F``.  Each new direction
    is orthogonalized against the basis so far, and the process stops
    at the first one whose norm is at or below ``tol.threshold(spread)``:
    the span is then invariant.  O(n^4) in all.

    Returns ``(Q, s)``.  ``Q`` is a ``(k, n, n)`` stack of orthonormal
    matrices spanning ``span{I, ..., M^(k-1)}``; ``s`` holds the spread and
    the norms of the new directions in descending order, so that
    :func:`spectrum_split` of ``s`` counts ``k`` for any M that is not
    numerically scalar.  M is regular (its centralizer is this span) exactly
    when ``k = n``.
    """
    n = M.shape[0]
    shifted = M - (np.trace(M) / n) * np.eye(n, dtype=np.complex128)
    spread = _fro(shifted)
    thr = tol.threshold(spread)
    Q = np.empty((n, n * n), dtype=np.complex128)
    Q[0] = np.eye(n, dtype=np.complex128).reshape(-1) / math.sqrt(n)
    norms = [spread]
    k = 1
    while k < n:
        w = (shifted @ Q[k - 1].reshape(n, n)).reshape(-1)
        h = _reorthogonalize(w, Q[:k])
        norms.append(h)
        if not h > thr:
            break
        Q[k] = w / h
        k += 1
    return Q[:k].reshape(k, n, n), np.sort(norms)[::-1]


def _bidiagonal_top(a: np.ndarray, b: np.ndarray, scale: float) -> float:
    """Largest singular value of the upper bidiagonal matrix with diagonal a, superdiagonal b.

    The square root of the top eigenvalue of the tridiagonal ``B^T B``
    (LAPACK ``dsterf``, no vectors), formed from the entries divided by
    ``scale``, an upper bound on them, so that no square overflows.
    """
    from scipy.linalg.lapack import dsterf

    if not b.size:
        return float(a[0])
    a, b = a / scale, b / scale
    diagonal = a * a
    diagonal[1:] += b * b
    w, info = dsterf(diagonal, a[:-1] * b, overwrite_d=1, overwrite_e=1)
    if info:
        bidiagonal = np.diag(a) + np.diag(b, 1)
        return scale * float(np.linalg.svd(bidiagonal, compute_uv=False)[0])
    return scale * math.sqrt(max(float(w[-1]), 0.0))


def _top_singular(
    apply: Callable[[np.ndarray], tuple[np.ndarray, float]],
    adjoint: Callable[[np.ndarray], tuple[np.ndarray, float]],
    start: np.ndarray,
    rtol: float,
    max_steps: int,
) -> float:
    """Largest singular value of a linear map, by Golub-Kahan-Lanczos bidiagonalization.

    ``apply`` and ``adjoint`` return ``(Y, scale)`` with the true image
    ``Y / scale``, the convention of LAPACK ``trsyl``.  Both bases are
    reorthogonalized in full, so the largest singular value of the
    bidiagonal is a lower bound that never decreases; the run stops once a
    step moves it by at most ``rtol``, once the Krylov space is exhausted,
    or after ``max_steps``.  A ``scale < 1`` (the solver shrank the
    right-hand side to avoid overflow) or a non-finite image gives ``inf``.
    """
    shape, dim = start.shape, start.size
    steps = min(max_steps, dim)
    U = np.zeros((steps, dim), dtype=np.complex128)
    V = np.zeros((steps + 1, dim), dtype=np.complex128)
    V[0] = start.reshape(-1) / _fro(start)
    # The bidiagonal: alphas on the diagonal, betas above it; peak bounds both.
    alphas, betas = np.zeros(steps), np.zeros(steps)
    peak = estimate = 0.0
    for j in range(steps):
        Y, scale = apply(V[j].reshape(shape))
        y = Y.reshape(-1)
        if j:
            y = y - betas[j - 1] * U[j - 1]
        alpha = _reorthogonalize(y, U[:j])
        if scale < 1.0 or not math.isfinite(alpha):
            return math.inf
        # A new direction at rounding level of its image means the Krylov
        # space is exhausted: it is dropped, and the run ends.
        exhausted = not alpha > _EPS * _fro(Y)
        if not exhausted:
            alphas[j] = alpha
            np.divide(y, alpha, out=U[j])
            Z, scale = adjoint(U[j].reshape(shape))
            z = Z.reshape(-1) - alpha * V[j]
            beta = _reorthogonalize(z, V[: j + 1])
            if scale < 1.0 or not math.isfinite(beta):
                return math.inf
            exhausted = not beta > _EPS * _fro(Z)
            peak = max(peak, alpha)
        if not peak > 0.0:
            return 0.0
        top = _bidiagonal_top(alphas[: j + 1], betas[:j], peak)
        if exhausted or top - estimate <= rtol * top:
            return top
        estimate = top
        np.divide(z, beta, out=V[j + 1])
        betas[j] = beta
        peak = max(peak, beta)
    return estimate


def _no_reordering(eigenvalue: complex) -> int:
    return 0


def _shifted(A: np.ndarray, B: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """``A - mu I`` and ``B - mu I`` for one common ``mu = (tr A + tr B) / (na + nb)``.

    The shift leaves ``Z -> A Z - Z B`` unchanged and keeps every test of
    it relative to the spread of the two spectra, not to their magnitude.
    None for non-finite input.
    """
    A = np.asarray(A, dtype=np.complex128)
    B = np.asarray(B, dtype=np.complex128)
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
        return None
    mu = (np.trace(A) + np.trace(B)) / (A.shape[0] + B.shape[0])
    return A - mu * np.eye(A.shape[0]), B - mu * np.eye(B.shape[0])


def _schur_triangles(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur triangles of A and B, Fortran-ordered for ``trsyl``.

    Shifted input keeps ``trsyl``'s perturbation of zero divisors relative
    to the spread of the two spectra.
    """
    # scipy is imported on the fallback path only: here, in _sylvester_smin
    # and in _bidiagonal_top.
    from scipy.linalg.lapack import zgees

    forms = []
    for M in (A, B):
        # LAPACK gees without Schur vectors: only the triangle is needed.
        T, _, _, _, _, info = zgees(_no_reordering, M, compute_v=0)
        if info:
            raise np.linalg.LinAlgError("Schur factorization did not converge")
        forms.append(T)
    return forms[0], forms[1]


def _eigen_separation(A: np.ndarray, B: np.ndarray) -> float:
    """A lower bound on the smallest singular value of ``Z -> A Z - Z B``, from eigenpairs.

    For computed eigenpairs ``M V = V diag(lam) + R`` (unit columns), M is
    within ``||R||_F / s_min(V)`` in norm 2 of ``V diag(lam) V^-1``, whose
    Sylvester operator is bounded below by ``min |lam_A - lam_B|`` over
    ``kappa(V_A) kappa(V_B)`` (Stewart and Sun, *Matrix Perturbation
    Theory*, 1990, V.3).  Each perturbation moves the smallest singular
    value by at most its norm, so the bound holds for the computed
    eigenpairs themselves.  NaN or a value at most 0 bounds nothing.
    """
    spectra, kappa, slack = [], 1.0, 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for M in (A, B):
            lam, V = np.linalg.eig(M)
            s = np.linalg.svd(V, compute_uv=False)
            spectra.append(lam)
            kappa *= s[0] / s[-1]
            slack += _fro(M @ V - V * lam) / s[-1]
        gap = np.min(np.abs(spectra[0][:, None] - spectra[1][None, :]))
        return float(gap / kappa - slack)


def _sylvester_start(na: int, nb: int) -> np.ndarray:
    # Unit-modulus entries with golden-ratio phases: deterministic, and with
    # no structure a Schur basis could be orthogonal to.
    phases = 2j * np.pi * 0.6180339887498949 * np.arange(na * nb).reshape(na, nb)
    return np.exp(phases) / math.sqrt(na * nb)


def _sylvester_smin(R: np.ndarray, S: np.ndarray) -> float:
    """Smallest singular value of ``W -> R W - W S``, through its inverse."""
    from scipy.linalg.lapack import ztrsyl

    inverse_norm = _top_singular(
        lambda W: ztrsyl(R, S, W, isgn=-1)[:2],
        lambda W: ztrsyl(R, S, W, trana="C", tranb="C", isgn=-1)[:2],
        _sylvester_start(R.shape[0], S.shape[0]),
        1e-13,
        64,
    )
    return 1.0 / inverse_norm if inverse_norm > 0.0 else math.nan


def _sylvester_smax(R: np.ndarray, S: np.ndarray) -> float:
    """Largest singular value of ``W -> R W - W S``, from below; stops at a 1e-4 relative step."""
    Rh, Sh = R.conj().T, S.conj().T
    return _top_singular(
        lambda W: (R @ W - W @ S, 1.0),
        lambda W: (Rh @ W - W @ Sh, 1.0),
        _sylvester_start(R.shape[0], S.shape[0]),
        1e-4,
        64,
    )


def spectra_disjoint(A: np.ndarray, B: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether the spectra of A and B are (numerically) disjoint.

    Tests invertibility of the Sylvester operator ``Z -> A Z - Z B``, which
    is singular exactly when the two spectra intersect: its smallest
    singular value must clear ``max(tol.abs, tol.rel * s_max)``.  Both
    matrices are first shifted by one common ``mu = (tr A + tr B) / (na +
    nb)``, which leaves the operator unchanged, and the sum of their
    shifted Frobenius norms bounds ``s_max`` from above.

    The eigenvalue bound of :func:`_eigen_separation` is tried first: when
    it clears the threshold of that sum, the smallest singular value does
    too, and the answer is true with no Sylvester solve.  Otherwise, as for
    a shared or defective eigenvalue, the singular values decide.  With
    complex Schur forms ``A - mu I = U R U^H`` and ``B - mu I = V S V^H``
    the operator becomes ``W -> R W - W S`` on ``W = U^H Z V``, an
    isometry, so the singular values are those of the triangular operator.
    The smallest is the reciprocal of the largest singular value of its
    inverse, found by Lanczos bidiagonalization whose every step is two
    triangular Sylvester solves (LAPACK ``trsyl``, the back substitution of
    Bartels-Stewart), O(na nb (na + nb)) each.  A smallest value that
    clears the threshold of the Frobenius sum decides at once; otherwise
    the largest comes from the same iteration on the forward operator,
    stopped once a step moves it by less than 1e-4 relative: it only
    scales the threshold.

    A singular operator needs no special case: ``trsyl`` reports it with
    ``info = 1`` and solves with zero divisors perturbed to ``eps`` times
    the largest entry of the shifted Schur forms, so the smallest value
    comes out at rounding level of the spread of the two spectra rather
    than of their magnitude (unshifted, ``1e4 I`` against itself would read
    about 2e-12), or exactly 0 when the solve had to rescale to avoid
    overflow.  Non-finite input is never disjoint.
    """
    pair = _shifted(A, B)
    if pair is None:
        return False
    if _eigen_separation(*pair) > tol.threshold(_fro(pair[0]) + _fro(pair[1])):
        return True
    forms = _schur_triangles(*pair)
    smin = _sylvester_smin(*forms)
    if smin > tol.threshold(_fro(forms[0]) + _fro(forms[1])):
        return True
    return smin > tol.threshold(_sylvester_smax(*forms))
