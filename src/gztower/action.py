"""The abelian group action on towers and the exact Hamiltonian flows.

The abelian group C^(n(n-1)/2) acts by conjugating the deepest matrix
with the ordered product of exponentials

    g = exp(1 t_{11} Id_1) exp(1 t_{21} Id_2) exp(2 t_{22} X_2) ...

taken over indices (i, j), 1 <= j <= i <= n-1, in ascending lexicographic
order with all corner powers X_i^(j-1) read off the *input* tower.  With
that order the product is the closed form of composing the individual
Hamiltonian flows, so applying parameters in separate steps (each step
re-reading its corners) lands on the same point and the action is
abelian.  Permuting the raw matrix factors, by contrast, is not an
equivalent operation.

Sign convention: the Hamiltonian tangent of f_{ij} is -[j X_i^(j-1), X],
so its exact flow conjugates by exp(-t j X_i^(j-1)), while the group
action uses +t; slotwise, acting by t equals flowing by -t.  Orbits
coincide either way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .gz import GZIndex, power_table
from .matcore import embed, embed_stack, mat_exp, mat_exp_stack
from .tower import Tower

__all__ = [
    "AParams",
    "zero_params",
    "random_params",
    "params_to_dict",
    "params_from_dict",
    "params_to_json",
    "params_from_json",
    "a_act",
    "a_act_stepwise",
    "flow",
    "flow_stack",
]


@dataclass(frozen=True)
class AParams:
    """A point of the abelian group: the triangular array t_{ij}, 1 <= j <= i <= n-1."""

    n: int
    t: tuple[tuple[complex, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("group level n must be at least 1")
        rows = tuple(tuple(complex(x) for x in row) for row in self.t)
        if len(rows) != self.n - 1 or any(len(rows[i]) != i + 1 for i in range(len(rows))):
            raise ValueError(
                f"parameter array must have rows of lengths 1..{self.n - 1}"
            )
        object.__setattr__(self, "t", rows)

    def get(self, i: int, j: int) -> complex:
        if not 1 <= j <= i <= self.n - 1:
            raise IndexError(f"parameter index ({i}, {j}) out of range for n={self.n}")
        return self.t[i - 1][j - 1]

    def __add__(self, other: "AParams") -> "AParams":
        if self.n != other.n:
            raise ValueError("cannot add parameters of different levels")
        return AParams(
            self.n,
            tuple(
                tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.t, other.t)
            ),
        )


def zero_params(n: int) -> AParams:
    return AParams(n, tuple(tuple(0j for _ in range(i)) for i in range(1, n)))


def random_params(rng: np.random.Generator, n: int, scale: float = 1.0) -> AParams:
    rows = []
    for i in range(1, n):
        re = rng.standard_normal(i)
        im = rng.standard_normal(i)
        rows.append(tuple(scale * complex(a, b) / np.sqrt(2.0) for a, b in zip(re, im)))
    return AParams(n, tuple(rows))


def params_to_dict(a: AParams) -> dict:
    return {
        "n": a.n,
        "t": [[[z.real, z.imag] for z in row] for row in a.t],
    }


def params_from_dict(data: dict) -> AParams:
    try:
        n = int(data["n"])
        rows = tuple(
            tuple(complex(re, im) for re, im in row) for row in data["t"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed parameter data: {exc}") from exc
    return AParams(n, rows)


def params_to_json(a: AParams) -> str:
    return json.dumps(params_to_dict(a), sort_keys=True)


def params_from_json(text: str) -> AParams:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    return params_from_dict(data)


def _conjugate(g: np.ndarray, X: np.ndarray) -> np.ndarray:
    out, errors = _conjugate_stack(g[None], X)
    if errors[0] is not None:
        raise errors[0]
    return out[0]


def _conjugate_stack(
    g: np.ndarray, X: np.ndarray
) -> tuple[np.ndarray, list[Optional[Exception]]]:
    """``g X g^{-1}`` for every conjugator of an (s, N, N) stack.

    Solves on the right factor.  numpy's stacked products and solves run
    slice by slice, so each slice is bit-identical to its own call.
    Returns the conjugates and, per slice, None or the error that slice
    raises alone: LinAlgError for a singular conjugator, OverflowError for
    a conjugate that is not finite.
    """
    swap = (-1, -2)
    with np.errstate(over="ignore", invalid="ignore"):
        Y = g @ X
        try:
            out = np.linalg.solve(g.swapaxes(*swap), Y.swapaxes(*swap)).swapaxes(*swap)
            errors: list[Optional[Exception]] = [None] * len(g)
        except np.linalg.LinAlgError:
            # A singular slice fails the whole stacked solve; find it slice by slice.
            out = np.full_like(Y, np.nan)
            errors = []
            for s, (gs, Ys) in enumerate(zip(g, Y)):
                try:
                    out[s] = np.linalg.solve(gs.T, Ys.T).T
                    errors.append(None)
                except np.linalg.LinAlgError:
                    errors.append(
                        np.linalg.LinAlgError(
                            "conjugator is numerically singular; the exponential factors "
                            "are too ill-conditioned at this scale"
                        )
                    )
    for s in np.flatnonzero(~np.isfinite(out).all(axis=(1, 2))):
        if errors[s] is None:
            errors[s] = OverflowError("conjugated matrix overflowed; reduce parameters or scale")
    return out, errors


def _nonzero_terms(a: AParams) -> list[tuple[int, int, complex]]:
    """Every (i, j, t_ij) with t_ij != 0, in ascending lexicographic order."""
    return [
        (i, j, t)
        for i, row in enumerate(a.t, start=1)
        for j, t in enumerate(row, start=1)
        if t != 0
    ]


def _action_product(terms: list[tuple[int, int, complex]], T: Tower, N: int) -> np.ndarray:
    """Ordered product of the factors exp(j t X_i^(j-1)) of ``terms`` at level N.

    Factors multiply in the order of ``terms``; every corner power is
    taken from the input tower, formed as X_i^(j-1) = X_i^(j-2) X_i from
    the identity and only up to the largest j a level needs.  Callers
    leave zero parameters out: their factor expm(0) is exactly I.
    """
    g = np.eye(N, dtype=np.complex128)
    powers: dict[int, list[np.ndarray]] = {}
    for i, j, t in terms:
        table = powers.setdefault(i, [np.eye(i, dtype=np.complex128)])
        while len(table) < j:
            table.append(table[-1] @ T.level(i))
        # An overflowed product is left non-finite, without a warning: callers check it.
        with np.errstate(over="ignore", invalid="ignore"):
            g = g @ mat_exp(embed(j * t * table[j - 1], N))
    return g


def _require_depth(a: AParams, T: Tower) -> None:
    if a.n > T.depth + 1:
        raise IndexError(
            f"parameter level {a.n} needs corners up to {a.n - 1}, "
            f"but the tower has depth {T.depth}"
        )


def _act(terms: list[tuple[int, int, complex]], T: Tower) -> Tower:
    g = _action_product(terms, T, T.depth)
    if not np.all(np.isfinite(g)):
        raise OverflowError("action factors overflowed; reduce parameters or scale")
    return Tower(_conjugate(g, T.top))


def a_act(a: AParams, T: Tower) -> Tower:
    """Act on a tower by the abelian group element with parameters ``a``.

    Requires a.n <= depth + 1 (the factors read corners up to level
    a.n - 1).  Zero parameters act as the exact identity.  Costs one
    matrix exponential per nonzero parameter.
    """
    _require_depth(a, T)
    return _act(_nonzero_terms(a), T)


def a_act_stepwise(a: AParams, T: Tower, order: list[GZIndex]) -> Tower:
    """Apply the action one parameter at a time, in the given order.

    Each step is a full single-parameter action reading its corner powers
    off the current point.  Because the underlying flows commute, any
    order lands on the same point as :func:`a_act`; this entry point
    exists to exercise exactly that property.
    """
    seen = set()
    for idx in order:
        if not 1 <= idx.j <= idx.i <= a.n - 1 or idx in seen:
            raise ValueError("order must enumerate each parameter index exactly once")
        seen.add(idx)
    if len(seen) != a.n * (a.n - 1) // 2:
        raise ValueError("order must cover all parameter indices")
    _require_depth(a, T)
    current = T
    for idx in order:
        t = a.get(idx.i, idx.j)
        current = _act([(idx.i, idx.j, t)] if t != 0 else [], current)
    return current


def flow(T: Tower, idx: GZIndex, t: complex) -> Tower:
    """Exact Hamiltonian flow of f_{ij} for time t.

    A single conjugation by ``exp(-t j X_i^(j-1))``: the generator is
    constant along its own flow, so no stepping is needed.  The corner
    X_i (and everything below) is fixed; all observables tr(X_k^l) are
    conserved.  Flowing a top-level index is allowed and acts trivially.
    This is the one-flow case of :func:`flow_stack` on the gradient that
    the tower's :func:`~gztower.gz.power_table` stores; it raises the
    error that the stack reports for it.
    """
    table = power_table(T)
    tops, errors = flow_stack(table.top, [table.gradient(idx)], [t])
    if errors[0] is not None:
        raise errors[0]
    return Tower(tops[0])


def flow_stack(
    top: np.ndarray, generators: Sequence[np.ndarray], ts: Sequence[complex]
) -> tuple[np.ndarray, list[Optional[Exception]]]:
    """The flow of every generator of ``generators`` at every time of ``ts``, evaluated together.

    Each generator P is a square matrix at its own level, no larger than
    ``top``; its flow conjugates ``top`` by ``exp(-t embed(P))``.  For the
    gradient ``j X_i^(j-1)`` of f_{ij} that is the exact Hamiltonian flow
    :func:`flow` takes; for any polynomial in X_i it is a flow of the
    abelian group.  One stacked ``expm`` of every ``-t P`` and one stacked
    conjugation of the top; each slice is bit-identical to a stack of its
    own.  Returns the ``(len(generators) * len(ts), N, N)`` stack of
    flowed tops, generator-major (slice ``a * len(ts) + k`` is generator
    a at time k), and, per slice, None or the error :func:`flow` raises
    for it: OverflowError when the exponential or the conjugate overflows,
    LinAlgError when the conjugator is singular.  A failed slice fails
    only itself, and its top is not meaningful.
    """
    N = top.shape[0]
    for P in generators:
        if P.shape[0] > N:
            raise IndexError(f"generator level {P.shape[0]} exceeds tower depth {N}")
    P = embed_stack(generators, N)
    times = np.asarray(ts, dtype=np.complex128)
    # A generator that overflowed leaves its exponentials non-finite, and they fail.
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = (-times[:, None, None] * P[:, None]).reshape(-1, N, N)
    g, exp_errors = mat_exp_stack(scaled)
    tops, errors = _conjugate_stack(g, top)
    # The exponential fails first, as it does in a single flow.
    return tops, [e if e is not None else c for e, c in zip(exp_errors, errors)]
