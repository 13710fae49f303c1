"""Corner-compatible matrix towers.

A tower of depth N is a point of the inverse system
``gl(1) <- gl(2) <- ... <- gl(N)`` whose transition maps take upper-left
corners.  Because every shallower level is forced to be a corner of the
deepest matrix, a tower stores only its deepest level; corner
compatibility then holds exactly, never approximately.  A tangent to
the space of towers, ``-[embed(g, k), X(k)]`` for a generator g, is
formed only in stacks, by :func:`~gztower.matcore.tangent_values`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .matcore import DEFAULT_TOL, Tolerance, _eigen, as_cmatrix, corner, spectra_disjoint

__all__ = [
    "GenerationError",
    "Tower",
    "random_entries",
    "unit_disk",
    "random_theta_tower",
    "tower_to_dict",
    "tower_from_dict",
    "tower_to_json",
    "tower_from_json",
    "RNG_ALGORITHM",
]

# Recorded in reports so runs are reproducible across machines.
RNG_ALGORITHM = "numpy.random.PCG64"
# Candidate borders random_theta_tower draws for one level before it gives up.
MAX_RETRIES = 100


class GenerationError(RuntimeError):
    """Rejection sampling exhausted its retry budget."""


@dataclass(frozen=True, eq=False)
class Tower:
    """Finite-depth corner-compatible tower, stored by its deepest matrix."""

    top: np.ndarray

    def __post_init__(self) -> None:
        validated = as_cmatrix(self.top)
        validated.flags.writeable = False
        object.__setattr__(self, "top", validated)

    @property
    def depth(self) -> int:
        return self.top.shape[0]

    def level(self, n: int) -> np.ndarray:
        """The n-th matrix of the tower: the n x n corner of the top."""
        if not 1 <= n <= self.depth:
            raise IndexError(f"level {n} out of range for depth {self.depth}")
        return corner(self.top, n)


def unit_disk(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The complex Gaussians ``(re + i im) / sqrt(2)``, projected onto the closed unit disk."""
    g = (re + 1j * im) / np.sqrt(2.0)
    mag = np.abs(g)
    return np.where(mag > 1.0, g / np.maximum(mag, 1e-300), g)


def random_entries(rng: np.random.Generator, shape, scale: float) -> np.ndarray:
    """Complex-Gaussian entries with magnitude clipped to ``scale``.

    Each entry is a standard complex Gaussian rescaled onto the closed
    disk of radius ``scale`` (entries beyond unit magnitude are projected
    to the circle).  Deterministic given the generator state.
    """
    return scale * unit_disk(rng.standard_normal(shape), rng.standard_normal(shape))


def random_theta_tower(
    depth: int,
    seed: int,
    scale: float = 1.0,
    tol: Tolerance = DEFAULT_TOL,
) -> Tower:
    """Random tower whose consecutive-level spectra are disjoint.

    Grows level by level; each new border is rejection-sampled until the
    Sylvester-operator test confirms the new level's spectrum avoids the
    previous one.  Each matrix is decomposed once: the accepted level's
    eigenpairs serve every candidate above it.  Failure after
    ``MAX_RETRIES`` attempts on one level raises GenerationError
    (probability ~0 for continuous samples; the bound exists to prevent
    hangs).
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if scale <= 0:
        raise ValueError("scale must be positive")
    rng = np.random.Generator(np.random.PCG64(seed))
    top = random_entries(rng, (1, 1), scale)
    top_eigen = _eigen(top)
    while top.shape[0] < depth:
        n = top.shape[0]
        for _ in range(MAX_RETRIES):
            cand = np.zeros((n + 1, n + 1), dtype=np.complex128)
            cand[:n, :n] = top
            cand[:n, n] = random_entries(rng, (n,), scale)
            cand[n, :n] = random_entries(rng, (n,), scale)
            cand[n, n] = complex(random_entries(rng, (), scale))
            cand_eigen = _eigen(cand)
            if spectra_disjoint(top, cand, tol, (top_eigen, cand_eigen)):
                top, top_eigen = cand, cand_eigen
                break
        else:
            raise GenerationError(
                f"no spectrum-disjoint extension found at level {n} "
                f"after {MAX_RETRIES} attempts"
            )
    return Tower(top)


def _complex_to_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def tower_to_dict(T: Tower) -> dict:
    """JSON-ready dict: row-major entries as [re, im] pairs."""
    return {
        "depth": T.depth,
        "top": [[_complex_to_pair(z) for z in row] for row in T.top.tolist()],
    }


def tower_from_dict(data: dict) -> Tower:
    try:
        depth = int(data["depth"])
        rows = data["top"]
        top = np.array(
            [[complex(re, im) for re, im in row] for row in rows], dtype=np.complex128
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed tower data: {exc}") from exc
    T = Tower(top)
    if T.depth != depth:
        raise ValueError(f"declared depth {depth} does not match matrix size {T.depth}")
    return T


def tower_to_json(T: Tower) -> str:
    return json.dumps(tower_to_dict(T), sort_keys=True)


def tower_from_json(text: str) -> Tower:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    return tower_from_dict(data)
