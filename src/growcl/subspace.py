"""Projection algebra on stored feature subspaces.

Everything downstream (gradient surgery, grow-or-reuse decisions, memory
updates) reduces to a handful of operations on orthonormal bases: projecting
rows onto a span (their complement is what the projection leaves), measuring
the angle between a gradient and its projection, and extracting/extending
bases from representation matrices via SVD energy thresholds.

Conventions: a basis is a d x k matrix of orthonormal columns, 1 <= k <= d:
``k_rank_basis`` keeps at least one direction and ``extend_basis`` drops
none, so no stored span is empty. Gradient segments and representation
matrices stack their vectors as rows (n x d). The engine's reps and bases
are all ``d_model`` wide and ``TrainConfig`` keeps every ``eps`` in (0, 1],
so ``project_rows``, ``hfc``, ``k_rank_basis`` and ``extend_basis`` take
both as given; ``Basis`` checks what it is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ORTHO_TOL = 1e-8
# Relative floor below which singular-value energy is treated as numerical
# noise rather than a real direction.
_ENERGY_FLOOR = 1e-12


class SubspaceError(ValueError):
    """Contract violation in a subspace operation."""


@dataclass(frozen=True)
class Basis:
    """Orthonormal columns spanning a stored feature space, at least one."""

    matrix: np.ndarray  # shape (d, k), orthonormal columns

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2:
            raise SubspaceError(f"basis must be 2-d, got shape {m.shape}")
        d, k = m.shape
        if not 1 <= k <= d:
            raise SubspaceError(f"basis has {k} columns in dimension {d}, expected 1 to {d}")
        if not np.allclose(m.T @ m, np.eye(k), atol=ORTHO_TOL):
            raise SubspaceError("basis columns not orthonormal")
        object.__setattr__(self, "matrix", m)

    @property
    def rank(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class HfcValue:
    """Hindrance angle between a gradient and one of its projections; the
    constructor rejects one outside [0, pi/2], replayed angles included."""

    angle: float  # radians, in [0, pi/2]

    def __post_init__(self):
        half_pi = math.pi / 2.0
        if not -1e-12 <= self.angle <= half_pi + 1e-9:
            raise SubspaceError(f"angle {self.angle} outside [0, pi/2]")
        object.__setattr__(self, "angle", min(max(self.angle, 0.0), half_pi))

    @property
    def degrees(self) -> float:
        return math.degrees(self.angle)

    @classmethod
    def from_degrees(cls, deg: float) -> "HfcValue":
        return cls(math.radians(deg))


def _check_rows(rows: np.ndarray) -> np.ndarray:
    """Representation rows (n, d) as float64; at least one row, all finite."""
    r = np.asarray(rows, dtype=np.float64)
    if r.ndim != 2 or r.shape[0] < 1:
        raise SubspaceError(f"representation matrix needs >=1 row, got shape {r.shape}")
    if not np.all(np.isfinite(r)):
        raise SubspaceError("representation matrix contains non-finite entries")
    return r


def project_rows(rows: np.ndarray, basis: Basis) -> np.ndarray:
    """Row-wise projection of an (n, d) array onto span(basis)."""
    b = basis.matrix
    return (rows @ b) @ b.T


def hfc(g: np.ndarray, g_proj: np.ndarray) -> HfcValue:
    """Angle between a gradient and its projection.

    When the projection vanishes the angle is taken as pi/2 (the gradient is
    fully orthogonal to the target space, i.e. maximal hindrance); a
    vanishingly small projection whose float cosine dips negative lands on
    the same continuous limit.
    """
    gn = float(np.linalg.norm(g))
    if gn == 0.0:
        raise SubspaceError("gradient has zero norm")
    pn = float(np.linalg.norm(g_proj))
    if pn == 0.0:
        return HfcValue(math.pi / 2.0)
    cosine = float(np.dot(g, g_proj)) / (gn * pn)
    cosine = min(1.0, max(-1.0, cosine))
    return HfcValue(min(math.acos(cosine), math.pi / 2.0))


def _fix_signs(u: np.ndarray) -> np.ndarray:
    """Make the first component above 1e-12 in magnitude of every column
    positive (in place); a column without one is left as it is."""
    big = np.abs(u) > 1e-12
    first = big.argmax(axis=0)  # 0 for a column without one
    flip = big.any(axis=0) & (u[first, np.arange(u.shape[1])] < 0)
    u[:, flip] = -u[:, flip]
    return u


def _left_singular(rows: np.ndarray):
    """SVD of rows^T (columns = samples): left singular vectors and values."""
    u, s, _ = np.linalg.svd(rows.T, full_matrices=False)
    return _fix_signs(u), s


def _min_rank_for_energy(s: np.ndarray, eps: float, base: float = 0.0, total: float | None = None) -> int:
    """Smallest k with base + sum_{i<=k} s_i^2 >= eps * total (within float noise)."""
    energy = s * s
    cum = np.cumsum(energy)
    if total is None:
        total = float(cum[-1]) if cum.size else 0.0
    target = eps * total
    tol = total * _ENERGY_FLOOR
    if base + tol >= target:
        return 0
    reached = np.flatnonzero(base + cum + tol >= target)
    if reached.size == 0:
        # Unreachable only through float drift; fall back to every direction.
        return int(np.count_nonzero(energy > total * _ENERGY_FLOOR))
    return int(reached[0]) + 1


def k_rank_basis(rows: np.ndarray, eps: float) -> Basis:
    """Extract the minimal basis whose singular energy reaches ``eps`` of total.

    SVDs the transposed representation rows (columns = samples) and keeps
    the first k left singular vectors, with k minimal such that the cumulative
    squared singular values reach ``eps`` times the total.
    """
    rows = _check_rows(rows)
    u, s = _left_singular(rows)
    total = float(np.sum(s * s))
    if total == 0.0:
        raise SubspaceError("degenerate representation matrix (all zero)")
    k = _min_rank_for_energy(s, eps)
    k = max(k, 1)
    return Basis(u[:, :k].copy())


def _orthonormalize_against(new_cols: np.ndarray, existing: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt of ``new_cols`` against ``existing`` and each other.

    ``existing`` is never touched; columns of ``new_cols`` that collapse to
    numerical zero are dropped.
    """
    kept = []
    for j in range(new_cols.shape[1]):
        v = new_cols[:, j].copy()
        for _ in range(2):  # two MGS sweeps suppress drift well below 1e-8
            v -= existing @ (existing.T @ v)
            for w in kept:
                v -= w * (w @ v)
        n = np.linalg.norm(v)
        if n > 1e-10:
            kept.append(v / n)
    if not kept:
        return np.zeros((new_cols.shape[0], 0))
    return np.column_stack(kept)


def extend_basis(old: Basis, rows: np.ndarray, eps: float) -> Basis:
    """Append the minimal set of new directions so the stored span keeps
    ``eps`` of the new representation's energy.

    Deflates the new rows by the old span, SVDs the residual, and appends the
    fewest singular vectors h satisfying
    ``||R_proj||_F^2 + ||(R_hat)_h||_F^2 >= eps * ||R||_F^2``.
    Old columns are returned unchanged, ahead of the new ones.
    """
    rows = _check_rows(rows)
    total = float(np.sum(rows * rows))
    if total == 0.0:
        raise SubspaceError("degenerate representation matrix (all zero)")
    r_proj = project_rows(rows, old)
    residual = rows - r_proj
    base = float(np.sum(r_proj * r_proj))
    u, s = _left_singular(residual)
    # Directions with no real energy are numerical artifacts of the deflation.
    real = s * s > total * _ENERGY_FLOOR
    u, s = u[:, real], s[real]
    h = _min_rank_for_energy(s, eps, base=base, total=total)
    if h == 0:
        return old
    new_cols = _orthonormalize_against(u[:, :h], old.matrix)
    return Basis(np.hstack([old.matrix, new_cols]))
