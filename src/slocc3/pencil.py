"""Kronecker structure of the slice pencil of a 2 x M x N tensor.

The two mode-1 slices S0, S1 of a 2 x M x N tensor span the pencil
x*S0 + y*S1.  Its complete strict-equivalence invariants are the minimal
row and column indices plus the elementary divisor structure: a partition
of Jordan block sizes attached to each point (x0 : y0) of the projective
parameter line where the pencil drops below its normal rank.  Everything
here is computed numerically from SVD rank decisions against the pencil
scaled to unit norm.  That scale is reached in two steps: first an exact
power of two taken from the largest entry, so no norm overflows or
underflows at any nonzero input scale, then the larger slice norm.

* the normal rank as the largest rank at six fixed generic points,
* minimal indices from nullities of block Sylvester matrices (the dimension
  of degree-d polynomial null vectors),
* candidate eigen-points from the eigenvalues of one square completion:
  the pencil, scaled to unit largest entry, in the corner of a fixed
  generic R x R pencil, R = M + N - r (r the normal rank).  The completion
  is regular and singular wherever the pencil drops below rank r, so one
  ``eigvals`` call lists every eigen-point, each verified by an actual rank
  drop (the same padding, at R = the rank, is ``rank``'s decomposition),
* candidate roots clustered at a fine and a coarse chordal radius, the
  coarse one only needed when the fine one leaves a multiple root split;
  the drops and jets at both radii's points are decided in one pass,
* the partition at a point from nullities of jet (block bidiagonal)
  matrices less their reference value k*(N - r) for the k-jet: each of the
  N - r blocks L_eps has full row rank at every point, so its k-jet has
  nullity k, while the blocks L_eta^T and the regular part away from its
  eigen-points add nothing.

Each stage decides its ranks in one stacked ``np.linalg.svd`` call: the
pencils at the six generic points, the pencils at every candidate
eigen-point of either radius, and, per order k, the k-jets at every
eigen-point.  Numpy runs the same LAPACK routine on each matrix of a stack,
so every decision is the one a call per matrix makes.  Only the Sylvester
nullities stay one call per degree, as their shapes grow with it and the
search stops early.  The fixed draws (generic points, padding pencil) are
made once per size.

Local one-party maps on the 2-dimensional mode act as Moebius maps on the
parameter line: they move eigenvalues but preserve the partition data and
the minimal indices, which is what classification uses.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .tensor import as_tensor, check_tol, complex_to_pairs, ldexp, unit_exponent

PENCIL_RANK_TOL = 1e-8
EIGEN_CLUSTER_RADIUS = 1e-6
# the fine radius, and the coarse one tried when it leaves a multiple root split
_CLUSTER_RADII = (EIGEN_CLUSTER_RADIUS, 1e-4)


@dataclass
class PencilInvariants:
    """Kronecker invariants of an M x N pencil.

    ``finite_divisors`` maps each finite eigenvalue (of S0 + lambda*S1) to
    its partition of block sizes; ``infinite_partition`` is the partition at
    the point (0 : 1).  ``borderline`` is set when the divisor degrees
    found do not sum to the expected total at either clustering radius, so
    a root was missed; ``condition_note`` then gives the sum found.
    """

    shape: tuple
    normal_rank: int
    col_min_indices: tuple
    row_min_indices: tuple
    finite_divisors: tuple  # ((eigenvalue, partition), ...)
    infinite_partition: tuple
    borderline: bool = False
    condition_note: str = ""

    def all_partitions(self) -> tuple:
        parts = [p for _, p in self.finite_divisors]
        if self.infinite_partition:
            parts.append(self.infinite_partition)
        return tuple(sorted(parts))

    def signature(self) -> tuple:
        """Invariant under slice equivalence and parameter Moebius maps."""
        return (self.col_min_indices, self.row_min_indices, self.all_partitions())

    def to_json(self) -> str:
        return json.dumps(
            {
                "shape": list(self.shape),
                "normal_rank": self.normal_rank,
                "col_min_indices": list(self.col_min_indices),
                "row_min_indices": list(self.row_min_indices),
                "finite_divisors": [
                    {"eigenvalue": complex_to_pairs(ev)[0], "partition": list(p)}
                    for ev, p in self.finite_divisors
                ],
                "infinite_partition": list(self.infinite_partition),
                "borderline": self.borderline,
                "condition_note": self.condition_note,
            },
            sort_keys=True,
        )


def _unit_points(points) -> np.ndarray:
    """Points (x : y) of the parameter line scaled to unit norm: rows x and y
    of a (2, count) array."""
    return np.array([(x / sc, y / sc) for x, y in points
                     for sc in [np.hypot(abs(x), abs(y))]]).T


# six generic points at which the normal rank is read, drawn once
_GENERIC_POINTS = _unit_points((complex(*v[:2]), complex(*v[2:]))
                               for v in np.random.default_rng(20230517).standard_normal((6, 4)))
_GENERIC_POINTS.setflags(write=False)


def _pencils(s0, s1, x, y) -> np.ndarray:
    """Stack of x_i*S0 + y_i*S1 over the entries of x and y."""
    return x[:, None, None] * s0 + y[:, None, None] * s1


def _ranks(mats, tol):
    """Ranks of a stack of matrices (or of one), in one SVD call: singular
    values above ``tol``, relative to the unit-norm pencil and not to each
    matrix.  P(x, y) that vanishes at a point has rank 0 there; a threshold
    relative to P(x, y) itself counts round-off as rank."""
    return (np.linalg.svd(mats, compute_uv=False) > tol).sum(axis=-1)


def _normal_rank(s0, s1, tol) -> int:
    return int(np.max(_ranks(_pencils(s0, s1, *_GENERIC_POINTS), tol)))


def _sylvester(s0, s1, degree: int) -> np.ndarray:
    """Coefficient matrix of (x*S0 + y*S1) v(x, y) = 0 on homogeneous
    degree-``degree`` vector polynomials v."""
    m, n = s0.shape
    rows, cols = (degree + 2) * m, (degree + 1) * n
    out = np.zeros((rows, cols), dtype=complex)
    for i in range(degree + 1):
        out[i * m : (i + 1) * m, i * n : (i + 1) * n] = s0
        out[(i + 1) * m : (i + 2) * m, i * n : (i + 1) * n] = s1
    return out


def _minimal_indices(s0, s1, count: int, tol) -> tuple:
    """Degrees of a minimal basis of the right polynomial null space."""
    if count == 0:
        return ()
    indices = []
    prev_nullity = 0
    prev_cum = 0
    max_degree = s0.shape[1] + s0.shape[0] + 1
    for d in range(max_degree + 1):
        nul = (d + 1) * s0.shape[1] - _ranks(_sylvester(s0, s1, d), tol)
        cum = nul - prev_nullity  # number of minimal indices <= d
        for _ in range(cum - prev_cum):
            indices.append(d)
        prev_nullity, prev_cum = nul, cum
        if len(indices) == count:
            return tuple(indices)
    raise ArithmeticError("minimal index extraction did not terminate")


# fixed generic rotation of a pencil's two slices, so the inverted one is
# regular whenever the pencil is
_MIX = np.array([[0.9397, 0.3420], [-0.3420, 0.9397]])


def _mixed_quotient(p0, p1):
    """ga gb^-1 and gb, for the slices ga, gb of a square pencil mixed by
    ``_MIX``; ga - lam*gb is the pencil at x = _MIX[0, 0] - lam*_MIX[1, 0],
    y = _MIX[0, 1] - lam*_MIX[1, 1].  Raises LinAlgError when gb is
    singular."""
    ga = _MIX[0, 0] * p0 + _MIX[0, 1] * p1
    gb = _MIX[1, 0] * p0 + _MIX[1, 1] * p1
    return ga @ np.linalg.inv(gb), gb


def _diagonalize_pencil(p0, p1):
    """Simultaneous diagonalisation p_k = w @ diag(c[k]) @ v.T of a regular
    r x r pencil, by one eigendecomposition of the mixed slices ga gb^-1.

    With ga gb^-1 = w diag(lam) w^-1 and v.T = w^-1 gb, ga = w diag(lam) v.T
    and gb = w v.T; undoing the mix gives c = _MIX^-1 [lam; 1].  Any
    eigenvector basis of a repeated eigenvalue serves when the pencil is
    diagonalisable.  Raises LinAlgError when gb is singular.
    """
    quotient, gb = _mixed_quotient(p0, p1)
    lam, w = np.linalg.eig(quotient)
    # gb = w (w^-1 gb): the rows of w^-1 gb pair with w's columns
    v = np.linalg.solve(w, gb).T
    c = np.linalg.solve(_MIX, np.stack([lam, np.ones_like(lam)]))
    return w, v, c


@functools.cache
def _padding(r: int) -> np.ndarray:
    """Fixed generic 2 x r x r pencil whose entries pad a pencil to r x r,
    drawn once per r; read-only, since every call shares it."""
    rng = np.random.default_rng(1979)
    pencil = rng.standard_normal((2, r, r)) + 1j * rng.standard_normal((2, r, r))
    pencil.setflags(write=False)
    return pencil


def _completion_roots(s0, s1, r) -> list:
    """Values y/x that include every eigen-point of the M x N pencil of
    normal rank ``r``: the finite eigenvalues of its square completion.

    The pencil, scaled to unit largest entry, is written into the corner of
    the generic ``_padding(M + N - r)``, a regular pencil of size R.  Where
    the pencil drops below rank r, the completion has rank at most
    (r - 1) + (R - M) + (R - N) = R - 1, so it is singular there.  One
    ``eigvals`` call of the mixed slices ga gb^-1 gives its eigen-points;
    none when gb is singular, which leaves the degree identity to fail.
    """
    m, n = s0.shape
    pencil = _padding(m + n - r).copy()
    scale = max(np.max(np.abs(s0)), np.max(np.abs(s1)))
    pencil[:, :m, :n] = s0 / scale, s1 / scale
    try:
        lam = np.linalg.eigvals(_mixed_quotient(*pencil)[0])
    except np.linalg.LinAlgError:
        return []
    x, y = _MIX[0][:, None] - _MIX[1][:, None] * lam
    # x = 0 is the point at infinity, which the invariants always test
    return [b / a for a, b in zip(x.tolist(), y.tolist()) if a]


def _clustered(lams, cluster_radius) -> list:
    """The point at infinity, then the centroid of each cluster of the roots
    ``lams``, gathered in root order (a centroid approximates a multiple
    root far better than its perturbed roots)."""
    clusters = []
    for lam in lams:
        for cl in clusters:
            if _chordal((1.0, lam), (1.0, sum(cl) / len(cl))) <= cluster_radius:
                cl.append(lam)
                break
        else:
            clusters.append([lam])
    return [(0j, 1 + 0j)] + [(1 + 0j, sum(cl) / len(cl)) for cl in clusters]


def _chordal(p1, p2) -> float:
    (x1, y1), (x2, y2) = p1, p2
    return abs(x1 * y2 - x2 * y1) / (math.hypot(abs(x1), abs(y1)) * math.hypot(abs(x2), abs(y2)))


def _drops_and_jets(s0, s1, points, r, kmax, tol):
    """The ``points`` where the pencil drops below rank ``r``, and the
    nullities (drops, kmax) of its k-jets there, k = 1..kmax.  The k-jet at
    a unit point (x, y) is block lower bidiagonal, P(x, y) on the diagonal
    and P(-conj y, conj x) below it, so the 1-jet is P(x, y) itself: one SVD
    call decides every drop and every 1-jet, and one per k >= 2 every k-jet."""
    x, y = _unit_points(points)
    p = _pencils(s0, s1, x, y)
    ranks = _ranks(p, tol)
    drop = ranks < r
    p, x, y = p[drop], x[drop], y[drop]
    (count, m, n), p_perp = p.shape, _pencils(s0, s1, -np.conj(y), np.conj(x))
    # the k-jet is the leading k x k block of the kmax-jet
    jets = np.zeros((count, kmax, m, kmax, n), dtype=complex)
    for i in range(kmax):
        jets[:, i, :, i] = p
        if i:
            jets[:, i, :, i - 1] = p_perp
    nullities = [n - ranks[drop]] + [
        k * n - _ranks(jets[:, :k, :, :k].reshape(count, k * m, k * n), tol)
        for k in range(2, kmax + 1)] if count else []
    return [pt for pt, d in zip(points, drop) if d], np.transpose(nullities)


def _partition_from_weyr(deltas):
    """Partition whose conjugate is the sequence of nullity increments, or
    None if an increment is negative or exceeds the one before it."""
    weyr = [b - a for a, b in zip([0] + deltas, deltas)] + [0]
    if min(weyr) < 0 or any(a < b for a, b in zip(weyr, weyr[1:])):
        return None
    return tuple(s for s in range(len(weyr) - 1, 0, -1) for _ in range(weyr[s - 1] - weyr[s]))


def _eigen_candidates(roots, cluster_radius) -> list:
    """The points of :func:`_clustered` at ``cluster_radius``, less any
    within that radius of an earlier one (a large root near infinity)."""
    points = []
    for cand in _clustered(roots, cluster_radius):
        if all(_chordal(cand, q) > cluster_radius for q in points):
            points.append(cand)
    return points


def _assign_divisors(decided, points, n, r, total_divisor, cluster_radius):
    """Eigen-points and their partitions for one choice of cluster radius.

    ``decided`` maps each candidate point where the pencil drops below rank
    ``r`` to its jet nullities (:func:`_drops_and_jets`); the partition at
    a point comes from them less k*(n - r): the n - r blocks L_eps have full
    row rank at every point, so their k-jet has nullity k each."""
    notes = []
    base = np.arange(1, total_divisor + 1) * (n - r)
    finite = []
    infinite = ()
    assigned = 0
    for pt in points:
        if pt not in decided:  # no rank drop there
            continue
        part = _partition_from_weyr((decided[pt] - base).tolist())
        if part is None or not part:
            notes.append(f"irregular nullity sequence at point {pt}")
            continue
        assigned += sum(part)
        x, y = pt
        if abs(x) <= cluster_radius * np.hypot(abs(x), abs(y)):
            infinite = part
        else:
            finite.append((y / x, part))
    return finite, infinite, assigned, notes


def _divisor_structure(s0, s1, roots, r, total_divisor, tol):
    """Eigen-points and partitions, clustering ``roots`` at the fine radius,
    else at the coarse one; the notes, and whether both missed the degree
    identity.

    Clustered multiple roots are recovered through their centroid; if the
    fine radius leaves a multiple root split (its degree identity then
    fails) the coarse radius may join it.  The rank drops and jets at both
    radii's candidate points are decided in one :func:`_drops_and_jets`
    call, on the union of the two point lists when they differ."""
    candidates = [_eigen_candidates(roots, radius) for radius in _CLUSTER_RADII]
    union = candidates[0] + [p for p in candidates[1] if p not in candidates[0]]
    decided = dict(zip(*_drops_and_jets(s0, s1, union, r, total_divisor, tol)))
    for radius, points in zip(_CLUSTER_RADII, candidates):
        finite, infinite, assigned, notes = _assign_divisors(
            decided, points, s0.shape[1], r, total_divisor, radius)
        if assigned == total_divisor:
            return finite, infinite, notes, False
    notes.append(f"divisor degrees sum to {assigned}, expected {total_divisor}")
    return finite, infinite, notes, True


def pencil_invariants(t, tol: float = PENCIL_RANK_TOL) -> PencilInvariants:
    """Kronecker invariants of the slice pencil x*t[0] + y*t[1].

    Requires mode-1 dimension 2.  The tensor is scaled by the power of two
    that brings its largest entry near 1 (exact, so the result is the same
    at any nonzero scale), then to unit pencil norm.  Rank decisions count
    singular values above ``tol``, one stacked SVD call per stage (normal
    rank, rank drops, each jet order), and eigen-points are clustered at
    chordal radius 1e-6, else 1e-4.

    The candidate eigen-points are the eigenvalues of one generic square
    completion of the pencil (:func:`_completion_roots`), which include
    every point where it drops below its normal rank.  A spurious value
    fails the rank-drop check; a missed point fails the degree identity and
    sets ``borderline``.
    """
    check_tol(tol)
    t = as_tensor(t)
    if t.shape[0] != 2:
        raise ValueError(f"pencil requires mode-1 dimension 2, got {t.shape[0]}")
    if not np.any(t):
        raise ValueError("zero tensor has no pencil structure")
    s0, s1 = ldexp(t, -unit_exponent(t))
    scale = max(np.linalg.norm(s0), np.linalg.norm(s1))
    s0 /= scale
    s1 /= scale
    m, n = s0.shape

    r = _normal_rank(s0, s1, tol)
    p_count = n - r
    q_count = m - r
    col_idx = _minimal_indices(s0, s1, p_count, tol)
    row_idx = _minimal_indices(s0.T, s1.T, q_count, tol)
    total_divisor = r - sum(col_idx) - sum(row_idx)
    if total_divisor < 0:
        raise ArithmeticError(
            "inconsistent pencil structure: minimal indices exceed normal rank"
        )

    finite, infinite, notes, borderline = [], (), [], False
    if total_divisor > 0:
        finite, infinite, notes, borderline = _divisor_structure(
            s0, s1, _completion_roots(s0, s1, r), r, total_divisor, tol)

    finite.sort(key=lambda item: (item[1], item[0].real, item[0].imag))
    return PencilInvariants(
        shape=(m, n),
        normal_rank=r,
        col_min_indices=tuple(sorted(col_idx)),
        row_min_indices=tuple(sorted(row_idx)),
        finite_divisors=tuple(finite),
        infinite_partition=infinite,
        borderline=borderline,
        condition_note="; ".join(notes),
    )
