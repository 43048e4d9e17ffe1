"""Tensor-rank intervals, alternating least squares, and 2 x M x N classes.

Lower bounds are certified by algebra and name their argument: the exact
2 x 2 x 2 classification via the degree-4 hyperdeterminant
(``Classifier222``), Ja'Ja's exact formula on the Kronecker form of the
slice pencil when the tensor's support has a mode of dim 2 (``JaJa``),
Strassen's commutator bound when the support is n x n x k with k >= 3
(``Strassen``), and otherwise the largest local rank (``LocalRank``).
Upper bounds are explicit numerical decompositions, searched from the lower
bound up.  When the support has a mode of dim at most 2 they are built
directly: the slice pencil, padded to R x R with fixed generic entries, is
diagonalised by one eigendecomposition (:func:`_pencil_construction`).
:func:`rank_interval` tries it at the largest local rank first; when it is
refused there, Ja'Ja's bound reads the pencil's own invariants, whose
eigen-points come from the same kind of generic completion
(``pencil._completion_roots``).  Otherwise, or when that construction
misses ``tol``, seeded CP-ALS searches.  A failed search
proves nothing and is never used to raise a lower bound, and a success
certifies only that a decomposition with that many terms exists
numerically (the border rank may be smaller).  Within one
:func:`rank_interval`, the support, its bases and the ALS starts come from
the singular vectors of one ``tensor.unfolding_svds`` call.  One scale
rule holds: the pencil construction, ALS starts, sweeps and residuals read
the tensor scaled by its exact power of two 2^-e, and certificates are
scaled back by that power, spread over the three factors
(:func:`_scale_back`); only the exact slice-wise construction reads the
tensor itself.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np
from numpy.linalg import lapack_lite

from . import catalog as _catalog
from .pencil import _diagonalize_pencil, _padding, pencil_invariants
from .tensor import (DEFAULT_RANK_TOL, as_tensor, check_tol, complex_to_pairs, ldexp, local_ranks,
                     unfold, unfolding_svds, unit_exponent)

BORDER_RANK_CAVEAT = (
    "numerical decomposition certificate: rank <= R at the stated residual; "
    "border rank may be smaller and ALS failure proves nothing"
)


# --- exact 2 x 2 x 2 classification ------------------------------------------


def hyperdeterminant_222(t) -> complex:
    """Cayley hyperdeterminant of a 2 x 2 x 2 tensor (degree 4 invariant):
    the discriminant b^2 - 4ac of the binary quadratic
    det(x t[0] + y t[1]) = a x^2 + b xy + c y^2."""
    t = as_tensor(t)
    if t.shape != (2, 2, 2):
        raise ValueError(f"expected dims (2, 2, 2), got {t.shape}")
    (p, q), (r, s) = t[0]  # x t[0] + y t[1] = [[x p + y e, x q + y f], [x r + y g, x s + y h]]
    (e, f), (g, h) = t[1]
    a, b, c = p * s - q * r, p * h + e * s - q * g - f * r, e * h - f * g
    return complex(b * b - 4 * a * c)


CLASS_RANKS = {
    "Zero": 0,
    "Product": 1,
    "BiSeparable-A": 2,
    "BiSeparable-B": 2,
    "BiSeparable-C": 2,
    "GHZclass": 2,
    "Wclass": 3,
}


def classify_222(t, tol: float = 1e-10) -> str:
    """Exact SLOCC class of a 2 x 2 x 2 tensor.

    Nonvanishing hyperdeterminant means the rank-2 generic class; otherwise
    the local-rank pattern decides, with all-ranks-2 and vanishing
    hyperdeterminant being the rank-3 class.  The hyperdeterminant is taken
    of ``t`` scaled by an exact power of two (``tensor.unit_exponent``) and
    compared with ``tol``, so the class is the same at every nonzero scale.
    """
    check_tol(tol)
    t = as_tensor(t)
    if t.shape != (2, 2, 2):
        raise ValueError(f"expected dims (2, 2, 2), got {t.shape}")
    return _class_222(t, local_ranks(t), tol)


def _class_222(t, ranks, tol: float = 1e-10) -> str:
    """:func:`classify_222` of ``t``, given its local ranks."""
    if not np.any(t):
        return "Zero"
    if abs(hyperdeterminant_222(ldexp(t, -unit_exponent(t)))) > tol:
        return "GHZclass"
    if ranks == (1, 1, 1):
        return "Product"
    if ranks == (2, 2, 2):
        return "Wclass"
    if ranks[0] == 1:
        return "BiSeparable-A"
    if ranks[1] == 1:
        return "BiSeparable-B"
    return "BiSeparable-C"


def _jaja_rank(inv) -> int:
    """Exact rank of a 2-slice tensor from its pencil's Kronecker invariants.

    Ja'Ja's formula: the sum of (index + 1) over the nonzero minimal
    indices, plus the size of the regular part, plus the largest number of
    Jordan blocks of size at least 2 at any one eigen-point, infinity
    included.  A zero minimal index (a zero row or column of the pencil)
    adds nothing, so the formula holds with or without support compression.
    """
    parts = inv.all_partitions()
    minimal = [e for e in inv.col_min_indices + inv.row_min_indices if e]
    delta = max((sum(size >= 2 for size in p) for p in parts), default=0)
    return sum(e + 1 for e in minimal) + sum(map(sum, parts)) + delta


STRASSEN_RANK_TOL = 1e-9
# singular values within this factor of the tolerance leave no clear gap
STRASSEN_GAP = 10.0


@functools.cache
def _strassen_mix(k: int) -> np.ndarray:
    """Fixed generic map from k slices onto three, X_a, X_b and X_c, drawn
    once per k; read-only, since every call shares it."""
    rng = np.random.default_rng(20091005)
    mix = rng.standard_normal((k, 3)) + 1j * rng.standard_normal((k, 3))
    mix.setflags(write=False)
    return mix


def _strassen_bound(core, mode: int):
    """Strassen's bound n + ceil(rank(X_a X_b^-1 X_c - X_c X_b^-1 X_a) / 2).

    ``core`` has full local ranks and its two modes other than ``mode``
    have dim n.  Its slices along ``mode`` are mixed into three by a fixed
    generic matrix, a restriction that cannot raise the rank.  The
    commutator's rank is decided against 1e-9 * |X_a| |X_b^-1| |X_c|, the
    scale of its round-off, never against its own largest singular value
    (which counts round-off as rank when the commutator vanishes).  Returns
    None when X_b is numerically singular or a singular value lies within a
    factor of ten of that tolerance.
    """
    slices = np.moveaxis(core / np.max(np.abs(core)), mode, -1)
    n, k = slices.shape[0], slices.shape[-1]
    xa, xb, xc = np.moveaxis(slices @ _strassen_mix(k), -1, 0)
    sb = np.linalg.svd(xb, compute_uv=False)
    if sb[-1] <= STRASSEN_RANK_TOL * sb[0]:
        return None
    xb_inv = np.linalg.inv(xb)
    commutator = xa @ xb_inv @ xc - xc @ xb_inv @ xa
    tol = STRASSEN_RANK_TOL * np.linalg.norm(xa, 2) * np.linalg.norm(xc, 2) / sb[-1]
    sv = np.linalg.svd(commutator, compute_uv=False)
    if np.any((sv > tol / STRASSEN_GAP) & (sv < tol * STRASSEN_GAP)):
        return None
    return n + -(-int(np.count_nonzero(sv > tol)) // 2)


def rank_lower_bound(t, tol: float = DEFAULT_RANK_TOL):
    """Certified lower bound on the tensor rank, and the argument behind it.

    Returns (bound, certificate) where certificate names the argument:

    * ``Classifier222(<class>)``: exact, for 2 x 2 x 2 dims, from the
      hyperdeterminant and the local ranks;
    * ``JaJa``: exact, when the tensor restricted to its support (local
      ranks decided at ``tol``) has a mode of dim 2, from Ja'Ja's formula
      on the Kronecker form of the slice pencil (:func:`_jaja_rank`); used
      only when the pencil structure is not ``borderline``;
    * ``Strassen``: when the support is n x n x k with k >= 3, from
      Strassen's commutator bound, which also bounds the border rank;
    * ``LocalRank``: the largest local rank, whenever neither argument
      gives more.
    """
    check_tol(tol)
    t = as_tensor(t)
    return _lower_bound(t, _support(t, tol)[1])


def _lower_bound(t, core):
    """:func:`rank_lower_bound` of ``t``, given its support ``core``."""
    if not np.any(t):
        raise ValueError("zero tensor has no rank bound")
    if t.shape == (2, 2, 2):
        cls = _class_222(t, core.shape)
        return CLASS_RANKS[cls], f"Classifier222({cls})"
    dims = core.shape
    local = max(dims)
    bound, cert = None, None
    if min(dims) == 2:
        inv = pencil_invariants(np.moveaxis(core, dims.index(2), 0))
        if not inv.borderline:
            bound, cert = _jaja_rank(inv), "JaJa"
    elif min(dims) >= 3:
        for mode in range(3):
            rest = [d for m, d in enumerate(dims) if m != mode]
            if rest[0] == rest[1]:
                bound, cert = _strassen_bound(core, mode), "Strassen"
                break
    if bound is not None and bound > local:
        return bound, cert
    return local, "LocalRank"


# --- CP decomposition ----------------------------------------------------------


@dataclass(slots=True)
class CpResult:
    """Outcome of a decomposition search at a fixed number of terms.

    Callers may keep one per rank interval they compute, so the class has
    slots rather than a per-instance dict.
    """

    success: bool
    rank: int
    residual: float
    factors: tuple | None
    detail: str = ""

    def reconstruct(self) -> np.ndarray:
        a, b, c = self.factors
        return np.einsum("ir,jr,kr->ijk", a, b, c)

    def to_json(self) -> str:
        doc = {
            "success": self.success,
            "rank": self.rank,
            "residual": self.residual,
            "detail": self.detail,
        }
        if self.factors is not None:
            doc["factors"] = [complex_to_pairs(f) for f in self.factors]
            doc["factor_shapes"] = [list(f.shape) for f in self.factors]
        return json.dumps(doc, sort_keys=True)


def _check_residual_tol(tol) -> None:
    """ValueError unless a residual tolerance is nonnegative and finite; 0 is
    allowed, and NaN fails the chained comparison."""
    if not 0.0 <= tol < np.inf:
        raise ValueError("tol must be nonnegative and finite")


def _relative_residual(t, model) -> float:
    """|t - model| / |t|, both norms taken at t's power-of-two scale
    (``unit_exponent``), where they neither overflow nor underflow."""
    e = unit_exponent(t)
    return float(np.linalg.norm(ldexp(t - model, -e)) / np.linalg.norm(ldexp(t, -e)))


def _direct_decomposition(t, r):
    """Exact decomposition over the two smallest modes (basis x basis x fiber)."""
    dims = t.shape
    m1, m2 = sorted(np.argsort(dims)[:2])
    d1, d2 = dims[m1], dims[m2]
    # column i1*d2 + i2 holds basis vectors i1 and i2 and the fiber t[.., i1, .., i2, ..]
    factors = [np.zeros((d, r), dtype=complex) for d in dims]
    factors[m1][:, :d1 * d2] = np.repeat(np.eye(d1), d2, axis=1)
    factors[m2][:, :d1 * d2] = np.tile(np.eye(d2), d1)
    factors[3 - m1 - m2][:, :d1 * d2] = np.moveaxis(t, (m1, m2), (0, 1)).reshape(d1 * d2, -1).T
    return tuple(factors)


def _als_init(t, r, rng, vectors=None):
    """Seeded Gaussian factors; given ``vectors``, the left singular vectors
    of the three unfoldings, each factor's leading columns are theirs."""
    factors = []
    for mode, d in enumerate(t.shape):
        f = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
        if vectors is not None:
            k = min(r, vectors[mode].shape[1])
            f[:, :k] = vectors[mode][:, :k]
        factors.append(f)
    return factors


# Round-off splits a Jordan block of a defective pencil into eigenvectors
# whose basis has condition number at least eps^(-1/2); a diagonalisable one
# is near 1.  Bases beyond the log-midpoint eps^(-1/4) are refused.
_EIGENBASIS_COND_MAX = np.finfo(float).eps ** -0.25


def _pencil_construction(t, support, r, tol):
    """R-term decomposition of ``t`` built from its padded slice pencil.

    ``support`` is (e, core, bases, vectors) of :func:`_support`, the core
    taken of ``t`` scaled by 2^-e.  When a mode of ``core`` has dim <= 2, its
    slices (a zero second slice for dim 1) form an M x N pencil.  Embedded
    in an r x r pencil whose other entries are fixed generic numbers, it is
    diagonalisable exactly when the rank is at most r: an r-term
    decomposition, whose factors have full rank on the support, extends to
    a diagonalisation of some completion, so a generic completion is
    diagonalisable too.  The first M rows and N columns of the eigenbasis
    give the r terms.  Both sides are padded because padding only the
    columns leaves eta blocks whose eigen-points the pencil invariants do
    not list.

    Below the rank the padded pencil is defective, yet round-off can still
    give a residual below ``tol`` with huge, nearly cancelling terms (a
    border-rank approximation), so an eigenbasis whose condition number
    exceeds ``_EIGENBASIS_COND_MAX`` is refused.  Returns a successful
    ``CpResult`` (:func:`_scale_back` on the mode) when the basis passes and
    the relative residual is below ``tol``, else None.
    """
    e, core, bases, _ = support
    mode = int(np.argmin(core.shape))
    slices = np.moveaxis(core, mode, 0)
    k, m, n = slices.shape
    if k > 2 or r < max(m, n):
        return None
    scale = np.max(np.abs(slices))
    pencil = _padding(r).copy()
    pencil[:, :m, :n] = 0.0
    pencil[:k, :m, :n] = slices / scale
    try:
        w, v, c = _diagonalize_pencil(*pencil)
    except np.linalg.LinAlgError:
        return None
    if not np.linalg.cond(w) <= _EIGENBASIS_COND_MAX:
        return None
    rows, cols = (p for p in range(3) if p != mode)
    factors = [None] * 3
    factors[rows] = bases[rows] @ w[:m]
    factors[cols] = bases[cols] @ v[:n]
    factors[mode] = bases[mode] @ (scale * c[:k])
    residual = _relative_residual(ldexp(t, -e), np.einsum("ir,jr,kr->ijk", *factors))
    if not residual < tol:
        return None
    return CpResult(True, r, residual, _scale_back(factors, e, mode),
                    "padded pencil construction")


def _scale_back(factors, e, mode):
    """Factors of t scaled by 2^-e turned into factors of t, as new arrays:
    2^e is spread as 2^q on two factors and 2^(e - 2q) on ``mode``
    (q = trunc(e / 3)), which keeps each factor finite at any scale."""
    q = int(e / 3)
    return tuple(ldexp(f, e - 2 * q if p == mode else q) for p, f in enumerate(factors))


def _spectral_init(t, r, vectors):
    """Generalized-eigenvector initialization where R fits two of the dims.

    Compressing by ``vectors``, the left singular vectors of the three
    unfoldings, to an r x r x 2 core turns an exact rank-r decomposition
    into a simultaneous diagonalization of the core's two slices
    (:func:`_diagonalize_pencil`), which gives the first two factors; the
    third is fitted by least squares.  Lands ALS inside the quadratic basin,
    which matters for tensors close to a degenerate (lower border rank)
    boundary where random starts swamp.
    """
    for perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        dims = tuple(t.shape[p] for p in perm)
        if r > min(dims[0], dims[1]) or dims[2] < 2:
            continue
        tp = np.transpose(t, perm)
        u1, u2, u3 = (vectors[p][:, :k] for p, k in zip(perm, (r, r, 2)))
        try:
            core = np.einsum("ip,jq,kr,ijk->pqr", u1.conj(), u2.conj(), u3.conj(), tp)
            wa, wb, _ = _diagonalize_pencil(core[:, :, 0], core[:, :, 1])
            fa = u1 @ wa
            fb = u2 @ wb
            z = np.einsum("ir,jr->ijr", fa, fb).reshape(-1, r)
            m3 = np.moveaxis(tp, 2, 0).reshape(dims[2], -1)
            fc = np.linalg.lstsq(z, m3.T, rcond=None)[0].T
            return [(fa, fb, fc)[perm.index(mode)] for mode in range(3)]
        except np.linalg.LinAlgError:
            continue
    return None


def _mode_solver(t, mode, r):
    """Least-squares update of the mode-``mode`` factor, prepared once.

    ``solve(u, v)`` returns the factor F minimizing the Frobenius norm of
    ``(u ⊙ v) F^T - unfold(t, mode)^T``, with u and v the other two factors
    in mode order.  LAPACK reads column-major arrays, so the C-ordered
    (r, rows) Khatri-Rao buffer is the rows x r design and the C-ordered
    unfolding is the rows x nrhs right-hand side.  The cutoff, the singular
    value array and the ``zgelsd`` workspace are fixed here, so a solve is
    one einsum, one copy of the right-hand side and one LAPACK call.  F is
    a view of that copy, which LAPACK overwrote with the solution.
    """
    rhs = np.ascontiguousarray(unfold(t, mode))
    nrhs, rows = rhs.shape
    others = [d for m, d in enumerate(t.shape) if m != mode - 1]
    design = np.empty((r, *others), dtype=complex)
    sv = np.empty(r)
    # r < d_min1 * d_min2 <= rows (wider searches take the direct
    # construction), so the system is overdetermined and b needs no padding
    cond = np.finfo(float).eps * max(rows, r)
    # lapack_lite accepts iwork only as C ints, while an ILP64 LAPACK writes
    # 64-bit integers to it: int64 storage viewed as C ints fits either
    work, rwork = np.empty(1, complex), np.empty(1)
    iwork = np.zeros(1, np.int64).view(np.intc)
    lapack_lite.zgelsd(rows, r, nrhs, design, rows, rhs, rows, sv, cond, 0,
                       work, -1, rwork, iwork, 0)
    work = np.empty(int(work[0].real), complex)
    rwork = np.empty(int(rwork[0]))
    iwork = np.empty(int(iwork.view(np.int64)[0]), np.int64).view(np.intc)

    def solve(u, v):
        np.einsum("jr,kr->rjk", u, v, out=design)
        x = rhs.copy()
        out = lapack_lite.zgelsd(rows, r, nrhs, design, rows, x, rows, sv, cond, 0,
                                 work, work.size, rwork, iwork, 0)
        if out["info"] != 0:
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
        # the solution is the first r entries of each column of x
        return x[:, :r]

    return solve


def cp_als(t, r: int, restarts: int = 32, max_iter: int = 2000, seed: int = 0,
           tol: float = 1e-8, stall_tol: float = 1e-12, *, _support=None) -> CpResult:
    """Search for an R-term decomposition by alternating least squares.

    Success means some restart reached relative residual below ``tol``.
    When R is at least the product of the two smallest dims the exact
    slice-wise construction is returned directly.  Restart 0 is initialized
    from the singular vectors of one ``tensor.unfolding_svds`` call, restart
    1 from their generalized eigenvector construction when R fits two of the
    dims (built only when restart 1 runs), the rest from seeded Gaussians;
    restarts stop at the first success and the best attempt wins ties by
    restart order.

    Each factor update is a linear least-squares solve by LAPACK ``zgelsd``
    (the SVD-based routine behind ``np.linalg.lstsq``), called through
    ``numpy.linalg.lapack_lite.zgelsd`` directly.  It
    cuts off singular values below ``eps * max(rows, R)`` times the largest,
    the cutoff ``np.linalg.lstsq`` uses with ``rcond=None``.

    A tensor whose border rank is below its rank can reach residuals under
    ``tol`` at the border rank through decompositions with enormous,
    nearly-cancelling terms; the certificate's factor norms expose this.
    Success always means exactly "a numerical decomposition at the stated
    residual exists", nothing stronger.  Zero-ness is decided on the
    entries.  Starts, sweeps and residuals read ``t`` scaled by its exact
    power of two 2^-e (``tensor.unit_exponent``), and the factors are scaled
    back by that power (:func:`_scale_back`), so no norm or factor under- or
    overflows at any nonzero scale of ``t``.  ``tol`` must be nonnegative
    and finite; at 0 each restart runs until it stalls or ends.

    ``_support``, private to :func:`rank_interval`, is :func:`_support` of
    ``t``, whose ``unfolding_svds`` call the starts then reuse.
    """
    _check_residual_tol(tol)
    t = as_tensor(t)
    if r < 1:
        raise ValueError("rank must be at least 1")
    if not np.any(t):
        factors = tuple(np.zeros((d, r), dtype=complex) for d in t.shape)
        return CpResult(True, r, 0.0, factors, "zero tensor")

    dims = sorted(t.shape)
    if r >= dims[0] * dims[1]:
        factors = _direct_decomposition(t, r)
        residual = _relative_residual(t, np.einsum("ir,jr,kr->ijk", *factors))
        return CpResult(True, r, residual, factors, "direct slice construction")

    # starts, sweeps and residuals read t scaled by 2^-e: no norm overflows
    if _support is None:
        [e], _, svds = unfolding_svds(t[None], vectors=(0, 1, 2))
        vectors = [svd.U[0] for svd in svds]
    else:
        e, _, _, vectors = _support
    t_unit = ldexp(t, -e)
    norm_t = float(np.linalg.norm(t_unit))
    solve = [_mode_solver(t_unit, mode, r) for mode in (1, 2, 3)]
    best = None
    for restart in range(max(1, restarts)):
        rng = np.random.default_rng(np.random.SeedSequence([seed, restart]))
        if restart == 1 and (spectral := _spectral_init(t_unit, r, vectors)) is not None:
            a, b, c = spectral
        else:
            a, b, c = _als_init(t_unit, r, rng, vectors if restart == 0 else None)
        prev_res = np.inf
        residual = np.inf
        for _ in range(max_iter):
            a = solve[0](b, c)
            b = solve[1](a, c)
            c = solve[2](a, b)
            model = np.einsum("ir,jr,kr->ijk", a, b, c)
            residual = float(np.linalg.norm(t_unit - model) / norm_t)
            if residual < tol or abs(prev_res - residual) < stall_tol:
                break
            prev_res = residual
        if best is None or residual < best[0]:
            best = (residual, (a, b, c), restart)
        if residual < tol:
            break

    residual, factors, restart = best
    detail = f"ALS, best of {restart + 1} restart(s)"
    return CpResult(residual < tol, r, residual, _scale_back(factors, e, 0), detail)


def map_cp_factors(factors, a, b, c):
    """Apply one matrix per party to every term of a decomposition.

    This realizes the one-way monotonicity of rank bounds: the image of an
    R-term decomposition is an R-term decomposition of the image.
    """
    fa, fb, fc = factors
    return (
        np.asarray(a, dtype=complex) @ fa,
        np.asarray(b, dtype=complex) @ fb,
        np.asarray(c, dtype=complex) @ fc,
    )


@dataclass(slots=True)
class RankInterval:
    """Certified bracket [lower, upper] for the tensor rank."""

    lower: int
    upper: int
    certificate_lower: str
    certificate_upper: CpResult
    caveat: str = BORDER_RANK_CAVEAT

    def to_json(self) -> str:
        return json.dumps(
            {
                "lower": self.lower,
                "upper": self.upper,
                "certificate_lower": self.certificate_lower,
                "certificate_upper": json.loads(self.certificate_upper.to_json()),
                "caveat": self.caveat,
            },
            sort_keys=True,
        )


def rank_interval(t, restarts: int = 32, max_iter: int = 2000, seed: int = 0,
                  tol: float = 1e-8) -> RankInterval:
    """Bracket the tensor rank: certified lower bound (:func:`rank_lower_bound`),
    least R at or above it with a decomposition below ``tol``.

    When the support has a mode of dim 2 (dims not 2 x 2 x 2), the
    padded-pencil construction (:func:`_pencil_construction`) is tried at
    the largest local rank R before Ja'Ja's bound is computed; below the
    rank it refuses the defective pencil, so success closes at [R, R] with
    ``LocalRank``.  Otherwise each R from the lower bound up tries the
    construction (for a mode of dim at most 2, where Ja'Ja's bound is the
    rank, so the interval closes with no ALS), then :func:`cp_als` with the
    given budget.  The support, and its one ``unfolding_svds`` call, serve
    all three.  The search ends: the slice-wise construction succeeds once R
    reaches the product of the two smallest dims.
    """
    _check_residual_tol(tol)
    t = as_tensor(t)
    support = _support(t)
    if t.shape != (2, 2, 2) and min(support[1].shape) == 2:
        r = max(support[1].shape)
        result = _pencil_construction(t, support, r, tol)
        if result is not None:
            return RankInterval(r, r, "LocalRank", result)
    lower, cert = _lower_bound(t, support[1])
    r = lower
    while True:
        result = _pencil_construction(t, support, r, tol) or cp_als(
            t, r, restarts=restarts, max_iter=max_iter, seed=seed, tol=tol, _support=support)
        if result.success:
            return RankInterval(lower, r, cert, result)
        r += 1


# --- 2 x M x N classification ---------------------------------------------------


@dataclass
class ClassifyResult:
    """Catalog match for a 2 x M x N tensor, or a diagnostic when none fits."""

    entry: _catalog.CatalogEntry | None
    compressed_dims: tuple
    signature: tuple | None
    detail: str = ""

    @property
    def matched(self) -> bool:
        return self.entry is not None

    def to_json(self) -> str:
        return json.dumps(
            {
                "entry": self.entry.id if self.entry else None,
                "compressed_dims": list(self.compressed_dims),
                "signature": repr(self.signature),
                "detail": self.detail,
            },
            sort_keys=True,
        )


def _support(t, tol: float = DEFAULT_RANK_TOL):
    """Restrict each party to the support of its unfolding (full local ranks).

    Returns (e, core, bases, vectors): ``vectors`` are the left singular
    vectors of the three unfoldings, from one ``tensor.unfolding_svds``
    call, the bases (u1, u2, u3) their leading columns, and ``t`` scaled by
    2^-e is the core mapped by them whenever its discarded singular values
    are zero.
    """
    [e], [ranks], svds = unfolding_svds(t[None], tol, vectors=(0, 1, 2))
    vectors = tuple(svd.U[0] for svd in svds)
    bases = tuple(u[:, :r] for u, r in zip(vectors, ranks))
    core = np.einsum("ip,jq,kr,ijk->pqr", *(u.conj() for u in bases), ldexp(t, -e))
    return e, core, bases, vectors


def _entry_signature(t):
    """Classification key: local ranks plus Moebius-invariant pencil data."""
    core = _support(t)[1]
    dims = core.shape
    if dims[0] == 1:
        return (dims, None)
    inv = pencil_invariants(core)
    return (dims, inv.signature())


@functools.cache
def _signature_table():
    table = {}
    for entry in _catalog.catalog_list(table_only=True):
        sig = _entry_signature(entry.build())
        if sig in table:
            raise RuntimeError(
                f"signature table bug: {entry.id} and {table[sig]} collide on {sig}"
            )
        table[sig] = entry.id
    return table


def classify_2mn(t) -> ClassifyResult:
    """Match a tensor with mode-1 dim <= 2, M <= 3, N <= 6 against the table.

    The tensor is first compressed onto its multilinear support, so inputs
    related to a table row by arbitrary invertible (or merely injective)
    local maps classify to that row.
    """
    t = as_tensor(t)
    n1, n2, n3 = t.shape
    if n1 > 2 or n2 > 3 or n3 > 6:
        raise ValueError(
            f"dims {t.shape} outside the table range (2, 3, 6)"
        )
    if not np.any(t):
        raise ValueError("zero tensor has no class")
    dims, sig = _entry_signature(t)
    table = _signature_table()
    key = (dims, sig)
    if key in table:
        return ClassifyResult(_catalog.catalog_get(table[key]), dims, sig, "matched")
    return ClassifyResult(
        None, dims, sig,
        "no table row carries this signature; the input may sit on a rank "
        "decision boundary",
    )
