"""Dense complex 3-way tensors: slices, unfoldings, local ranks, regrouping.

A 3-way tensor is stored as a C-ordered ``numpy.ndarray`` of shape
``(n1, n2, n3)`` and dtype ``complex128``; entry ``(i, j, k)`` sits at flat
position ``i*n2*n3 + j*n3 + k`` (last index fastest).  The same array doubles
as the coefficient tensor of a pure tripartite state written in the
computational basis.  Every SVD of a tensor's unfoldings (local ranks,
supports, traced ranges, ALS starts) is taken by :func:`unfolding_svds`, at
each tensor's exact power-of-two scale (:func:`unit_exponent`).
"""

from __future__ import annotations

import json
import math
from types import SimpleNamespace

import numpy as np

DEFAULT_RANK_TOL = 1e-9
EPS = np.finfo(float).eps

# kron_regroup refuses to build tensors bigger than this many entries
MAX_REGROUP_SIZE = 10**6


def least_squares(fun, x0, jac=None, max_nfev: int = 1000) -> SimpleNamespace:
    """Levenberg-Marquardt minimisation of |fun(x)|^2 over real vectors x.

    Steps solve (J^T J + lam D) p = -J^T r, D the largest diag(J^T J) so far
    (Moré's form of Marquardt's scaling); lam is quartered after an accepted
    step, quadrupled after a rejected one.  J is ``jac(x)`` or forward
    differences, counted in ``nfev``.  Stops at cost 0, when a step lowers
    the cost by at most 1e-15 of it, when the next step is below round-off,
    or at ``max_nfev``.  Callers bind it by module name for a tracer to wrap.
    """
    x = np.array(x0, dtype=float)
    r = fun(x)
    cost, nfev, lam, d, done = r @ r, 1, 1e-3, np.zeros(x.size), False
    while not done and cost > 0 and nfev < max_nfev:
        if jac is None:
            h = np.sqrt(EPS) * np.maximum(1.0, np.abs(x))
            j = np.column_stack([(fun(x + hi * e) - r) / hi for hi, e in zip(h, np.eye(x.size))])
            nfev += x.size
        else:
            j = jac(x)
        a, g = j.T @ j, j.T @ r
        d = np.maximum(d, np.diag(a))
        while nfev < max_nfev:
            try:
                step = np.linalg.solve(a + lam * np.diag(d), -g)
            except np.linalg.LinAlgError:  # J^T J singular and lam below round-off
                step = 0 * x
            if done := np.linalg.norm(step) <= EPS * np.linalg.norm(x):
                break
            trial = fun(x + step)
            nfev += 1
            if trial @ trial < cost:
                done = cost - trial @ trial <= 1e-15 * cost
                x, r, cost, lam = x + step, trial, trial @ trial, lam / 4
                break
            lam *= 4
    return SimpleNamespace(x=x, nfev=nfev)


def as_tensor(data) -> np.ndarray:
    """Coerce input to a complex 3-way array, rejecting NaN/Inf entries."""
    t = np.asarray(data, dtype=complex)
    if t.ndim != 3:
        raise ValueError(f"expected a 3-way tensor, got ndim={t.ndim}")
    if not np.all(np.isfinite(t)):
        raise ValueError("tensor entries must be finite")
    return t


def zero_tensor(dims) -> np.ndarray:
    n1, n2, n3 = dims
    return np.zeros((n1, n2, n3), dtype=complex)


def basis_tensor(dims, index) -> np.ndarray:
    """Tensor of the basis state |i,j,k> for the given dims."""
    t = zero_tensor(dims)
    t[tuple(index)] = 1.0
    return t


def tensor_slice(t, mode: int, index: int) -> np.ndarray:
    """Matrix obtained by fixing one index.

    ``mode`` is 1-based: mode 3 of an n x n x 3 tensor at index k is the
    n x n matrix [a_ijk]_ij; modes 1 and 2 are analogous.
    """
    t = as_tensor(t)
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    if not 0 <= index < t.shape[mode - 1]:
        raise ValueError(
            f"slice index {index} out of range for mode {mode} of dims {t.shape}"
        )
    return np.take(t, index, axis=mode - 1)


def unfold(t, mode: int) -> np.ndarray:
    """Mode-m unfolding: dims[mode] rows, remaining modes as columns.

    Column index runs over the remaining modes in ascending order with the
    last one fastest, matching the C-order layout.
    """
    t = as_tensor(t)
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    return np.moveaxis(t, mode - 1, 0).reshape(t.shape[mode - 1], -1).copy()


def refold(m, mode: int, dims) -> np.ndarray:
    """Inverse of :func:`unfold` for the given target dims."""
    m = np.asarray(m, dtype=complex)
    rest = [d for i, d in enumerate(dims) if i != mode - 1]
    cube = m.reshape(dims[mode - 1], *rest)
    return np.moveaxis(cube, 0, mode - 1).copy()


def unit_exponent(t) -> int:
    """The e that puts the largest real or imaginary part of ``t`` times 2^-e
    in [1/2, 1).  Norms and rank decisions taken at that scale neither
    overflow nor underflow, and since the rescale is exact they equal those
    taken at the input's scale wherever the latter stay in range."""
    return math.frexp(np.abs(np.ravel(t).view(float)).max())[1]


def ldexp(t, e: int) -> np.ndarray:
    """Complex ``t`` times 2^e, in a new array: exact while every part stays normal."""
    t = np.ascontiguousarray(t, dtype=complex)
    out = np.empty_like(t)
    np.ldexp(t.view(float), e, out=out.view(float))
    return out


def check_tol(tol) -> None:
    """ValueError unless a rank tolerance is positive and finite; the chained
    comparison is False for NaN, so NaN fails too."""
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")


def _ranks_above(s, tol):
    """The one rank rule: singular values (descending, last axis) above tol
    times the largest; 0 for a zero spectrum."""
    return np.add.reduce(s > tol * s[..., :1], axis=-1)


def matrix_rank_tol(m, tol: float = DEFAULT_RANK_TOL) -> int:
    """Numerical rank: singular values above tol times the largest, taken
    of ``m`` scaled by the exact power of two of :func:`unit_exponent`."""
    m = np.asarray(m, dtype=complex)
    if m.size == 0:
        return 0
    return int(_ranks_above(np.linalg.svd(ldexp(m, -unit_exponent(m)), compute_uv=False), tol))


def column_space(m, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the column space, of the rank that
    :func:`matrix_rank_tol` decides at the same exact scale."""
    m = np.asarray(m, dtype=complex)
    u, s, _ = np.linalg.svd(ldexp(m, -unit_exponent(m)), full_matrices=False)
    return u[:, :_ranks_above(s, tol)]


def unfolding_svds(stack, tol: float = DEFAULT_RANK_TOL, vectors=()):
    """SVDs of the three unfoldings of each tensor in a stack (count, n1, n2, n3).

    Each tensor is scaled by its own exact power of two 2^-e
    (:func:`unit_exponent`), so no singular value under- or overflows, then
    one batched SVD per mode, its ranks by the rule of :func:`matrix_rank_tol`.
    Returns (e, ranks (count, 3), svds), svds[q] the (U, S, Vh) of the
    scaled mode-(q + 1) unfoldings if q is in ``vectors``, else None.
    """
    count, *dims = stack.shape
    e = np.frexp(np.abs(stack.reshape(count, -1).view(float)).max(axis=1))[1]
    unit = ldexp(stack, -e[:, None, None, None])
    # the three spectra, zero-padded, so one call of the rule ranks them all
    spectra, svds = np.zeros((count, 3, max(dims))), [None] * 3
    for q, axes in enumerate(((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2))):  # mode q + 1 to axis 1
        mats = unit.transpose(axes).reshape(count, dims[q], -1)
        if q in vectors:
            u, s, vh = svds[q] = np.linalg.svd(mats, full_matrices=False)
        else:
            s = np.linalg.svd(mats, compute_uv=False)
        spectra[:, q, :s.shape[-1]] = s
    return e, _ranks_above(spectra, tol), svds


def local_ranks(t, tol: float = DEFAULT_RANK_TOL):
    """Ranks of the three mode unfoldings (the state's local ranks)."""
    check_tol(tol)
    t = as_tensor(t)
    return tuple(unfolding_svds(t[None], tol)[1][0].tolist())


def is_product_state(t, tol: float = DEFAULT_RANK_TOL) -> bool:
    """True iff all three local ranks equal 1 (rank-1 / unentangled)."""
    t = as_tensor(t)
    if not np.any(t):
        raise ValueError("zero tensor is not a state")
    return local_ranks(t, tol) == (1, 1, 1)


def kron_regroup(s, t, max_size: int = MAX_REGROUP_SIZE) -> np.ndarray:
    """Tensor product with corresponding parties merged into one party each.

    The result has dims ``(s1*t1, s2*t2, s3*t3)`` and entries
    ``out[(i,i'),(j,j'),(k,k')] = s[i,j,k] * t[i',j',k']`` with combined
    index ``i*t1 + i'`` and so on.
    """
    s = as_tensor(s)
    t = as_tensor(t)
    dims = tuple(a * b for a, b in zip(s.shape, t.shape))
    total = dims[0] * dims[1] * dims[2]
    if total > max_size:
        raise MemoryError(
            f"regrouped tensor would have {total} entries (limit {max_size})"
        )
    out = np.einsum("ijk,abc->iajbkc", s, t)
    return out.reshape(dims)


def complex_to_pairs(values) -> list:
    """Complex values as ``[re, im]`` float pairs, flattened in C order.

    This is the one wire format for complex numbers in every JSON document.
    """
    return [[float(z.real), float(z.imag)] for z in np.ravel(values)]


def complex_from_pairs(pairs) -> np.ndarray:
    """Flat complex array from ``[re, im]`` pairs of numbers, the inverse of
    :func:`complex_to_pairs`; any other document or NaN/Inf is a ValueError."""
    try:
        flat = np.array([complex(re, im) for re, im in pairs], dtype=complex)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"complex entries must be [re, im] pairs of numbers: {exc}") from exc
    if not np.all(np.isfinite(flat)):
        raise ValueError("complex entries must be finite")
    return flat


def int_from_json(value) -> int:
    """An integer of a JSON document, else ValueError: 1.5 is never truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def tensor_to_json(t) -> str:
    """Serialize to the wire format {"dims": [...], "entries": [[re, im], ...]}."""
    t = as_tensor(t)
    return json.dumps({"dims": list(t.shape), "entries": complex_to_pairs(t)})


def tensor_from_json(text: str) -> np.ndarray:
    doc = json.loads(text)
    try:
        dims = tuple(int_from_json(d) for d in doc["dims"])
        entries = complex_from_pairs(doc["entries"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed tensor JSON: {exc}") from exc
    if len(dims) != 3 or any(d < 1 for d in dims):
        raise ValueError(f"bad dims {dims}")
    n = dims[0] * dims[1] * dims[2]
    if entries.size != n:
        raise ValueError(f"expected {n} entries, got {entries.size}")
    return entries.reshape(dims)


def matrix_to_json(m) -> str:
    """Serialize a matrix to {"rows": r, "cols": c, "entries": [[re, im], ...]}."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError("expected a matrix")
    return json.dumps(
        {"rows": m.shape[0], "cols": m.shape[1], "entries": complex_to_pairs(m)}
    )


def matrix_from_json(text: str) -> np.ndarray:
    doc = json.loads(text)
    try:
        rows, cols = int_from_json(doc["rows"]), int_from_json(doc["cols"])
        entries = complex_from_pairs(doc["entries"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if rows < 1 or cols < 1 or entries.size != rows * cols:
        raise ValueError("matrix JSON shape mismatch")
    return entries.reshape(rows, cols)
