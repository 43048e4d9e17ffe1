"""Dense complex 3-way tensors: slices, unfoldings, local ranks, regrouping.

A 3-way tensor is stored as a C-ordered ``numpy.ndarray`` of shape
``(n1, n2, n3)`` and dtype ``complex128``; entry ``(i, j, k)`` sits at flat
position ``i*n2*n3 + j*n3 + k`` (last index fastest).  The same array doubles
as the coefficient tensor of a pure tripartite state written in the
computational basis.
"""

from __future__ import annotations

import json

import numpy as np

DEFAULT_RANK_TOL = 1e-9

# kron_regroup refuses to build tensors bigger than this many entries
MAX_REGROUP_SIZE = 10**6


def least_squares(*args, **kwargs):
    """``scipy.optimize.least_squares``, imported on its first call.

    Importing ``scipy.optimize`` costs most of ``import slocc3``, and only
    the multi-start searches need it.  ``product_range`` and ``detpoly``
    bind this name at module level and call through it, so a wrapper set on
    either module (as ``bench/spans.py`` sets) sees every solver call.
    """
    from scipy.optimize import least_squares as solve

    return solve(*args, **kwargs)


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
    if mode == 1:
        return t[index, :, :].copy()
    if mode == 2:
        return t[:, index, :].copy()
    return t[:, :, index].copy()


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


def _rank_of_spectrum(s, tol) -> int:
    """Singular values (descending) above tol times the largest."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def matrix_rank_tol(m, tol: float = DEFAULT_RANK_TOL) -> int:
    """Numerical rank: singular values above tol times the largest."""
    m = np.asarray(m, dtype=complex)
    if m.size == 0:
        return 0
    return _rank_of_spectrum(np.linalg.svd(m, compute_uv=False), tol)


def column_space(m, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the column space, of the rank that
    :func:`matrix_rank_tol` decides; scale-free, as the SVD is of ``m``."""
    u, s, _ = np.linalg.svd(np.asarray(m, dtype=complex), full_matrices=False)
    return u[:, : _rank_of_spectrum(s, tol)]


def local_ranks(t, tol: float = DEFAULT_RANK_TOL):
    """Ranks of the three mode unfoldings (the state's local ranks)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    t = as_tensor(t)
    return tuple(matrix_rank_tol(unfold(t, m), tol) for m in (1, 2, 3))


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
    """Flat complex array from ``[re, im]`` pairs, rejecting NaN/Inf entries.

    Inverse of :func:`complex_to_pairs`.
    """
    flat = np.array([complex(re, im) for re, im in pairs], dtype=complex)
    if not np.all(np.isfinite(flat)):
        raise ValueError("complex entries must be finite")
    return flat


def tensor_to_json(t) -> str:
    """Serialize to the wire format {"dims": [...], "entries": [[re, im], ...]}."""
    t = as_tensor(t)
    return json.dumps({"dims": list(t.shape), "entries": complex_to_pairs(t)})


def tensor_from_json(text: str) -> np.ndarray:
    doc = json.loads(text)
    try:
        dims = tuple(int(d) for d in doc["dims"])
        entries = doc["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed tensor JSON: {exc}") from exc
    if len(dims) != 3 or any(d < 1 for d in dims):
        raise ValueError(f"bad dims {dims}")
    n = dims[0] * dims[1] * dims[2]
    if len(entries) != n:
        raise ValueError(f"expected {n} entries, got {len(entries)}")
    return complex_from_pairs(entries).reshape(dims)


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
        rows, cols = int(doc["rows"]), int(doc["cols"])
        entries = doc["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if rows < 1 or cols < 1 or len(entries) != rows * cols:
        raise ValueError("matrix JSON shape mismatch")
    return complex_from_pairs(entries).reshape(rows, cols)
