"""Density matrices, mixtures, partial traces, and reduced-density ranges.

A pure state of parties with dimensions ``party_dims`` is an ndarray of that
shape (the tripartite case coincides with the 3-way tensors used elsewhere).
Unnormalized states are accepted throughout; the trace of a pure-state
density matrix then equals the squared norm, and range computations are
scale-free.
"""

from __future__ import annotations

import json

import numpy as np

from .tensor import check_tol, column_space, complex_to_pairs

EIGEN_RANK_TOL = 1e-9
# input checks of partial_trace, relative to the largest entry modulus and
# the largest eigenvalue: round-off leaves ~1e-16 in both
HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-10


def density_of(psi) -> np.ndarray:
    """Outer product |x><x| of a nonzero pure state."""
    v = np.asarray(psi, dtype=complex).ravel()
    if not np.any(v):
        raise ValueError("zero state has no density matrix")
    return np.outer(v, v.conj())


def mixture(states, probs) -> np.ndarray:
    """Convex mixture sum_i p_i |x_i><x_i| with each state normalized first."""
    probs = [float(p) for p in probs]
    if len(states) != len(probs) or not states:
        raise ValueError("need equally many states and probabilities")
    if not all(p >= 0 for p in probs):  # NaN fails too
        raise ValueError("probabilities must be nonnegative")
    if abs(sum(probs) - 1.0) > 1e-12:
        raise ValueError(f"probabilities sum to {sum(probs)}, not 1")
    vecs = [np.asarray(s, dtype=complex).ravel() for s in states]
    dim = vecs[0].size
    if any(v.size != dim for v in vecs):
        raise ValueError("states must share dimension")
    rho = np.zeros((dim, dim), dtype=complex)
    for p, v in zip(probs, vecs):
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ValueError("zero state in mixture")
        u = v / norm
        rho += p * np.outer(u, u.conj())
    return rho


def _split_parties(party_dims, traced):
    """Validated (party_dims, traced, kept) for tracing out ``traced``.

    ``traced`` must be a nonempty proper subset of the party indices; both
    index lists come back sorted.
    """
    party_dims = tuple(int(d) for d in party_dims)
    traced = sorted(set(int(p) for p in traced))
    m = len(party_dims)
    if not traced:
        raise ValueError("traced set must be nonempty")
    if any(p < 0 or p >= m for p in traced):
        raise ValueError(f"party index out of range for {m} parties")
    if len(traced) == m:
        raise ValueError("cannot trace every party; use total_trace instead")
    return party_dims, traced, [i for i in range(m) if i not in traced]


def _check_density(rho) -> None:
    """Raise ValueError unless ``rho`` is Hermitian and positive semidefinite.

    Both tests are relative to the largest entry modulus and the largest
    eigenvalue, so they hold at any nonzero scale of the input.
    """
    scale = np.max(np.abs(rho))
    if np.max(np.abs(rho - rho.conj().T)) > HERMITIAN_TOL * scale:
        raise ValueError("density matrix is not Hermitian")
    vals = np.linalg.eigvalsh(rho)
    if vals[0] < -PSD_TOL * max(vals[-1], 0.0):
        raise ValueError("density matrix is not positive semidefinite")


def partial_trace(rho, party_dims, traced) -> np.ndarray:
    """Trace out the given parties; returns the reduced density matrix.

    ``traced`` is a nonempty proper subset of party indices (0-based).  The
    result acts on the remaining parties in their original order.  ``rho``
    must be Hermitian and positive semidefinite (``_check_density``).
    """
    party_dims, traced, keep = _split_parties(party_dims, traced)
    m = len(party_dims)
    dim = int(np.prod(party_dims))
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"density matrix shape {rho.shape} does not match dims")
    _check_density(rho)
    # axis p is party p's row, axis m + p its column or, if traced, its row again
    col = [p if p in traced else m + p for p in range(m)]
    reduced_cube = np.einsum(rho.reshape(party_dims + party_dims), [*range(m), *col],
                             [*keep, *(m + p for p in keep)])
    out_dim = int(np.prod([party_dims[i] for i in keep]))
    return reduced_cube.reshape(out_dim, out_dim)


def total_trace(rho) -> complex:
    return complex(np.trace(np.asarray(rho)))


def reduced_density(psi, party_dims, traced) -> np.ndarray:
    """Partial trace of the pure-state density |psi><psi|.

    Formed without the full density matrix: with X the unfolding of psi whose
    rows are the kept parties and whose columns are the traced ones, the
    reduced density is X X^dagger; ArithmeticError if it over/underflows.
    """
    party_dims, traced, keep = _split_parties(party_dims, traced)
    psi = np.asarray(psi, dtype=complex).reshape(party_dims)
    if not np.any(psi):
        raise ValueError("zero state has no density matrix")
    rows = int(np.prod([party_dims[i] for i in keep]))
    x = psi.transpose(keep + traced).reshape(rows, -1)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        rho = x @ x.conj().T
    if not (np.all(np.isfinite(rho)) and np.any(rho)):
        raise ArithmeticError("reduced density over- or underflows at this scale of the state")
    return rho


def range_basis(rho, tol: float = EIGEN_RANK_TOL):
    """Orthonormal basis of the column space of a Hermitian PSD matrix.

    Left singular vectors of ``rho`` (:func:`tensor.column_space`): for a
    PSD matrix these are eigenvectors, kept when their eigenvalue is above
    tol times the largest, in descending eigenvalue order.
    """
    check_tol(tol)
    if not np.all(np.isfinite(rho)):
        raise ValueError("matrix entries must be finite")
    return list(column_space(rho, tol).T)


def density_to_json(rho, party_dims) -> str:
    rho = np.asarray(rho, dtype=complex)
    return json.dumps(
        {
            "party_dims": [int(d) for d in party_dims],
            "rows": rho.shape[0],
            "cols": rho.shape[1],
            "entries": complex_to_pairs(rho),
        }
    )
