"""Slice transformations, local (SLOCC) maps, and seeded random matrices.

Two slice transformations act on an n x n x 3 tensor with mode-3 slices
(A, B, C): the first multiplies every slice on both sides by fixed
nonsingular matrices, (A, B, C) -> (PAQ, PBQ, PCQ); the second recombines
the slices through a nonsingular 3x3 matrix G, new slice j = sum_i
G[i, j] * old slice i (columns of G give the new slices).  A full local map
applies one matrix per party.
"""

from __future__ import annotations

import numpy as np

NONSINGULAR_TOL = 1e-10


def is_nonsingular(m, tol: float = NONSINGULAR_TOL) -> bool:
    """Smallest singular value above tol times the largest."""
    m = np.asarray(m, dtype=complex)
    if m.shape[0] != m.shape[1]:
        return False
    s = np.linalg.svd(m, compute_uv=False)
    return bool(s[0] > 0 and s[-1] > tol * s[0])


def _require_nonsingular(m, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    if not is_nonsingular(m):
        raise ValueError(f"{name} is singular to working precision")
    return m


def apply_type1(t, p, q) -> np.ndarray:
    """Replace every mode-3 slice X by P @ X @ Q (P, Q nonsingular)."""
    t = np.asarray(t, dtype=complex)
    n1, n2, n3 = t.shape
    if n1 != n2 or n3 != 3:
        raise ValueError(f"expected an n x n x 3 tensor, got {t.shape}")
    p = _require_nonsingular(p, "P")
    q = _require_nonsingular(q, "Q")
    if p.shape[0] != n1 or q.shape[0] != n1:
        raise ValueError("P and Q must match the slice size")
    return np.einsum("ia,abk,bj->ijk", p, t, q)


def apply_type2(t, g) -> np.ndarray:
    """Recombine the three slices: new slice j = sum_i G[i, j] * old slice i."""
    t = np.asarray(t, dtype=complex)
    if t.ndim != 3 or t.shape[2] != 3:
        raise ValueError(f"expected 3 slices in mode 3, got {t.shape}")
    g = _require_nonsingular(g, "G")
    if g.shape != (3, 3):
        raise ValueError("G must be 3x3")
    return np.einsum("abi,ij->abj", t, g)


def apply_slocc(t, a, b, c) -> np.ndarray:
    """Apply one matrix per party: out_ijk = sum A_ii' B_jj' C_kk' t_i'j'k'.

    The factors may be singular or rectangular; one-way (non-invertible)
    maps are deliberately allowed here.
    """
    t = np.asarray(t, dtype=complex)
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    c = np.asarray(c, dtype=complex)
    if a.shape[1] != t.shape[0] or b.shape[1] != t.shape[1] or c.shape[1] != t.shape[2]:
        raise ValueError(
            f"factor shapes {a.shape},{b.shape},{c.shape} do not match dims {t.shape}"
        )
    return np.einsum("ip,jq,kr,pqr->ijk", a, b, c, t)


def random_nonsingular(dim: int, seed, cond_bound: float = 1e6,
                       max_tries: int = 128) -> np.ndarray:
    """Seeded complex Gaussian matrix resampled until cond <= cond_bound.

    Deterministic for a fixed seed (an int or a numpy SeedSequence).
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if not cond_bound > 1:  # NaN fails too
        raise ValueError("cond_bound must exceed 1")
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        m = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        m /= np.sqrt(2.0)
        s = np.linalg.svd(m, compute_uv=False)
        if s[-1] > 0 and s[0] / s[-1] <= cond_bound:
            return m
    raise ArithmeticError(
        f"no matrix with condition <= {cond_bound} found in {max_tries} tries"
    )


def random_slocc(dims, seed, cond_bound: float = 1e6):
    """Triple of seeded nonsingular factors sized for the given dims."""
    root = np.random.SeedSequence(seed) if isinstance(seed, int) else seed
    children = root.spawn(3)
    return tuple(
        random_nonsingular(d, s, cond_bound) for d, s in zip(dims, children)
    )
