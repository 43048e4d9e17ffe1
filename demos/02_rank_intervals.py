# Tensor-rank intervals with explicit certificates.
#
# The lower bound names its certificate: Classifier222 (exact on 2 x 2 x 2
# via the hyperdeterminant), JaJa (exact when the support has a mode of
# dim 2, from Ja'Ja's formula on the Kronecker form of the slice pencil),
# Strassen (the commutator bound on n x n x k supports, k >= 3), or else
# LocalRank.  The upper bound is an explicit CP decomposition.  When the
# support has a mode of dim 2 (GHZ, W) it is built from the slice pencil,
# padded to R x R with fixed generic entries and diagonalised by one
# eigendecomposition ("padded pencil construction"); otherwise (the 3x3x3
# states) it is found by seeded alternating least squares.  A failed ALS run
# never raises the lower bound: the border rank can be strictly below the
# rank, so non-convergence proves nothing.

import numpy as np

import slocc3 as s

for name in ("ghz", "w", "3x3x3-diag", "3x3x3-perm"):
    t = s.catalog_build(name)
    interval = s.rank_interval(t, seed=0)
    print(f"{name:12s} interval [{interval.lower}, {interval.upper}]"
          f"  lower via {interval.certificate_lower}"
          f"  residual {interval.certificate_upper.residual:.2e}")

# The hyperdeterminant separates the two genuinely entangled 2x2x2 classes:
# nonzero on the rank-2 class, zero on the rank-3 class.
print("hyperdet(GHZ/sqrt2):", s.hyperdeterminant_222(s.ghz_state() / np.sqrt(2)))
print("hyperdet(W):        ", abs(s.hyperdeterminant_222(s.w_state())))

# Rank is a SLOCC invariant: random invertible local maps leave the computed
# interval unchanged.
maps = s.random_slocc((2, 2, 2), seed=1, cond_bound=20)
moved = s.apply_slocc(s.w_state(), *maps)
interval = s.rank_interval(moved)
print("transformed W interval:", (interval.lower, interval.upper))

# The upper-bound certificate really reconstructs the tensor.
res = s.cp_als(s.catalog_build("3x3x3-perm"), 4, seed=0)
err = np.linalg.norm(res.reconstruct() - s.catalog_build("3x3x3-perm"))
print("rank-4 decomposition of the permutation state, error:", f"{err:.2e}")
