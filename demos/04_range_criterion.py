# Separating GHZ from W with the range criterion.
#
# Tracing out one party leaves a reduced density matrix; vectors in its range
# live in a bipartite space where "product vector" means "rank-1 matrix" after
# reshaping.  The number of linearly independent product vectors in that range
# is a SLOCC invariant, and it differs for GHZ (two) and W (one).


import slocc3 as s

ghz, w = s.ghz_state(), s.w_state()

rho_ghz = s.reduced_density(ghz, (2, 2, 2), [0])
rho_w = s.reduced_density(w, (2, 2, 2), [0])
print("GHZ reduced density (trace out A):")
print(rho_ghz.real)
print("W reduced density:")
print(rho_w.real)

report_ghz = s.range_product_count(ghz, "A")
report_w = s.range_product_count(w, "A")
print("GHZ product vectors:", report_ghz.independent_count, report_ghz.exactness)
print("W   product vectors:", report_w.independent_count, report_w.exactness)

print("verdict:", s.range_criterion_compare(ghz, w, "A"))

# The criterion is sound: states related by invertible local maps are never
# declared inequivalent.
maps = s.random_slocc((2, 2, 2), seed=7, cond_bound=20)
image = s.apply_slocc(ghz, *maps)
print("GHZ vs transformed GHZ:", s.range_criterion_compare(ghz, image, "A"))

# A 3-dimensional range is counted exactly from the common zeros of two minor
# quadrics, so the diagonal and permutation 3x3x3 states (3 and 0 product
# vectors) are separated.  From dimension 4 up the count comes from a
# multi-start search, an explicit lower bound on which the comparison
# refuses to separate states.
diag3, perm3 = s.catalog_build("3x3x3-diag"), s.catalog_build("3x3x3-perm")
report = s.range_product_count(diag3, "A", seed=0)
print("3-dim range:", report.independent_count, "found,", report.exactness)
print("diag vs perm:", s.range_criterion_compare(diag3, perm3, "A"))
