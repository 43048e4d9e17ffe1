"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line on success (visible with `pytest -s` or
in the captured output), and asserts both the numerical claims and the
runtime budget of its criterion.
"""

import json
import subprocess
import sys
import time

import numpy as np

import slocc3 as s


def _report(name, elapsed, budget):
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s, budget {budget:.0f}s)")


def random_tensor(rng, dims):
    return rng.standard_normal(dims) + 1j * rng.standard_normal(dims)


def _t1_t2():
    t1 = s.parse_ket("|000>+|111>+|222>", (3, 3, 3))
    t2 = np.zeros((3, 3, 3), dtype=complex)
    t2[0, 0, 0] = t2[1, 1, 0] = 1
    t2[1, 1, 1] = t2[2, 2, 1] = 1
    t2[0, 0, 2] = t2[2, 2, 2] = 1
    return t1, t2


def test_criterion_01_ghz_w_ranks():
    """GHZ rank interval [2,2]; W [3,3] with the 2x2x2 classifier lower bound."""
    start = time.time()
    ghz = s.rank_interval(s.ghz_state())
    w = s.rank_interval(s.w_state())
    elapsed = time.time() - start
    assert (ghz.lower, ghz.upper) == (2, 2)
    assert (w.lower, w.upper) == (3, 3)
    assert w.certificate_lower.startswith("Classifier222")
    assert elapsed < 1.0
    _report("1 ghz-w-ranks", elapsed, 1)


def test_criterion_02_rank_separation_of_diagonal_and_permutation_states():
    """[3,3] for the diagonal state, [3,4] for the six-permutation state."""
    start = time.time()
    diag = s.rank_interval(s.catalog_build("3x3x3-diag"))
    perm = s.rank_interval(s.catalog_build("3x3x3-perm"))
    elapsed = time.time() - start
    assert (diag.lower, diag.upper) == (3, 3)
    assert perm.lower >= 3
    assert 3 <= perm.lower <= perm.upper <= 4
    assert perm.upper == 4
    assert perm.certificate_upper.residual < 1e-8
    assert (diag.lower, diag.upper) != (perm.lower, perm.upper)
    assert elapsed < 30.0
    _report("2 rank-3-vs-4", elapsed, 30)


def test_criterion_03_determinant_polynomial_worked_example():
    """det polys, explicit substitution, and the search verdict for (T1, T2)."""
    start = time.time()
    t1, t2 = _t1_t2()
    f1 = s.det_poly(t1)
    f2 = s.det_poly(t2)
    assert set(f1.coeffs) == {(1, 1, 1)}
    assert abs(f1.coeffs[(1, 1, 1)] - 1) < 1e-10
    expected_f2 = {
        (2, 1, 0): 1, (2, 0, 1): 1, (1, 2, 0): 1, (0, 2, 1): 1,
        (1, 0, 2): 1, (0, 1, 2): 1, (1, 1, 1): 2,
    }
    assert set(f2.coeffs) == set(expected_f2)
    for exp, c in expected_f2.items():
        assert abs(f2.coeffs[exp] - c) < 1e-10

    g = np.array([[0.5, -0.5, 0.5], [0.5, 0.5, -0.5], [-0.5, 0.5, 0.5]])
    mapped = s.substitute(f2, g)
    assert np.max(np.abs(mapped.coeff_vector() - f1.coeff_vector())) < 1e-12

    verdict = s.detpoly_equiv_test(t1, t2, restarts=64, seed=0)
    assert verdict.kind == "CandidateFound"
    assert verdict.residual < 1e-8
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report("3 detpoly-worked-example", elapsed, 10)


def test_criterion_04_equivariance_property_suite():
    """100 trials per law over n in {2, 3, 4}, coefficientwise 1e-10 relative."""
    start = time.time()
    rng = np.random.default_rng(40)
    for trial in range(100):
        n = (2, 3, 4)[trial % 3]
        t = random_tensor(rng, (n, n, 3))
        p = s.random_nonsingular(n, 4000 + 2 * trial, cond_bound=50)
        q = s.random_nonsingular(n, 4001 + 2 * trial, cond_bound=50)
        lhs = s.det_poly(s.apply_type1(t, p, q)).coeff_vector()
        rhs = np.linalg.det(p) * np.linalg.det(q) * s.det_poly(t).coeff_vector()
        scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale
    for trial in range(100):
        n = (2, 3, 4)[trial % 3]
        t = random_tensor(rng, (n, n, 3))
        g = s.random_nonsingular(3, 5000 + trial, cond_bound=50)
        lhs = s.det_poly(s.apply_type2(t, g)).coeff_vector()
        rhs = s.substitute(s.det_poly(t), g).coeff_vector()
        scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report("4 equivariance-suite", elapsed, 60)


def test_criterion_05_range_criterion_example_and_soundness():
    """GHZ count 2, W count 1, Inequivalent; 200 SLOCC pairs never separate."""
    start = time.time()
    ghz_report = s.range_product_count(s.ghz_state(), "A")
    w_report = s.range_product_count(s.w_state(), "A")
    assert ghz_report.independent_count == 2 and ghz_report.exactness == "Exact"
    assert w_report.independent_count == 1 and w_report.exactness == "Exact"
    assert s.range_criterion_compare(s.ghz_state(), s.w_state(), "A") == "Inequivalent"

    rng = np.random.default_rng(50)
    dims_cycle = [(2, 2, 2), (2, 3, 3), (2, 3, 4), (3, 3, 3), (3, 3, 4)]
    for trial in range(200):
        dims = dims_cycle[trial % len(dims_cycle)]
        t = random_tensor(rng, dims)
        maps = s.random_slocc(dims, 100000 + trial, cond_bound=20)
        image = s.apply_slocc(t, *maps)
        verdict = s.range_criterion_compare(t, image, "A", starts=4, seed=trial)
        assert verdict == "Inconclusive", (trial, dims)
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report("5 range-criterion", elapsed, 60)


def test_criterion_06_density_suite():
    """100 random states: partial traces Hermitian PSD with correct trace and
    single-party reduced ranks equal to local ranks."""
    start = time.time()
    rng = np.random.default_rng(60)
    dims_cycle = [(2, 2, 2), (2, 3, 4), (3, 3, 3), (2, 2, 4), (3, 2, 2)]
    for trial in range(100):
        dims = dims_cycle[trial % len(dims_cycle)]
        psi = random_tensor(rng, dims)
        norm_sq = np.linalg.norm(psi) ** 2
        ranks = s.local_ranks(psi)
        for traced in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
            rho = s.reduced_density(psi, dims, traced)
            assert np.allclose(rho, rho.conj().T, atol=1e-10 * norm_sq)
            vals = np.linalg.eigvalsh(rho)
            assert vals.min() > -1e-10 * max(vals.max(), 1.0)
            assert abs(np.trace(rho).real - norm_sq) < 1e-10 * norm_sq
        for party in range(3):
            others = [p for p in range(3) if p != party]
            rho = s.reduced_density(psi, dims, others)
            assert len(s.range_basis(rho)) == ranks[party]
    elapsed = time.time() - start
    _report("6 density-suite", elapsed, 60)


def test_criterion_07_catalog_integrity_and_classification():
    """Rows parse with matching local ranks; the classifier separates the
    table and absorbs random SLOCC images of GHZ."""
    start = time.time()
    rows = s.catalog_list(table_only=True)
    assert len(rows) == 26
    by_system = {}
    for entry in rows:
        t = entry.build()
        assert s.local_ranks(t) == entry.system
        res = s.classify_2mn(t)
        assert res.matched and res.entry.id == entry.id
        by_system.setdefault(entry.system, []).append(res.signature)
    for system, sigs in by_system.items():
        assert len(sigs) == len(set(map(repr, sigs))), system

    for trial in range(50):
        maps = s.random_slocc((2, 2, 2), 7000 + trial, cond_bound=20)
        res = s.classify_2mn(s.apply_slocc(s.ghz_state(), *maps))
        assert res.matched and res.entry.id == "2x2x2-1"
    elapsed = time.time() - start
    _report("7 catalog-classification", elapsed, 60)


def test_criterion_08_multicopy_w():
    """Regrouped W x W is 4x4x4; ALS reaches residual < 1e-6 at R = 7 and 8.

    The exact rank-7 lower bound is an analytic result and is not reproduced
    here; only the upper-bound exhibits are checked.
    """
    start = time.time()
    w2 = s.kron_regroup(s.w_state(), s.w_state())
    assert w2.shape == (4, 4, 4)
    res7 = s.cp_als(w2, 7, restarts=128, seed=0, tol=1e-6)
    assert res7.success and res7.residual < 1e-6
    res8 = s.cp_als(w2, 8, restarts=128, seed=0, tol=1e-6)
    assert res8.success and res8.residual < 1e-6
    elapsed = time.time() - start
    assert elapsed < 300.0
    _report("8 multicopy-w", elapsed, 300)


GOLDEN_KETS = [
    ("|000>+|111>", (2, 2, 2)),
    ("(1/sqrt(3))(|001>+|010>+|100>)", (2, 2, 2)),
    ("(1/sqrt(2))(|000>+|111>)", (2, 2, 2)),
    ("|001>+|010>+|100>", (2, 2, 2)),
    ("|000>+|111>+|222>", (3, 3, 3)),
    ("|012>+|021>+|102>+|120>+|201>+|210>", (3, 3, 3)),
    ("|0>|0>+|1>|1>", (2, 2)),
    ("|01>-|10>", (2, 2)),
    ("|000>+(|1>+|2>)(|3>+|4>+|7>)(|5>+|6>-|0>)", (3, 8, 8)),
]


def test_criterion_09_parser_roundtrip_and_golden_kets():
    """1000 random round-trips within 1e-12; the golden expressions parse."""
    start = time.time()
    rng = np.random.default_rng(90)
    dims_cycle = [(2, 2, 2), (2, 3, 4), (3, 3, 3), (1, 2, 5), (4, 2, 3)]
    for trial in range(1000):
        dims = dims_cycle[trial % len(dims_cycle)]
        t = random_tensor(rng, dims)
        back = s.parse_ket(s.print_ket(t), dims)
        assert np.max(np.abs(back - t)) < 1e-12
    for text, dims in GOLDEN_KETS:
        t = s.parse_ket(text, dims)
        assert np.any(t)
    for entry in s.catalog_list():
        assert np.any(s.parse_ket(entry.ket_text, entry.system))
    elapsed = time.time() - start
    _report("9 parser-roundtrip", elapsed, 60)


RANDOMIZED_CLI_COMMANDS = [
    ["rank", "--ket", "|000>+|111>", "--dims", "2,2,2", "--seed", "11",
     "--output", "json"],
    ["rank", "--ket", "|001>+|010>+|100>", "--dims", "2,2,2", "--seed", "5",
     "--restarts", "8", "--output", "json"],
    ["product-count", "--ket", "|000>+|111>+|222>", "--dims", "3,3,3",
     "--traced", "A", "--seed", "2", "--output", "json"],
]


def test_criterion_10_cli_determinism(tmp_path):
    """Randomized CLI commands repeated with one seed are byte-identical."""
    start = time.time()
    t1, t2 = _t1_t2()
    # t1 is 3x3x3-diag, whose determinant polynomial x*y*z has a continuous
    # stabilizer, so the Jacobian of the substitution search is singular
    image = s.apply_slocc(t1, *s.random_slocc((3, 3, 3), 4, cond_bound=100))
    p1, p2, p3 = (tmp_path / f"t{i}.json" for i in (1, 2, 3))
    p1.write_text(s.tensor_to_json(t1))
    p2.write_text(s.tensor_to_json(t2))
    p3.write_text(s.tensor_to_json(image))
    commands = RANDOMIZED_CLI_COMMANDS + [
        ["detpoly-equiv", str(p1), str(p2), "--seed", "0", "--output", "json"],
        ["detpoly-equiv", str(p1), str(p3), "--seed", "0", "--output", "json"],
        ["range-compare", str(p1), str(p1), "--traced", "B", "--seed", "3",
         "--output", "json"],
    ]
    for args in commands:
        runs = [
            subprocess.run([sys.executable, "-m", "slocc3"] + args,
                           capture_output=True, check=False)
            for _ in range(2)
        ]
        assert runs[0].returncode == 0, runs[0].stderr
        assert runs[0].returncode == runs[1].returncode
        assert runs[0].stdout == runs[1].stdout
        json.loads(runs[0].stdout)  # the payload is one JSON document
    elapsed = time.time() - start
    _report("10 cli-determinism", elapsed, 60)
