"""No command and no search loads scipy.

Both multi-start searches, the product-vector search for k >= 4 and the
determinant-polynomial substitution test, run the numpy Levenberg-Marquardt
loop ``tensor.least_squares``.  ``product_range`` and ``detpoly`` call it
through their module-level name ``least_squares``, which is where a wrapper
(the benchmark's tracer) replaces it.  Rank intervals are numpy only as
well: the padded-pencil construction, and CP-ALS through
``numpy.linalg.lapack_lite.zgelsd``.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import slocc3 as s
from slocc3 import detpoly, product_range

SRC = Path(__file__).resolve().parents[1] / "src"

NO_SCIPY_SCRIPT = """
import contextlib, io, sys
import numpy as np
import slocc3, slocc3.cli

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

# explicit checks, not assert: the script may inherit PYTHONOPTIMIZE
if loaded():
    sys.exit(f"import loaded {loaded()[:3]}")
runs = (
    ["classify2mn", "--ket", "|000>+|111>", "--dims", "2,2,2"],
    ["product-count", "--ket", "|000>+|111>+|222>", "--dims", "3,3,3", "--traced", "A"],
)
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        code = slocc3.cli.main(argv)
    if code != 0 or loaded():
        sys.exit(f"{argv[0]}: exit {code}, loaded {loaded()[:3]}")
for name in ("2x3x4-4", "3x3x3-perm"):
    slocc3.rank_lower_bound(slocc3.catalog_build(name))
    if loaded():
        sys.exit(f"rank_lower_bound({name}): loaded {loaded()[:3]}")
image = slocc3.apply_slocc(slocc3.catalog_build("2x3x4-1"),
                           *slocc3.random_slocc((2, 3, 4), 7, cond_bound=100))
# 3x3x3-perm has no mode of dim 2 and takes the CP-ALS path
for name, t in (("ghz", slocc3.ghz_state()), ("2x3x4-1 image", image),
                ("3x3x3-perm", slocc3.catalog_build("3x3x3-perm"))):
    slocc3.rank_interval(t, restarts=2, max_iter=300)
    if loaded():
        sys.exit(f"rank_interval({name}): loaded {loaded()[:3]}")
rng = np.random.default_rng(3)
planted = [np.outer(rng.standard_normal(3), rng.standard_normal(3)) for _ in range(3)]
space = slocc3.MatrixSubspace(3, 3, planted + [rng.standard_normal((3, 3))])
report = slocc3.find_product_vectors(space, starts=3, seed=5)
if report.exactness != "LowerBound" or loaded():
    sys.exit(f"k = 4 search: {report.exactness}, loaded {loaded()[:3]}")
other = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
verdict = slocc3.detpoly_equiv_test(slocc3.catalog_build("3x3x3-diag"), other, restarts=2)
if verdict.kind != "NoCandidateFound" or loaded():
    sys.exit(f"detpoly search: {verdict.kind}, loaded {loaded()[:3]}")
print("ok")
"""


def test_import_and_solver_free_commands_load_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_rank_cli_loads_no_scipy():
    """``python -m slocc3 rank`` in a fresh interpreter imports no scipy
    module, as the interpreter's own import log shows."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "slocc3", "rank",
                           "--ket", "|000>+|111>", "--dims", "2,2,2"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "rank interval: [2, 2]" in proc.stdout
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "slocc3.rank" in imported
    assert not [m for m in imported if m == "scipy" or m.startswith("scipy.")]


def _count_solver_calls(monkeypatch):
    """Wrap both modules' ``least_squares``; returns the results per module."""
    calls = {"product_range": [], "detpoly": []}
    for name, module in (("product_range", product_range), ("detpoly", detpoly)):
        solve = module.least_squares

        def counted(*args, _solve=solve, _sols=calls[name], **kwargs):
            sol = _solve(*args, **kwargs)
            _sols.append(sol)
            return sol

        monkeypatch.setattr(module, "least_squares", counted)
    return calls


def _assert_integer_nfev(sols):
    for sol in sols:
        assert int(sol.nfev) == sol.nfev >= 1


def test_product_search_calls_through_module_name(monkeypatch):
    rng = np.random.default_rng(3)
    planted = [np.outer(rng.standard_normal(3), rng.standard_normal(3)) for _ in range(3)]
    space = s.MatrixSubspace(3, 3, planted + [rng.standard_normal((3, 3))])
    expected = s.find_product_vectors(space, starts=3, seed=5)

    calls = _count_solver_calls(monkeypatch)
    report = s.find_product_vectors(space, starts=3, seed=5)
    assert len(calls["product_range"]) == 3
    assert calls["detpoly"] == []
    _assert_integer_nfev(calls["product_range"])
    assert report.exactness == "LowerBound"
    assert report.vectors
    assert report.to_json() == expected.to_json()


def test_detpoly_search_calls_through_module_name(monkeypatch):
    diag = s.parse_ket("|000>+|111>+|222>", (3, 3, 3))
    rng = np.random.default_rng(9)
    other = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
    expected = s.detpoly_equiv_test(diag, other, restarts=2, seed=1)

    calls = _count_solver_calls(monkeypatch)
    verdict = s.detpoly_equiv_test(diag, other, restarts=2, seed=1)
    assert len(calls["detpoly"]) == 2
    assert calls["product_range"] == []
    _assert_integer_nfev(calls["detpoly"])
    assert verdict.kind == "NoCandidateFound"
    assert verdict.to_json() == expected.to_json()
