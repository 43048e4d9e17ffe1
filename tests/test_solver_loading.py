"""The least-squares solver is loaded on the first search, not on import.

Only the multi-start searches need ``scipy.optimize``; ``product_range`` and
``detpoly`` call it through their module-level name ``least_squares``, which
is where a wrapper (the benchmark's tracer) replaces it.
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
print("ok")
"""


def test_import_and_solver_free_commands_load_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


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
