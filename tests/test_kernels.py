"""The compiled kernels rtstab loads by path against scipy's own packages."""

import ast
import sys
from pathlib import Path

import numpy as np

from rtstab import _kernels
# scipy's own modules load after the private copies and live beside them
import scipy.sparse as sp
from scipy.linalg import blas, lapack

N, W = 60, 3


def _band(rng, spd: bool) -> np.ndarray:
    """Random general band storage (2 W + 1, N), Fortran-ordered; with spd
    its matrix is symmetric and diagonally dominant."""
    ab = np.asfortranarray(rng.uniform(-1.0, 1.0, (2 * W + 1, N)))
    if spd:
        for k in range(1, W + 1):  # A[i, i + k] = A[i + k, i]
            ab[W + k, :N - k] = ab[W - k, k:]
        ab[W] = 2.0 * W + 1.0 + rng.uniform(0.0, 1.0, N)
    return ab


def _identical(got, want):
    for a, b in zip(got, want):
        assert np.asarray(a).dtype == np.asarray(b).dtype
        assert np.array_equal(a, b)


def test_private_copies_live_beside_scipys_own():
    for name in ("dgbtrf", "dgbtrs", "dpbtrf", "dpbtrs"):
        assert getattr(_kernels, name) is not getattr(lapack, name)
    assert _kernels.dgbmv is not blas.dgbmv
    for module in (_kernels._flapack, _kernels._fblas, _kernels._sparsetools):
        assert module.__name__.startswith("rtstab._kernels.")
        assert module.__name__ not in sys.modules


def test_band_cholesky_and_solve_are_bit_identical():
    rng = np.random.default_rng(7)
    upper = _band(rng, spd=True)[:W + 1]
    ours, theirs = _kernels.dpbtrf(upper), lapack.dpbtrf(upper)
    assert ours[1] == 0
    _identical(ours, theirs)
    b = rng.standard_normal(N)
    _identical(_kernels.dpbtrs(ours[0], b), lapack.dpbtrs(theirs[0], b))


def test_pivoted_band_lu_and_solve_are_bit_identical():
    rng = np.random.default_rng(8)
    ab = np.zeros((3 * W + 1, N), order="F")
    ab[W:] = _band(rng, spd=False)
    ours, theirs = _kernels.dgbtrf(ab, W, W), lapack.dgbtrf(ab, W, W)
    assert ours[2] == 0 and not np.array_equal(ours[1], np.arange(1, N + 1))
    _identical(ours, theirs)
    b = rng.standard_normal(N)
    _identical(_kernels.dgbtrs(ours[0], W, W, b, ours[1]),
               lapack.dgbtrs(theirs[0], W, W, b, theirs[1]))


def test_band_product_is_bit_identical():
    rng = np.random.default_rng(9)
    b = rng.standard_normal(N)
    ab = _band(rng, spd=False)
    _identical([_kernels.dgbmv(N, N, W, W, 1.0, ab, b)], [blas.dgbmv(N, N, W, W, 1.0, ab, b)])


def test_csr_products_are_bit_identical():
    rng = np.random.default_rng(10)
    A = sp.random_array((N, 2 * N), density=0.2, format="csr", rng=rng)
    x, X = rng.standard_normal(2 * N), rng.standard_normal((2 * N, 5))
    y, Y = np.zeros(N), np.zeros((N, 5))
    _kernels.csr_matvec(N, 2 * N, A.indptr, A.indices, A.data, x, y)
    _kernels.csr_matvecs(N, 2 * N, 5, A.indptr, A.indices, A.data, X.ravel(), Y.ravel())
    _identical([y, Y], [A @ x, A @ X])


def test_band_factorizations_have_one_home():
    # every LAPACK band factorization and solve goes through
    # variational.cholesky and variational.lu: no other module of the
    # package names the routines, as a name, an attribute or an import
    routines = {"dpbtrf", "dpbtrs", "dgbtrf", "dgbtrs"}
    naming = set()
    for path in Path(_kernels.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.alias):
                names |= {node.name, node.asname}
            if names & routines:
                naming.add(path.name)
    assert naming == {"_kernels.py", "variational.py"}
