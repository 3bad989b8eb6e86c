"""scipy's compiled band and CSR kernels, loaded without any scipy package.

Importing scipy.linalg or scipy.sparse runs scipy._lib._util, whose
array-API layer imports numpy.f2py and numpy.testing: 0.27 s of the 0.64 s
that `python -X importtime -c "import rtstab.cli"` timed with them (2-core
x86-64, Python 3.11, scipy 1.17), while this module takes 0.03 s.  Even the
top-level `import scipy` runs an __init__ that imports subprocess,
sysconfig, its test utilities and the Cython runtime.  So this module finds
scipy's directory from its import spec without importing the package, and
loads the extension modules of the routines rtstab calls by path,
privately named and outside sys.modules: the very wrappers scipy's own
packages call, so results are bit-identical.  No scipy module enters
sys.modules.
"""

import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_loader


def _scipy_dir() -> str:
    """The directory of the installed scipy package, found without running
    its __init__; ImportError, naming scipy, when it is not installed."""
    spec = find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("rtstab needs scipy's compiled LAPACK, BLAS and sparse "
                          "kernels, but no scipy package is installed")
    return spec.submodule_search_locations[0]


def _load(package: str, name: str):
    """scipy/<package>/<name> as a private extension module; ImportError,
    naming the path, when no file with an extension suffix is there."""
    base = os.path.join(_scipy_dir(), package, name)
    for path in (base + suffix for suffix in EXTENSION_SUFFIXES):
        if os.path.isfile(path):
            loader = ExtensionFileLoader(f"{__name__}.{name}", path)
            module = module_from_spec(spec_from_loader(loader.name, loader))
            loader.exec_module(module)
            sys.modules.pop(loader.name, None)  # a single-phase init enters it
            return module
    raise ImportError(f"no compiled module {base} with a suffix in {EXTENSION_SUFFIXES}")


_flapack, _fblas, _sparsetools = (_load("linalg", "_flapack"), _load("linalg", "_fblas"),
                                  _load("sparse", "_sparsetools"))
dgbtrf, dgbtrs, dpbtrf, dpbtrs = (getattr(_flapack, name) for name in
                                  ("dgbtrf", "dgbtrs", "dpbtrf", "dpbtrs"))
dgbmv, csr_matvec, csr_matvecs = _fblas.dgbmv, _sparsetools.csr_matvec, _sparsetools.csr_matvecs
