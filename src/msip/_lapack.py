"""msip's Cholesky factor and solves: LAPACK's dpotrf, dpotrs and dtrtrs.

They are the objects ``scipy.linalg.lapack`` exports, taken from scipy's
compiled wrapper module ``scipy.linalg._flapack``. The module is loaded
from its file without running the ``scipy.linalg`` package, whose import
goes through scipy's array-API layer and pulls in ``numpy.f2py`` and
``numpy.testing``: on a 2-CPU machine that cost 0.3 s and 26 MB in every
process that imports msip. The module is registered under its own name,
so a later ``import scipy.linalg`` finds and reuses it, and the routines
stay the objects scipy exports in either import order.

Where the file cannot be found or loaded this way (Windows wheels, which
set up scipy's DLL search path in the package init, or development
builds), the routines come from ``scipy.linalg.lapack`` itself.
"""

import importlib.machinery
import importlib.util
import os
import sys

_NAME = "scipy.linalg._flapack"


def _load_from_file():
    """scipy.linalg._flapack, loaded from its file; None when not found."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    for root in spec.submodule_search_locations:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                ext = importlib.util.spec_from_file_location(_NAME, path)
                module = importlib.util.module_from_spec(ext)
                ext.loader.exec_module(module)
                sys.modules[_NAME] = module
                return module
    return None


def _flapack():
    """The wrapper module: the loaded one, else from its file, else
    through scipy.linalg.lapack."""
    module = sys.modules.get(_NAME)
    if module is not None:
        return module
    try:
        module = _load_from_file()
    except (ImportError, OSError):
        module = None
    if module is None:
        from scipy.linalg import lapack as module
    return module


_module = _flapack()
dpotrf = _module.dpotrf
dpotrs = _module.dpotrs
dtrtrs = _module.dtrtrs
del _module
