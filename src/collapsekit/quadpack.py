"""Adaptive quadrature by QUADPACK's QAGS and QAGP (Piessens et al. 1983).

scipy ships QUADPACK compiled as ``scipy.integrate._quadpack``.  Importing
it by name runs ``scipy/integrate/__init__.py``, which loads the ODE and BVP
solvers, cubature and ``scipy.special``, about half a second of a process
that integrates for a few milliseconds.  ``quad`` loads the extension from
its file instead, once, on the first integral, and calls ``_qagse`` or
``_qagpe`` with the arguments ``scipy.integrate.quad`` passes them, so every
value and error flag is the same bit for bit.  The first call imports the
``scipy`` package itself and ``scipy._lib._ccallback``, nothing more.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
from typing import Callable, Iterable

import numpy as np

_EXTENSION = "scipy.integrate._quadpack"


@functools.cache
def _extension():
    """The compiled QUADPACK module, loaded by path so no package init runs."""
    scipy = importlib.util.find_spec("scipy")  # finds the package without importing it
    if scipy is None:
        raise ImportError("quadrature needs scipy's compiled QUADPACK; install scipy")
    loader = (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    for location in scipy.submodule_search_locations:
        finder = importlib.machinery.FileFinder(os.path.join(location, "integrate"), loader)
        spec = finder.find_spec(_EXTENSION)
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"scipy at {list(scipy.submodule_search_locations)} has no {_EXTENSION}")


def quad(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    epsabs: float,
    epsrel: float,
    limit: int,
    points: Iterable[float] = (),
) -> tuple[float, bool]:
    """The integral of f over [lo, hi], lo <= hi finite, and whether it converged.

    QAGP when some of ``points`` lie strictly inside (lo, hi), QAGS
    otherwise: ``scipy.integrate.quad(f, lo, hi, epsabs=epsabs,
    epsrel=epsrel, limit=limit, points=...)`` with no message.
    """
    inner = sorted({p for p in points if lo < p < hi})
    if inner:
        # QAGP takes npts + 2 slots for npts break points; quad pads with zeros
        breaks = np.array(inner + [0.0, 0.0])
        value, _, ier = _extension()._qagpe(f, lo, hi, breaks, (), 0, epsabs, epsrel, limit)
    else:
        value, _, ier = _extension()._qagse(f, lo, hi, (), 0, epsabs, epsrel, limit)
    return value, ier == 0
