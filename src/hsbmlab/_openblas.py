"""The OpenBLAS that numpy.linalg links, reached with ctypes.

numpy's wheels link scipy-openblas, built with 64-bit integers, whose
symbols carry a scipy_ prefix and a 64_ suffix: scipy_openblas_
get_num_threads64_ for its own calls, scipy_dsytrd_64_ for LAPACK's.  A
numpy built against a system OpenBLAS exports openblas_get_num_threads,
and its LAPACK under names nothing here binds.  dlsym on the linalg
extension also searches the libraries it depends on, so the wheel's file
layout does not matter.  Every lookup runs on first use and is cached;
importing this module loads nothing.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np


@functools.cache
def _linalg_library():
    """numpy.linalg's extension as a ctypes library, or None."""
    try:
        from numpy.linalg import _umath_linalg
        return ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, AttributeError, OSError):
        return None


@functools.cache
def thread_calls():
    """(get, set) for the thread count of the OpenBLAS that numpy.linalg
    links, or None."""
    lib = _linalg_library()
    if lib is None:
        return None
    for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
        get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
        set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def _address(arg):
    """What a Fortran routine receives for one argument: the address of a
    character, of a 64-bit integer or of an array's first element."""
    if isinstance(arg, str):
        return arg.encode()
    if isinstance(arg, np.ndarray):
        if arg.dtype not in (np.float64, np.int64) or not arg.flags.f_contiguous:
            raise TypeError("LAPACK arrays must be F-contiguous float64 or int64")
        return arg.ctypes.data
    return ctypes.byref(ctypes.c_int64(arg))


@functools.cache
def lapack(name: str, nargs: int, nchars: int = 0):
    """A callable for the double-precision LAPACK routine scipy_<name>_64_
    of numpy's OpenBLAS, or None where it does not export it.

    The routine takes nargs arguments, INFO last, nchars of them single
    characters.  The callable takes the nargs - 1 before INFO in order: a
    str for a character, an int for an integer and an F-contiguous float64
    or int64 array for an array (its size is the caller's to get right).
    It passes each by address, INFO after them and the hidden length of
    each character last, as gfortran does, and returns INFO.
    """
    lib = _linalg_library()
    routine = getattr(lib, f"scipy_{name}_64_", None) if lib is not None else None
    if routine is None:
        return None
    routine.argtypes = [ctypes.c_void_p] * nargs + [ctypes.c_size_t] * nchars
    routine.restype = None
    lengths = (1,) * nchars

    def call(*args):
        if len(args) != nargs - 1:
            raise TypeError(f"{name} takes {nargs - 1} arguments before INFO")
        info = ctypes.c_int64()
        routine(*map(_address, args), ctypes.byref(info), *lengths)
        return info.value

    return call


def with_workspace(call, *args) -> int:
    """Run a LAPACK callable whose last two arguments are WORK and LWORK,
    first as a workspace query (LWORK = -1), then with the optimal WORK it
    reports; returns INFO."""
    query = np.empty(1)
    info = call(*args, query, -1)
    return info or call(*args, np.empty(int(query[0])), int(query[0]))
