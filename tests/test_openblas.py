"""The ctypes bindings to the OpenBLAS that numpy.linalg links: lookups
that miss give None, and a LAPACK call passes its arguments by address,
with arrays checked before their pointers are passed."""

import numpy as np
import pytest

from hsbmlab import _openblas

DSTERF = _openblas.lapack("dsterf", 4)


def test_unknown_routine_is_none():
    assert _openblas.lapack("no_such_routine", 1) is None


@pytest.mark.skipif(DSTERF is None, reason="numpy's OpenBLAS exports no 64-bit LAPACK")
class TestLapack:
    def test_dsterf_gives_eigvalsh(self):
        # eigvalsh is dsytrd then dsterf, so a tridiagonal matrix's
        # eigenvalues agree to the bit.
        rng = np.random.default_rng(0)
        d, e = rng.normal(size=8), rng.normal(size=7)
        T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        w = d.copy()
        assert DSTERF(8, w, e.copy()) == 0
        assert np.array_equal(w, np.linalg.eigvalsh(T))

    def test_info_reports_a_bad_argument(self):
        # N = -1 is argument 1 out of range: INFO = -1.
        assert DSTERF(-1, np.empty(1), np.empty(1)) == -1

    @pytest.mark.parametrize("array", [np.zeros((3, 3)), np.zeros(3, dtype=np.int32)])
    def test_rejects_arrays_lapack_cannot_read(self, array):
        # A C-order matrix and 32-bit integers.
        with pytest.raises(TypeError):
            DSTERF(3, array, np.empty(2))

    def test_rejects_a_wrong_argument_count(self):
        with pytest.raises(TypeError):
            DSTERF(3, np.empty(3))
