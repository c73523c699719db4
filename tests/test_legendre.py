import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import nt1_quad, nt2_boundary, nt_tables


def test_known_frozen_values():
    t1, t2 = nt_tables(1.0, 1)
    assert t1[1, 0, 1] == pytest.approx(2 * math.sqrt(3), rel=1e-12)
    assert t2[0, 0, 1] == pytest.approx(-2 * math.sqrt(3), rel=1e-12)


@given(m=st.integers(0, 14), j=st.integers(0, 14),
       kh=st.floats(0.05, 60.0))
@settings(max_examples=120, deadline=None)
def test_orthonormality(m, j, kh):
    t1, _ = nt_tables(kh, max(m, j))
    assert t1[0, j, m] == pytest.approx(1.0 if m == j else 0.0, abs=1e-12)


@pytest.mark.parametrize("kh", [0.3, 2.0, 11.0])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_nt_against_quadrature_oracle(kh, n):
    # the quadrature oracle's own error check holds through order 11 at
    # kh = 2; elsewhere the low orders suffice to pin the kh scaling
    size = 12 if kh == 2.0 else 5
    t1, t2 = nt_tables(kh, size - 1)
    for m in range(size):
        for j in range(size):
            ref = nt1_quad(m, j, n, kh)
            assert t1[n, j, m] == pytest.approx(ref, rel=1e-9, abs=1e-9)
            ref2 = nt2_boundary(m, j, n, kh)
            assert t2[n, j, m] == pytest.approx(ref2, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("kh", [0.05, 2.0, 20.0])
@pytest.mark.parametrize("order", [2, 14, 20])
def test_integration_by_parts_identities(order, kh):
    # [Q_j Q_m]_0^kh splits the first-derivative integral, and
    # [Q_j Q_m']_0^kh leaves the second-derivative one symmetric
    t1, t2 = nt_tables(kh, order)
    scale = max(np.abs(t1[1]).max(), np.abs(t2[0]).max())
    assert np.abs(t1[1] + t1[1].T + t2[0]).max() <= 1e-14 * scale
    stiff = t1[2] + t2[1]
    scale = max(np.abs(t1[2]).max(), np.abs(t2[1]).max())
    assert np.abs(stiff - stiff.T).max() <= 1e-14 * scale
