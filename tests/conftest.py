import numpy as np
import pytest

from convexflow import AngularGrid, Circle, CurvatureProfile, Ellipse, generate


@pytest.fixture(scope="session")
def grid256():
    return AngularGrid(256)


@pytest.fixture(scope="session")
def unit_circle():
    return generate(Circle(r=1.0))


@pytest.fixture(scope="session")
def ellipse21():
    return generate(Ellipse(a=2.0, b=1.0))


@pytest.fixture
def field_of():
    """Samples of a callable on the n-point angular grid."""

    def make(fn, n=256):
        return fn(AngularGrid(n).theta)

    return make


@pytest.fixture(scope="session")
def assert_matched_scalars():
    """Compare every scalar column of two series at matched sample times.

    Near-zero columns compare against a floor of 1e-3 of their own
    dynamic range; the closure defect, which is conserved to round-off,
    is floored by its reporting budget of 1e-6 * L(0) instead (changes
    far below the budget are unchanged for every decision the column
    informs).
    """

    def check(series_a, series_b, rtol):
        names = series_a.column_names()
        assert names == series_b.column_names()
        n = min(len(series_a), len(series_b))
        assert n >= 2
        ta, tb = series_a.column("t")[:n], series_b.column("t")[:n]
        assert np.array_equal(ta, tb)
        L0 = series_a[0].L
        for name in names:
            if name in ("t", "Q_ok"):
                continue
            a = series_a.column(name)[:n]
            b = series_b.column(name)[:n]
            assert np.array_equal(np.isnan(a), np.isnan(b)), name
            good = ~np.isnan(a)
            a, b = a[good], b[good]
            diff = np.abs(a - b)
            if not diff.any():
                continue
            if name == "closure_defect":
                floor = 1e-6 * L0
            else:
                floor = 1e-3 * np.abs(a).max()
            denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
            rel = np.zeros_like(diff)
            mask = diff > 0.0
            rel[mask] = diff[mask] / denom[mask]
            assert rel.max() < rtol, (name, float(rel.max()))

    return check
