"""Fixtures shared by the test modules."""
import pytest


def _mass_square_integral(model, lo, hi):
    """int_lo^hi M_s^2 ds, substituting s = u^3 to tame the s -> 0 blow-up."""
    from scipy.integrate import quad

    assert 0.0 < lo < hi
    val, _ = quad(
        lambda u: 3.0 * u**2 * model.mass(u**3) ** 2,
        lo ** (1.0 / 3.0),
        hi ** (1.0 / 3.0),
        limit=200,
    )
    return val


@pytest.fixture
def mass_square_integral():
    """The small-time cross-check of infinite initial mass: M_t is square-integrable near 0."""
    return _mass_square_integral
