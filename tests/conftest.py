import pytest

from circulant import Example12Params, Section, example12, generalized_wreath, rank2


@pytest.fixture(scope="session")
def z9_fixture():
    """rank2(Z_3) wr rank2(Z_3) over Z_9: {{0},{3,6},{1,2,4,5,7,8}}."""
    return generalized_wreath(rank2(3), rank2(3), Section(9, 3, 3))


@pytest.fixture(scope="session")
def example12_fixture():
    """The four-prime non-schurian ring over Z_3575 and its factors."""
    return example12(Example12Params())
