import pytest

from crglobal import families
from crglobal.verify import cr_members, global_sweep

# sha256 of `verify` stdout per profile, and of `verify --profile quick` with
# CRGLOBAL_INJECT set; a change that alters the output on purpose updates
# these digests and says so in CHANGES.md
VERIFY_DIGESTS = {
    "full": "f993235825299aaabe090e0b294118634155136cca5e64b1b6209892afa8ff19",
    "quick": "8666ca0e143041529e7d8519797fbb2f580dabce80e0f661a2a39e644d08e180",
    "injected-quick": "54027b33175643b17bc41dc05e3b2b41916df93c6a5b7e4b03f057be26938bff",
}


@pytest.fixture(scope="session")
def verify_digests():
    return VERIFY_DIGESTS


@pytest.fixture(scope="session")
def corpus_members():
    return list(families.corpus())


@pytest.fixture(scope="session")
def cr6(corpus_members):
    return cr_members(corpus_members, 6)


@pytest.fixture(scope="session")
def cr5(corpus_members):
    return cr_members(corpus_members, 5)


@pytest.fixture(scope="session")
def cr4(corpus_members):
    return cr_members(corpus_members, 4)


@pytest.fixture(scope="session")
def sweep(cr5):
    return global_sweep(cr5)


@pytest.fixture(scope="session")
def named(corpus_members):
    return dict(corpus_members)
