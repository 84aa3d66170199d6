import pytest

from crglobal import families
from crglobal.verify import cr_members, global_sweep

# sha256 of `verify` stdout per profile, and of `verify --profile quick` with
# CRGLOBAL_INJECT set; a change that alters the output on purpose updates
# these digests and says so in CHANGES.md
VERIFY_DIGESTS = {
    "full": "3a1495980886d5703e636c1c50e4c1ffd96a1cd8e812f11a49d120a22e9c5266",
    "quick": "3c039026f89be8bb16865204ba59315210819b3cd14b271e357eced3075f220e",
    "injected-quick": "16bc50a2706d578d7c84f6f663ee01eb09c8a7b4ec25cf4bb4907fb51352111a",
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
