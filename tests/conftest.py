import numpy as np
import pytest

from memctrl import config


@pytest.fixture(scope="session")
def cfg():
    c = config.default_config()
    c.validate()
    return c


@pytest.fixture()
def rng():
    # function-scoped: draws must not depend on test execution order
    return np.random.default_rng(20240817)


@pytest.fixture()
def argsort_sizes(monkeypatch):
    """The sizes of the arrays np.argsort sorts during the test, in call
    order."""
    sizes = []
    argsort = np.argsort

    def counted(a, *args, **kwargs):
        sizes.append(np.size(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    return sizes
