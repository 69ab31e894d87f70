import sys
import tracemalloc

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


@pytest.fixture()
def call_counts(monkeypatch):
    """count(module, name) wraps module.name in every memctrl module that
    binds it and returns a list that gains one entry per call from then
    on to the end of the test."""
    def count(module, name):
        fn, calls = getattr(module, name), []

        def counted(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)

        for key, mod in list(sys.modules.items()):
            if key.startswith("memctrl") and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counted)
        return calls

    return count


@pytest.fixture()
def traced_peak():
    """measure(fn, *args, **kwargs) calls fn under tracemalloc and returns
    its result and the peak of the memory traced during the call, in
    bytes; what the arguments held before the call is not counted."""
    def measure(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, peak

    return measure
