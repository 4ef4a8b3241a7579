import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from delaylyap import linalg


@pytest.fixture
def decompositions(monkeypatch):
    """Counts of the decompositions taken from now on, by kind: ``"svd"``
    for numpy's and scipy's SVDs, ``"lanczos"`` for the Krylov grades of
    :func:`delaylyap.linalg.smallest_singular_value`. Clear it to count
    afresh."""
    calls = Counter()

    def counting(kind, fn):
        def wrapper(*args, **kwargs):
            calls[kind] += 1
            return fn(*args, **kwargs)
        return wrapper

    for mod, name in ((scipy.linalg, "svd"), (scipy.linalg, "svdvals"),
                      (np.linalg, "svd")):
        monkeypatch.setattr(mod, name, counting("svd", getattr(mod, name)))
    monkeypatch.setattr(linalg, "_smallest_singular_value_krylov",
                        counting("lanczos", linalg._smallest_singular_value_krylov))
    return calls


@pytest.fixture
def traced_peak():
    """``peak(fn, *args)`` calls ``fn`` and returns its result and the most
    bytes that tracemalloc saw allocated at once during the call, beyond
    what was allocated when it started; numpy reports its arrays' data.
    The result counts while it is alive."""
    def peak(fn, *args):
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            out = fn(*args)
            return out, tracemalloc.get_traced_memory()[1] - start
        finally:
            if not tracing:
                tracemalloc.stop()
    return peak
