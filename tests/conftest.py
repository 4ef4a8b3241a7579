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
