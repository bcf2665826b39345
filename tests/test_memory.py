"""Memory guards for the block-wise output kernels.

``simulate`` and ``FrequencyResponse.to_csv`` work in blocks of rows so that
their temporaries stay bounded however long the input is.  The peak of
traced allocations shows a whole-length temporary (a stacked ``Bd u`` over
every step, or every CSV row formatted at once) long before the process's
peak RSS does.
"""

import tracemalloc

import numpy as np

from modalsyn.statespace import FrequencyResponse, StateSpaceModel, simulate

MARGIN = 2 ** 20  # bytes above the returned arrays; a block uses ~0.5 MB


def traced_peak(func, *args):
    tracemalloc.start()
    try:
        result = func(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_peak_is_its_outputs_plus_a_margin():
    rng = np.random.default_rng(3)
    n, m, p = 32, 4, 3
    g = StateSpaceModel(rng.standard_normal((n, n)) - 8 * np.eye(n),
                        rng.standard_normal((n, m)),
                        rng.standard_normal((p, n)),
                        rng.standard_normal((p, m)))
    u = rng.standard_normal((20_000, m))
    (_, X, Y), peak = traced_peak(simulate, g, u, 1e-4)
    # a whole-length Bd u alone would be another X (5.1 MB)
    assert peak <= X.nbytes + Y.nbytes + MARGIN


def test_to_csv_peak_is_bounded(tmp_path):
    rng = np.random.default_rng(4)
    shape = (400, 6, 7)
    fr = FrequencyResponse(np.logspace(-1, 4, shape[0]),
                           rng.standard_normal(shape)
                           + 1j * rng.standard_normal(shape))
    _, peak = traced_peak(fr.to_csv, tmp_path / "fr.csv")
    # formatting all 16 800 rows at once takes several MB
    assert peak <= MARGIN
