import os

# BLAS is pinned to one thread before numpy is first imported, as the
# benchmark pins it: on a shared host, BLAS threads that compete with
# another process slow the full-size solver tests many times over
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402


def rand_complex(rng, m, k, scale=1.0):
    """i.i.d. circularly-symmetric complex Gaussian matrix."""
    return scale * (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))) / np.sqrt(2.0)


def rand_hermitian(rng, k):
    a = rand_complex(rng, k + 2, k)
    return a.conj().T @ a


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
