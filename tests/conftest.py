import hashlib
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

settings.register_profile(
    "tomonoise",
    database=None,
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("tomonoise")


@st.composite
def coherent_betas(draw):
    re = draw(st.floats(-3.0, 3.0, allow_nan=False))
    im = draw(st.floats(-3.0, 3.0, allow_nan=False))
    return complex(re, im)


@st.composite
def small_density_matrices(draw, max_dim=5):
    """Random valid density matrix: convex mix of a few random pure states."""
    dim = draw(st.integers(1, max_dim))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    k = draw(st.integers(1, 3))
    weights = rng.random(k)
    weights /= weights.sum()
    rho = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        rho += w * np.outer(v, v.conj())
    rho = 0.5 * (rho + rho.conj().T)
    rho /= rho.trace().real
    return rho


@pytest.fixture(autouse=True)
def no_block_helper_outlives_the_test():
    """Fail a test that leaves a run_blocks helper thread alive: helpers live only inside that call."""
    yield
    alive = [t.name for t in threading.enumerate() if t.name.startswith("tomonoise-blocks-")]
    if alive:
        pytest.fail(f"block helper threads left alive: {alive}")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260811)


def sha256(*arrays, dtype="<f8"):
    """Hex sha256 of the arrays' bytes as dtype, one after another: the form of every sampled-stream pin."""
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype=dtype).tobytes())
    return digest.hexdigest()
