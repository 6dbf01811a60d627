import numpy as np
import pytest

import diluteu as d


@pytest.fixture(scope="session")
def rad():
    return d.rademacher()


@pytest.fixture(scope="session")
def norm():
    return d.standard_normal()


@pytest.fixture(scope="session")
def unif():
    return d.uniform(-1.0, 1.0)


@pytest.fixture(scope="session")
def skewed():
    # mean-zero two-point law with a heavy negative atom; sign mean -2/3,
    # so the sign kernel is non-degenerate on it
    return d.table([-1, 5], [5.0 / 6.0, 1.0 / 6.0])


@pytest.fixture(scope="session")
def tri():
    # mean-zero three-point law with an atom at 0 (so P(X != 0) = 3/4);
    # dyadic probabilities keep every enumerated moment exact
    return d.table([-1, 0, 2], [0.5, 0.25, 0.25])


# A non-degenerate rank-3 table kernel on the tri law: arbitrary symmetric
# values minus their mean 0.46875 under that law (exact in binary).
TRI_TABLE = [
    (a, b, v - 0.46875)
    for a, b, v in [(-1, -1, 1.0), (-1, 0, 0.5), (-1, 2, -1.0),
                    (0, 0, 2.0), (0, 2, 0.25), (2, 2, 3.0)]
]


@pytest.fixture(scope="session")
def tri_kernel(tri):
    return d.kernel_from_table("tri", TRI_TABLE, dist=tri)


@pytest.fixture(scope="session")
def policy():
    return d.SeedPolicy(master_seed=6)


def rng_of(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def dense_of(graph):
    """The graph's symmetric boolean n x n matrix (diagonal False), read
    from its pair bits in storage order, not from its edge list."""
    iu, ju = np.triu_indices(graph.n, k=1)
    keep = graph.bits()
    m = np.zeros((graph.n, graph.n), dtype=bool)
    m[iu[keep], ju[keep]] = True
    return m | m.T
