import numpy as np
import pytest

from auglqr import solve

from _support import SUITE_DIMS, load_fixture, random_stabilizable_model


@pytest.fixture
def inv_calls(monkeypatch):
    """The matrices np.linalg.inv is called on, in call order."""
    calls = []
    original = np.linalg.inv

    def counted(m):
        calls.append(np.array(m))
        return original(m)

    monkeypatch.setattr(np.linalg, "inv", counted)
    return calls


@pytest.fixture(scope="session")
def golden_spec():
    return load_fixture("golden.json")


@pytest.fixture(scope="session")
def back_spec():
    return load_fixture("back.json")


@pytest.fixture(scope="session")
def suite_models(golden_spec, back_spec):
    """GOLDEN, BACK, and 20 seeded random stabilizable models."""
    rng = np.random.default_rng(20250810)
    models = [("GOLDEN", golden_spec), ("BACK", back_spec)]
    for i, (n_k, n_x, n_z, n_u, beta) in enumerate(SUITE_DIMS):
        models.append(
            (f"random-{i:02d}", random_stabilizable_model(rng, n_k, n_x, n_z, n_u, beta))
        )
    return models


@pytest.fixture(scope="session")
def solved_suite(suite_models):
    """Each suite model with its Riccati and Sylvester solutions."""
    return [(name, spec, *solve(spec)[:2]) for name, spec in suite_models]


@pytest.fixture(scope="session")
def golden_solved(golden_spec):
    return (golden_spec, *solve(golden_spec))


@pytest.fixture(scope="session")
def back_solved(back_spec):
    return (back_spec, *solve(back_spec))
