import pytest

from epsim.datafiles import load_bundled_model
from epsim.model import validate_suite


@pytest.fixture(scope="session")
def bundled_model():
    model = load_bundled_model()
    assert validate_suite(model).ok
    return model
