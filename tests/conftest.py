import numpy as np
import pytest
from hypothesis import settings

from orbidiff import model as M
from orbidiff.riemann import ExpMap

# `pytest --hypothesis-profile=ci` replays the same examples on every run;
# without it hypothesis keeps exploring new ones
settings.register_profile("ci", derandomize=True, deadline=None)


@pytest.fixture(scope="session")
def football3():
    return M.football(3)


@pytest.fixture(scope="session")
def football3_atlas(football3):
    return M.build_atlas(football3, resolution=20)


@pytest.fixture(scope="session")
def football3_exp(football3):
    return ExpMap.closed_form(football3)


@pytest.fixture(scope="session")
def line_flip():
    return M.line_mod_flip()


@pytest.fixture(scope="session")
def line_flip_atlas(line_flip):
    return M.build_atlas(line_flip, resolution=15)


@pytest.fixture(scope="session")
def mirror():
    return M.plane_mod_reflection()


@pytest.fixture(scope="session")
def disk_z4():
    return M.disk_mod_rotation(4)


@pytest.fixture(scope="session")
def disk_z4_atlas(disk_z4):
    return M.build_atlas(disk_z4, resolution=13)


@pytest.fixture(scope="session")
def manifold():
    return M.manifold_disk(2)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
