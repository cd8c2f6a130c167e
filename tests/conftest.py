import numpy as np
import pytest
from hypothesis import settings

from snrdiff import make_schedule, oracle_score_model, single_gaussian

# Property tests draw the same examples on every run.
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")

BUILTIN = ("VP", "VE", "iDDPM", "FM_OT")


@pytest.fixture(params=BUILTIN)
def any_schedule(request):
    return make_schedule(request.param)


@pytest.fixture
def vp():
    return make_schedule("VP")


@pytest.fixture
def fm_ot():
    return make_schedule("FM_OT")


@pytest.fixture
def ve():
    return make_schedule("VE")


@pytest.fixture
def unit_gmm():
    return single_gaussian([0.0], [[1.0]])


@pytest.fixture
def unit_score(vp, unit_gmm):
    return oracle_score_model(unit_gmm, vp)


def interior_grid(schedule, n=200, margin=1e-4):
    span = schedule.t_max - schedule.t_min
    return np.linspace(schedule.t_min + margin * span,
                       schedule.t_max - margin * span, n)
