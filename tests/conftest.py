import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from snrdiff import (Schedule, make_schedule, oracle_score_model, samplers,
                     single_gaussian)
# the check suite's fixtures, shared with the unit tests
from snrdiff.verify import (BUILTIN_FAMILIES as BUILTIN,  # noqa: F401
                            blended_warp, interior_grid)

# Property tests draw the same examples on every run.
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")

# Valid parameter ranges for the property tests over schedules.
FAMILY_PARAMS = {
    "VP": {"beta_min": st.floats(0.01, 2.0), "beta_d": st.floats(0.0, 40.0)},
    "VE": {"sigma_min": st.floats(1e-3, 1.0), "sigma_max": st.floats(2.0, 200.0)},
    "iDDPM": {"s": st.floats(1e-4, 0.2)},
    "FM_OT": {},
}


def draw_schedule(data, family):
    """A ``family`` schedule with drawn parameters and a drawn window, its
    edges fractions of the family's default window."""
    params = data.draw(st.fixed_dictionaries(FAMILY_PARAMS[family]))
    lo_frac = data.draw(st.floats(0.0, 0.45))
    hi_frac = data.draw(st.floats(0.55, 1.0))
    default = make_schedule(family)
    span = default.t_max - default.t_min
    return make_schedule(family, params, default.t_min + lo_frac * span,
                         default.t_min + hi_frac * span)


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
    return oracle_score_model(unit_gmm)


POOL_PREFIX = "sample-pool"


@pytest.fixture
def split_pools(monkeypatch):
    """Let ``sample`` split any pass of two or more rows across up to
    ``threads`` workers, whatever the pass size and the host's cores; the
    returned list gets the worker count of each pool it starts, whose
    threads are named with POOL_PREFIX.  Fails the test if a thread it did
    not find at its start is still running at its end."""
    sizes = []

    class Pool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers, thread_name_prefix=POOL_PREFIX)

    monkeypatch.setattr(samplers, "_GRAIN", 1)
    monkeypatch.setattr(samplers, "_usable_cores", lambda: 64)
    monkeypatch.setattr(samplers, "ThreadPoolExecutor", Pool)
    before = set(threading.enumerate())
    yield sizes
    assert set(threading.enumerate()) <= before, "a thread outlived the test"


class ScalarCalls:
    """Scalar-time calls of the Schedule methods, by name, made while
    ``counting`` is set."""

    def __init__(self):
        self.counting = False
        self.calls = Counter()


@pytest.fixture
def scalar_schedule_calls(monkeypatch):
    """Wrap the public Schedule methods so that every call on a scalar time
    made while the returned record's ``counting`` is set adds one to its
    ``calls`` under the method's name."""
    record = ScalarCalls()
    for name in ("alpha", "sigma", "lam", "dalpha_dt", "dsigma_dt",
                 "dlambda_dt"):
        def counted(self, t, _name=name, _method=getattr(Schedule, name)):
            if record.counting and np.ndim(t) == 0:
                record.calls[_name] += 1
            return _method(self, t)

        monkeypatch.setattr(Schedule, name, counted)
    return record
