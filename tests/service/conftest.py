"""Ambient fault plan for the service suites.

The library reads no environment: a :class:`SolverService` injects
faults only through ``faults=``.  To rerun a suite under background
perturbation, set ``REPRO_SERVICE_FAULTS`` to a fault spec (the
``ACTION@SITE[:DELAYms][*TIMES][+SKIP]`` grammar of
:mod:`repro.service.faults`); every service a test builds without its
own ``faults=`` then gets that plan, while a test that passes a plan
keeps it.  Unset, the fixture does nothing.
"""

import os

import pytest

from repro.service import FaultPlan, SolverService

AMBIENT_FAULTS = os.environ.get("REPRO_SERVICE_FAULTS")


@pytest.fixture(autouse=True)
def ambient_faults(monkeypatch):
    if not AMBIENT_FAULTS:
        return
    plan = str(FaultPlan.parse(AMBIENT_FAULTS))  # a bad spec fails here
    init = SolverService.__init__

    def __init__(self, *args, faults=None, **kwargs):
        init(self, *args, faults=plan if faults is None else faults, **kwargs)

    monkeypatch.setattr(SolverService, "__init__", __init__)
