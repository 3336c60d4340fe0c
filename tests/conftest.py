import math
import sys

import pytest

from hardyheat import angular, ou_basis
from hardyheat.ou_basis import build_collocation


@pytest.fixture(scope="session")
def spec0():
    """a = 0, N = 3, enough eigenvalues to certify gamma_max = 2."""
    return angular.solve_angular(angular.AngularPotential.constant(0.0), K=36, N=3)


@pytest.fixture(scope="session")
def basis0(spec0):
    return ou_basis.enumerate_modes(spec0, 2.0)


@pytest.fixture(scope="session")
def col0(basis0):
    return build_collocation(basis0, n_r=48)


@pytest.fixture(scope="session")
def spec01():
    """a = 0.1 constant, still positive definite for N = 3."""
    return angular.solve_angular(angular.AngularPotential.constant(0.1), K=49, N=3)


@pytest.fixture(scope="session")
def tau_small():
    return math.log(1e-3)


@pytest.fixture(scope="session")
def command_runs(tmp_path_factory):
    """(manifest, code objects entered) of one ``output_manifest.collect``,
    every command on every shipped config in process, run under a profile
    hook after every package cache is cleared: a cached call enters
    nothing."""
    from output_manifest import collect

    for name, module in list(sys.modules.items()):
        if name.startswith("hardyheat."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
    codes = {}

    def profile(frame, event, arg):
        if event == "call":
            codes[id(frame.f_code)] = frame.f_code

    sys.setprofile(profile)
    try:
        manifest = collect(tmp_path_factory.mktemp("commands"))
    finally:
        sys.setprofile(None)
    return manifest, list(codes.values())
