"""Root pytest configuration shared by tests/ and benchmarks/.

No async pytest plugin is available offline, so ``async def`` test functions
are executed via :func:`asyncio.run` through the ``pytest_pyfunc_call`` hook.
Each async test gets a fresh event loop, which also guarantees isolation
between tests that start servers.

Hypothesis runs derandomized by default, so tier-1 draws the same
examples on every run and a red result is reproducible; the ``explore``
profile (``HYPOTHESIS_PROFILE=explore``, a non-blocking CI job) draws at
random to keep finding new inputs.
"""

import asyncio
import inspect
import os

import pytest
from hypothesis import settings

settings.register_profile("default", derandomize=True, database=None, deadline=None)
settings.register_profile("explore", derandomize=False, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.hookimpl(tryfirst=True)
def pytest_pyfunc_call(pyfuncitem):
    function = pyfuncitem.obj
    if not inspect.iscoroutinefunction(function):
        return None
    kwargs = {
        name: pyfuncitem.funcargs[name]
        for name in pyfuncitem._fixtureinfo.argnames
    }
    asyncio.run(function(**kwargs))
    return True
