import os
import resource
import subprocess
import sys
import tracemalloc

import pytest

from rifslab import load_corpus


@pytest.fixture(scope="session")
def cantor_cfg():
    return load_corpus("cantor")


@pytest.fixture(scope="session")
def packing_cfg():
    return load_corpus("carpet-packing")


@pytest.fixture(scope="session")
def splice_cfg():
    return load_corpus("carpet-splice")


@pytest.fixture(scope="session")
def cookie_cfg():
    return load_corpus("cookie-boxdim")


@pytest.fixture
def run_cli():
    """Invoke the CLI in a subprocess with a clean budget environment.

    A run still going after `timeout` seconds raises
    `subprocess.TimeoutExpired`, so a hang fails its test.
    """

    def _run(*args, env_extra=None, cwd=None, timeout=120):
        env = dict(os.environ)
        env.pop("RIFSLAB_BUDGET", None)
        if env_extra:
            env.update(env_extra)
        return subprocess.run(
            [sys.executable, "-m", "rifslab", *args],
            capture_output=True, text=True, env=env, cwd=cwd,
            timeout=timeout)

    return _run


@pytest.fixture
def run_isolated():
    """Run Python code in a fresh interpreter with a timeout.

    `max_bytes` caps the child's address space, so a runaway allocation
    fails there instead of exhausting the machine; a hang raises
    `subprocess.TimeoutExpired` after `timeout` seconds.  One BLAS thread
    keeps numpy's import well inside any such cap.
    """

    def _run(code, timeout, max_bytes=None):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (max_bytes, max_bytes))

        return subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, timeout=timeout,
            preexec_fn=None if max_bytes is None else cap)

    return _run


@pytest.fixture
def traced_peak():
    """Call `fn()` with tracemalloc on, and return its result and the
    traced peak in bytes; tracing stops after the call, also when it
    raises."""

    def _trace(fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return _trace
