"""Shared fixtures, the acceptance summary, and one BLAS thread per process."""

import os
import sys

# Pin BLAS to one thread before numpy loads: with numpy's default thread
# pool the Brownian kernel slows several-fold once another process holds a
# core.  The CLI children that the tests start inherit the setting.
assert "numpy" not in sys.modules, "numpy was loaded before the BLAS thread pin"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402

from levymult import (  # noqa: E402
    AtomsMeasure,
    Modulator,
    gaussian_bump,
    make_data,
    table_mod,
)


_ACCEPTANCE = pytest.StashKey[list]()


def pytest_terminal_summary(terminalreporter, config):
    """Echo the acceptance criteria PASS/FAIL lines past output capture."""
    records = config.stash.get(_ACCEPTANCE, [])
    if records:
        terminalreporter.section("acceptance criteria")
        for record in sorted(records, key=lambda r: r.criterion):
            terminalreporter.write_line(record.line)


@pytest.fixture
def acceptance_records(request):
    """The session's list of acceptance CheckRecords, for the summary above."""
    return request.config.stash.setdefault(_ACCEPTANCE, [])


@pytest.fixture
def single_atom_data():
    """One unit-mass atom at z = 1, identity maps, no drift."""
    return make_data(AtomsMeasure([[1.0]], [1.0]), A=[[1.0]], B=[[1.0]])


@pytest.fixture
def mixed_atoms_data():
    """Three atoms (one inside the unit ball, so the net drift is nonzero), A != B."""
    nu = AtomsMeasure([[1.0], [-2.0], [0.5]], [0.7, 0.3, 0.4])
    return make_data(nu, A=[[1.0]], B=[[-1.0]])


@pytest.fixture
def complex_phi():
    return Modulator(phi=table_mod([0.5, -0.8j, 0.3 + 0.4j]))


@pytest.fixture
def bump_f():
    return gaussian_bump(40.0, 1024, 1, center=[0.5], width=0.9)


@pytest.fixture
def bump_g():
    return gaussian_bump(40.0, 1024, 1, center=[-0.3], width=1.1)
