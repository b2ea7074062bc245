"""Shared fixtures for the test suite."""

import errno
import os
from pathlib import Path

import pytest

from repro.core.parameters import FaultModel
from repro.core.scenarios import (
    cheetah_correlated_scenario,
    cheetah_negligent_scenario,
    cheetah_no_scrub_scenario,
    cheetah_scrubbed_scenario,
)


@pytest.fixture
def cheetah_scrubbed_model() -> FaultModel:
    """The paper's scrubbed Cheetah mirrored pair (Section 5.4)."""
    return cheetah_scrubbed_scenario().model


@pytest.fixture
def cheetah_no_scrub_model() -> FaultModel:
    """The paper's unscrubbed Cheetah mirrored pair (Section 5.4)."""
    return cheetah_no_scrub_scenario().model


@pytest.fixture
def cheetah_correlated_model() -> FaultModel:
    """Scrubbed pair with correlation factor 0.1."""
    return cheetah_correlated_scenario().model


@pytest.fixture
def cheetah_negligent_model() -> FaultModel:
    """Rare latent faults that are never proactively detected."""
    return cheetah_negligent_scenario().model


def make_fast_model(**overrides) -> FaultModel:
    """The canonical compressed-time operating point, with overrides.

    Fault mean times are in the hundreds of hours so Monte-Carlo runs
    converge in milliseconds while preserving the paper's structure
    (latent faults five times as frequent as visible ones, scrubbing
    interval well below the latent mean time).  Tests that need variants
    override individual fields via keyword arguments.
    """
    base = dict(
        mean_time_to_visible=500.0,
        mean_time_to_latent=100.0,
        mean_repair_visible=1.0,
        mean_repair_latent=1.0,
        mean_detect_latent=5.0,
        correlation_factor=1.0,
    )
    base.update(overrides)
    return FaultModel(**base)


@pytest.fixture
def fast_model() -> FaultModel:
    """A scaled-down model whose MTTDL is short enough for quick simulation."""
    return make_fast_model()


@pytest.fixture
def fast_model_factory():
    """The :func:`make_fast_model` factory, for tests needing variants."""
    return make_fast_model


@pytest.fixture(params=["partial_write", "replace"])
def failing_cache_write(request, monkeypatch):
    """Make every cache-entry write fail with ENOSPC: part-way through
    the temporary file, or at the final ``os.replace``."""

    def disk_full():
        return OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    if request.param == "partial_write":
        write_text = Path.write_text

        def partial(self, data, *args, **kwargs):
            write_text(self, data[: len(data) // 2], *args, **kwargs)
            raise disk_full()

        monkeypatch.setattr(Path, "write_text", partial)
    else:

        def replace(*args, **kwargs):
            raise disk_full()

        monkeypatch.setattr(os, "replace", replace)
    return request.param
