import pytest

import dcsp.cli
import dcsp.experiments


@pytest.fixture
def no_draw(monkeypatch):
    """Fail the test if anything draws a problem instance: ``dcsp trial``'s
    one draw or a sweep's batches.  For checks that must reject their input
    before the first draw."""

    def drew(*args, **kwargs):
        raise AssertionError("drew an instance")

    monkeypatch.setattr(dcsp.cli, "generate", drew)
    monkeypatch.setattr(dcsp.experiments, "generate_batch", drew)
