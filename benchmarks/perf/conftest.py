"""Pytest set-up for the benchmark's own tests (``pytest benchmarks/perf``).

The benchmark modules import each other by bare name, as they do when
bench.py runs as a script.  ``_fresh_report`` overrides the autouse
fixture of ``benchmarks/conftest.py``, which would otherwise delete the
tracked ``benchmarks/output/report.txt`` at the start of the session.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="session", autouse=True)
def _fresh_report():
    yield
