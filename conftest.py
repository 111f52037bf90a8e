"""Pytest bootstrap: make ``repro`` and the test-side ``reference`` package
importable straight from the source tree.

``src/`` lets ``pytest tests/`` and ``pytest benchmarks/`` run even when
the package has not been installed (useful in offline environments where
``pip install -e .`` cannot fetch build dependencies); ``tests/`` makes the
per-flow reference twins (``tests/reference/``) importable as
``reference`` from every test directory.
"""

import os
import sys

_ROOT = os.path.dirname(os.path.abspath(__file__))
for _path in (os.path.join(_ROOT, "tests"), os.path.join(_ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "perf_smoke: fast smoke-mode run of the benchmarks/perf harness "
        '(deselect with -m "not perf_smoke")',
    )
    config.addinivalue_line(
        "markers",
        "scenario_smoke: every registered scenario at toy scale on all of its "
        'engines (deselect with -m "not scenario_smoke")',
    )
    config.addinivalue_line(
        "markers",
        "fault_smoke: every fault-injection scenario at toy scale on all of "
        'its engines (deselect with -m "not fault_smoke")',
    )
    config.addinivalue_line(
        "markers",
        "sweep_smoke: end-to-end sweep-fabric fault matrix -- worker crash, "
        "timeout, kill -9 resume, sharded-vs-serial parity (deselect with "
        '-m "not sweep_smoke")',
    )
    config.addinivalue_line(
        "markers",
        "remote_smoke: loopback remote-dispatch matrix -- driver + agent "
        "subprocesses over TCP, agent SIGKILL, driver kill + resume "
        '(deselect with -m "not remote_smoke")',
    )
