"""The names of the program that the benchmark in ``perfbench/`` looks up.

``perfbench/job.py`` rebinds every traced layer entry point on its owner and
calls a few more names directly; renaming any of them breaks the benchmark,
whose own tests are not part of this suite.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: (layer, name) that job.py's query_latencies and gate call.
CALLED = [
    ("rb", "solve_rom"),
    ("rb", "reconstruct"),
    ("rb", "save_artifact"),
    ("rb", "load_artifact"),
    ("fem", "x_norm"),
    ("estimator", "estimate"),
    ("bench", "build_test_set"),
]


@pytest.fixture(scope="module")
def job_and_layers():
    saved = list(sys.path)
    sys.path.insert(0, str(PERFBENCH))  # job.py imports its siblings by name
    try:
        spec = importlib.util.spec_from_file_location("perfbench_job", PERFBENCH / "job.py")
        job = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(job)  # its dataclasses look their module up by name
        layers, _ = job.import_layers()
    finally:
        sys.path[:] = saved
    return job, layers


def test_every_traced_entry_point_resolves(job_and_layers):
    job, layers = job_and_layers
    entries = job.entry_points(layers)
    assert entries
    for owner, attribute, span in entries:
        assert attribute in vars(owner), span


@pytest.mark.parametrize("layer, name", CALLED)
def test_called_names_exist(job_and_layers, layer, name):
    _, layers = job_and_layers
    assert callable(vars(getattr(layers, layer))[name])
