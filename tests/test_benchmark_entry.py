"""The benchmark's entry points into the package stay callable.

`pipebench/workloads.py` and `pipebench/run.py` call names that nothing in
the package calls (`family.residual`, `gen.gen_instance`, `cli._summarize`,
`cli.report_lines`, `kernels.BACKEND`); this test runs the first item of
every workload so that removing one of them fails here.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from cutcover import kernels

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "pipebench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("pipebench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["accept", "large_n", "lemma"])
def test_workload_first_item_checks(name):
    workloads = _workloads()
    workload = workloads.WORKLOADS[name]
    cfg = workload.build(workloads.DEFAULT_SEED)
    (payload,) = workload.payloads(cfg, 1)
    out = workload.run(payload)
    assert workload.check(out)
    if workload.batch_size(cfg) is not None:
        assert workload.check_batch([out])


def test_backend_name_readable():
    # pipebench/run.py records it in every result
    assert isinstance(kernels.BACKEND, str)
