"""The benchmark's calls into the library, run once per workload.

perfbench/workloads.py drives `qgring analyze --json --seed N`,
`count_matrix_components(G, seed=N)` and `nd_verdict(G, budget=B,
seed=N)`, and checks each answer against hand-written values. A change
of one of these call shapes must fail here rather than only as failed
benchmark ops. The module is loaded from its file and not modified.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import qgring.catalog

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# the cheapest op of each workload, as in perfbench/smoke.py
CHEAP = {"analyze-large": "A5",
         "family-sweep": "SdVec(2,2,[[0,1],[1,1]],3)",
         "witness-search": "X(SdCyc(3,8,2),C(2))"}


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # for `expected` and `tracing`
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    # each op empties the catalog's memo; the other tests keep theirs
    built = dict(qgring.catalog._BUILT)
    yield module
    qgring.catalog._BUILT.clear()
    qgring.catalog._BUILT.update(built)


@pytest.mark.parametrize("workload", sorted(CHEAP))
def test_cheap_op_runs_and_answers_correctly(workloads, workload):
    op = next(op for op in workloads.build_ops(workload)
              if op.label == CHEAP[workload])
    outcome = workloads.run_op(workload, op, 1, workloads.ColdCacheGuard())
    assert outcome.ok, outcome.why
