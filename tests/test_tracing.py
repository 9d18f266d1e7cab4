"""The benchmark's tracer against the library names it wraps and probes.

perfbench/tracing.py replaces library functions by name and probes a few
kernels on each op's idempotents; a refactor that renames one of them
must fail here rather than only in a traced benchmark run. The module is
loaded from its file and not modified.
"""

import importlib.util
from pathlib import Path

import qgring.groups
from qgring.catalog import build_named
from qgring.shoda import metabelian_pcis

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_uninstalls_and_probes():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    orig = qgring.groups.subgroups
    tracer.install()
    assert qgring.groups.subgroups is not orig
    tracer.uninstall()
    assert qgring.groups.subgroups is orig
    G = build_named("A4")
    tracer.last_pcis = (G, metabelian_pcis(G))
    tracer.probe()
    probed = {span[0] for span in tracer.spans}
    assert probed == set(tracing.PROBES)
    assert all(t1 >= t0 for _name, t0, t1, _parent, _op in tracer.spans)
