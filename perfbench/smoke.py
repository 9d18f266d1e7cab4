"""Smoke test of the benchmark itself (about a minute):

    python3 perfbench/smoke.py

For one cheap op per workload it checks that an untraced run prints every
end-to-end metric with its unit and a traced run every per-layer metric,
that a deliberately wrong expected answer registers in failed_share, that
two seeds give identical answers, and that the benchmark refuses to run in
a directory holding only BENCHMARK.json and its own files. It also checks
that the closed forms in expected.py reproduce the answers written out by
hand for the single groups that belong to a family.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys

import expected as ex
import run
import workloads
from tracing import per_layer_names

CHEAP = {"analyze-large": "A5",
         "family-sweep": "SdVec(2,2,[[0,1],[1,1]],3)",
         "witness-search": "X(SdCyc(3,8,2),C(2))"}
OUT = run.OUT_DIR / "smoke"

failures: list[str] = []


def check(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def cheap_op(workload: str) -> workloads.Op:
    return next(op for op in workloads.build_ops(workload)
                if op.label == CHEAP[workload])


def quiet_run(workload: str, trace: bool, op: workloads.Op, seed: int = 1):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = run.run(workload, seed, 1, trace, ops=[op], out_dir=OUT)
    return result, buf.getvalue().splitlines()


def printed(lines: list[str], name: str, unit: str) -> bool:
    return any(line.split()[::2] == [name, unit] for line in lines
               if len(line.split()) == 3)


def check_metrics(workload: str) -> None:
    op = cheap_op(workload)
    result, lines = quiet_run(workload, False, op)
    check(result["correct"] and result["failed"] == 0,
          f"{workload}: {op.label} answers correctly")
    for name, unit in list(run.END_TO_END) + [("failed_share", "ratio")]:
        check(printed(lines, name, unit), f"{workload}: prints {name} in {unit}")
    check(set(result["metrics"]) == {n for n, _ in run.END_TO_END},
          f"{workload}: result holds exactly the end-to-end metrics")

    result, lines = quiet_run(workload, True, op)
    check(result["correct"], f"{workload}: traced {op.label} answers correctly")
    for name, unit in per_layer_names():
        check(printed(lines, name, unit), f"{workload}: traced run prints {name} in {unit}")

    wrong = dataclasses.replace(op, answer=dataclasses.replace(op.answer, count=99))
    result, lines = quiet_run(workload, False, wrong)
    check(result["failed"] == 1 and not result["correct"]
          and printed(lines, "failed_share", "ratio")
          and any(line.split()[:2] == ["failed_share", "1"] for line in lines),
          f"{workload}: a wrong expected count registers in failed_share")


def check_seeds(workload: str) -> None:
    op = cheap_op(workload)
    guard = workloads.ColdCacheGuard()
    a, b = (workloads.run_op(workload, op, seed, guard) for seed in (3, 4))
    check(a.ok and b.ok and a.answer == b.answer,
          f"{workload}: seeds 3 and 4 give identical answers")


def check_bare_directory() -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{run.BENCH_DIR.name}/run.py",
                           "--workload", "witness-search", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    check(proc.returncode != 0 and not last[0].startswith("{"),
          "refuses to run without the library sources")
    shutil.rmtree(bare)


def check_expected() -> None:
    pairs = [(ex.hamiltonian(0, 25), ex.ANALYZE["X(Q(8),C(25))"]),
             (ex.hamiltonian(0, 27), ex.ANALYZE["X(Q(8),C(27))"]),
             (ex.nonfaithful(7, 3, 3, 1), ex.ANALYZE["SdCyc(7,27,2)"]),
             (ex.nonfaithful(3, 2, 3, 1), ex.WITNESS["SdCyc(3,8,2)"]),
             (ex.nonfaithful(5, 2, 3, 2), ex.WITNESS["SdCyc(5,8,2)"]),
             (ex.nonfaithful(3, 2, 4, 1), ex.WITNESS["SdCyc(3,16,2)"]),
             (ex.nonfaithful(5, 2, 4, 2), ex.WITNESS["SdCyc(5,16,2)"]),
             (ex.nonfaithful(13, 2, 3, 2), ex.WITNESS["SdCyc(13,8,5)"])]
    check(all((f.count, f.dims) == (a.count, a.dims) for f, a in pairs),
          "closed forms reproduce the hand-written single-group answers")
    check(ex.ANALYZE.keys() == ex.ANALYZE_DIGESTS.keys(),
          "every analyze-large op has a recorded digest")


def main() -> int:
    if not run.use_checkout_sources():
        print(f"error: no qgring sources under {run.SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    check_expected()
    for workload in workloads.WORKLOADS:
        check_metrics(workload)
        check_seeds(workload)
    check_bare_directory()
    print(json.dumps({"failures": failures}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
