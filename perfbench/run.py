"""Layered benchmark of the qgring pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

    analyze-large   `qgring analyze <spec> --json`, in-process, on seven
                    large groups
    family-sweep    build one Theorem A/B family instance and count its
                    matrix components, 96 groups of order <= 200
    witness-search  `props.nd_verdict` with a fixed search budget on six
                    groups where the witness search dominates

The load is closed-loop: one client, one process, one thread. Every op
starts from cold group caches and is checked exactly against the
hand-written answers in `expected.py`; a wrong answer, a raised exception
or a witness that fails re-verification counts as a failed op.

A run is a whole number of passes over the workload's ops, each pass in a
seed-permuted order. The pass count comes from --seconds, not from the
clock, so the sample count -- and with it the tail percentile -- is the
same on every commit: PASSES at --seconds 30, scaled linearly.

Times are reported in reference seconds. This is shared hardware whose
speed drifts by 10-25 % from one run to the next, so every op is bracketed
by a fixed pure-Python calibration kernel (`workloads.calibrate`, no
library code), and the run's wall times are rescaled by
REFERENCE_CALIBRATION_S / (median kernel time over the run): the time the
ops would take on the reference machine. Set-up time is rescaled the same
way inside each set-up interpreter. The raw wall-clock figures are printed
beside them as wall_*.

--trace 0 prints the end-to-end metrics; --trace 1 runs every op untraced
and then traced (see tracing.py) and prints the per-layer metrics. Human
readable lines come first; the last line of stdout is the JSON result. A
copy of the result, the per-op answers, and for traced runs the spans,
are written under .perfbench-out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import workloads
from tracing import Tracer, per_layer_names

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

# Passes per run at REFERENCE_SECONDS. On a 2-core x86-64 VM at the commit
# that introduced the benchmark a pass takes about 12.5 s (analyze-large),
# 30 s (family-sweep) and 14.5 s (witness-search). Three passes put the
# tail percentile of the two short workloads on the middle of three samples
# of one op (BJ9, SdCyc(5,8,2)) instead of on the largest of two samples of
# a short, jittery one.
PASSES = {"analyze-large": 3, "family-sweep": 1, "witness-search": 3}
REFERENCE_SECONDS = 30
# a traced pass runs every op twice (untraced, traced) plus kernel probes
TRACED_PASS_FACTOR = 2.2
SETUP_RUNS = 3
TAIL_BEYOND = 10
# median time of workloads.calibrate() inside runs on the reference machine
# (a 2-core x86-64 VM) when the benchmark was introduced
REFERENCE_CALIBRATION_S = 0.0045

END_TO_END = (("setup_s", "s"), ("latency_p50_s", "s"), ("latency_tail_s", "s"),
              ("throughput_ops_per_s", "1/s"), ("peak_rss_mb", "MB"),
              ("decided_share", "ratio"))

_SETUP_SNIPPET = """
import sys, time
sys.path.insert(0, {bench!r})
import workloads
workloads.calibrate()
before = workloads.calibrate()
sys.path.insert(0, {src!r})
t0 = time.perf_counter()
import qgring
workloads.build_ops({workload!r})
wall = time.perf_counter() - t0
print(wall, (before + workloads.calibrate()) / 2)
"""


def passes_for(workload: str, seconds: int, trace: bool) -> int:
    passes = PASSES[workload] * seconds / REFERENCE_SECONDS
    return max(1, round(passes / TRACED_PASS_FACTOR if trace else passes))


def measure_setup(workload: str) -> tuple[float, float]:
    """Median time of `import qgring` plus building the op list, each in a
    fresh interpreter: (reference seconds, wall seconds)."""
    code = _SETUP_SNIPPET.format(bench=str(BENCH_DIR), src=str(SRC),
                                 workload=workload)
    ref, wall = [], []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        seconds, calibration = map(float, proc.stdout.split()[-2:])
        wall.append(seconds)
        ref.append(seconds * REFERENCE_CALIBRATION_S / calibration)
    return statistics.median(ref), statistics.median(wall)


def git_revision() -> str:
    """HEAD of the checkout, read from its own .git directory only."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp() -> dict:
    """Where the figures come from. The checkout a benchmark runs in need
    not be a git repository, so a digest of the library sources is kept
    beside the revision."""
    sources = hashlib.sha256()
    for path in sorted((SRC / "qgring").glob("*.py")):
        sources.update(path.read_bytes())
    return {"git_revision": git_revision(), "source_sha256": sources.hexdigest(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(), "loadavg_before": os.getloadavg()}


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it): the highest nearest-rank
    percentile that still has TAIL_BEYOND samples above it; with fewer
    samples than that, the maximum."""
    xs = sorted(latencies)
    i = max(len(xs) - 1 - TAIL_BEYOND, 0) if len(xs) > TAIL_BEYOND else len(xs) - 1
    return xs[i], 100.0 * (i + 1) / len(xs), len(xs) - 1 - i


def end_to_end(outcomes, setup: tuple[float, float]) -> dict:
    """The end-to-end figures in reference seconds, and under wall_* the
    same timings in wall-clock seconds."""
    n = len(outcomes)
    ok = sum(o.ok for o in outcomes)
    calibration = statistics.median(o.calibration_s for o in outcomes)
    out = {"setup_s": setup[0], "wall_setup_s": setup[1]}
    for prefix, scale in (("", REFERENCE_CALIBRATION_S / calibration),
                          ("wall_", 1.0)):
        lat = [o.latency_s * scale for o in outcomes]
        # a failed op never improves a latency figure
        worst = max(lat)
        ranked = [t if o.ok else worst for t, o in zip(lat, outcomes)]
        value, pct, beyond = tail(ranked)
        out[prefix + "latency_p50_s"] = statistics.median(ranked)
        out[prefix + "latency_tail_s"] = value
        out[prefix + "throughput_ops_per_s"] = ok / sum(lat)
    out.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "decided_share": sum(o.decided for o in outcomes) / n,
        "failed_share": (n - ok) / n,
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "samples": n,
        "calibration_s": calibration,
    })
    return out


def per_layer(tracer, untraced, traced) -> dict:
    ops = max(tracer.ops, 1)
    out = {}
    layers = tracer.layer_times()
    for layer, (inclusive, self_time) in layers.items():
        out[f"{layer}.s"] = inclusive / ops
        out[f"{layer}.self_s"] = self_time / ops
    for probe, t in tracer.probe_times().items():
        out[f"{probe}.s"] = t / ops
    c = tracer.counts
    search_s = layers["props.nd_witness_search"][0]
    tests = c["props.nd_witness_search.tests"]
    out.update({
        "groups.subgroups.found": c["groups.subgroups.found"] / ops,
        "shoda.metabelian_pcis.found": c["shoda.metabelian_pcis.found"] / ops,
        "components.unknown_share": (c["classify.unknown"] / c["classify.calls"]
                                     if c["classify.calls"] else 0.0),
        "components.nilpotent_probe.calls": c["components.nilpotent_probe.calls"] / ops,
        "props.nd_witness_search.tests": tests / ops,
        "props.nd_witness_search.tests_per_s": tests / search_s if search_s else 0.0,
        "props.nd_witness_search.found_per_test": c["witness.found"] / tests if tests else 0.0,
    })
    for name, _unit in per_layer_names():
        if name.startswith("components.branch."):
            out[name] = c[name] / ops
    spans = tracer.op_spans()
    out["op.untraced_s"] = statistics.mean(o.latency_s for o in untraced)
    out["op.traced_s"] = statistics.mean(o.latency_s for o in traced)
    out["trace.overhead_s"] = out["op.traced_s"] - out["op.untraced_s"]
    out["trace.cover_share"] = sum(k for _, k in spans) / sum(d for d, _ in spans)
    return out


def use_checkout_sources() -> bool:
    """Import qgring from this checkout's src/ with default settings; False
    when the checkout holds no library sources."""
    if not (SRC / "qgring" / "__init__.py").is_file():
        return False
    os.environ.pop("QGRING_CONFIG", None)
    sys.path.insert(0, str(SRC))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not use_checkout_sources():
        print(f"error: no qgring sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except workloads.ColdCacheError as exc:
        print(f"error: cold-cache guard: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


def run(workload: str, seed: int, seconds: int, trace: bool,
        ops=None, out_dir: Path = OUT_DIR) -> dict:
    """Measure one run and return its result (correct, attempted, failed,
    metrics). `ops` replaces the workload's op list (the smoke test passes
    a short one)."""
    info = stamp()
    setup = None if trace else measure_setup(workload)
    import qgring
    if Path(qgring.__file__).resolve().parent != (SRC / "qgring").resolve():
        raise RuntimeError(f"imported qgring from {qgring.__file__}, not {SRC}")
    if ops is None:
        ops = workloads.build_ops(workload)
    passes = passes_for(workload, seconds, trace)
    rng = random.Random(seed)
    guard = workloads.ColdCacheGuard()
    tracer = Tracer() if trace else None
    untraced, traced = [], []
    op_id = 0
    for _ in range(passes):
        for i in rng.sample(range(len(ops)), len(ops)):
            untraced.append(workloads.run_op(workload, ops[i], seed, guard))
            if tracer is not None:
                tracer.start_op(op_id)
                traced.append(workloads.run_op(workload, ops[i], seed, guard,
                                               tracer))
                tracer.probe()
            op_id += 1
    outcomes = untraced + traced
    failed = sum(not o.ok for o in outcomes)
    info["loadavg_after"] = os.getloadavg()
    info["overloaded"] = max(info["loadavg_before"][0],
                             info["loadavg_after"][0]) > (info["nproc"] or 1)

    if trace:
        values = per_layer(tracer, untraced, traced)
        units = dict(per_layer_names())
    else:
        values = end_to_end(untraced, setup)
        units = dict(END_TO_END)
    report(workload, seed, passes, info, values, units, outcomes)
    result = {"correct": failed == 0, "attempted": len(outcomes),
              "failed": failed,
              "metrics": {k: {"value": values[k], "unit": u}
                          for k, u in units.items()}}
    out_dir.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    with open(out_dir / f"{tag}.json", "w") as fh:
        json.dump({"stamp": info, "passes": passes, "result": result,
                   "extra": {k: v for k, v in values.items() if k not in units},
                   "ops": [vars(o) for o in outcomes]}, fh, indent=1)
    if tracer is not None:
        tracer.write(out_dir / f"spans-{tag}.jsonl")
    return result


def report(workload, seed, passes, info, values, units, outcomes) -> None:
    print(f"# workload={workload} seed={seed} passes={passes} "
          f"attempted={len(outcomes)}")
    print(f"# git={info['git_revision']} python={info['python']} "
          f"nproc={info['nproc']} loadavg before={info['loadavg_before']} "
          f"after={info['loadavg_after']}")
    if info["overloaded"]:
        print(f"# warning: load average exceeded the {info['nproc']} cores; "
              f"figures from this run are suspect")
    for o in outcomes:
        if not o.ok:
            print(f"# FAILED {o.label}: {o.why}")
    for k, u in units.items():
        print(f"{k:<44} {values[k]:.6g} {u}")
    if "failed_share" in values:
        print(f"{'failed_share':<44} {values['failed_share']:.6g} ratio")
        for k in ("wall_setup_s", "wall_latency_p50_s", "wall_latency_tail_s"):
            print(f"{k:<44} {values[k]:.6g} s")
        print(f"{'wall_throughput_ops_per_s':<44} "
              f"{values['wall_throughput_ops_per_s']:.6g} 1/s")
        print(f"# latency_tail_s is p{values['tail_percentile']:.1f} of "
              f"{values['samples']} samples, {values['tail_samples_beyond']} beyond it;"
              f" times in reference seconds, calibration kernel "
              f"{1000 * values['calibration_s']:.3f} ms against "
              f"{1000 * REFERENCE_CALIBRATION_S:.3f} ms")


if __name__ == "__main__":
    sys.exit(main())
