"""The three benchmark workloads: their operations, how one runs, and how
its output is checked against the hand-written answers in `expected`.

An operation starts from cold: `ColdCacheGuard.reset` empties the catalog's
memo of built groups (and the library's module-level fingerprint memos)
before it, so every op builds its groups anew, as a fresh `qgring` process
would. A group object seen in an earlier op fails the run loudly.

This module imports qgring only inside functions, so that the set-up time
the benchmark reports covers `import qgring` itself.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import time
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import expected as ex
from tracing import OP_SPAN, Tracer

# Witness-search budget (integrality tests per nd_verdict). Large enough
# that C3:C8 exhausts every candidate (45 024 tests) before it runs out, so
# both ends of the search are timed: exhaustion and budget.
WITNESS_BUDGET = 50_000

WORKLOADS = ("analyze-large", "family-sweep", "witness-search")


@dataclass(frozen=True)
class Op:
    label: str
    build: tuple      # ("spec", s) | ("named", n) | ("bj1", (p, m, n)) | ("bj2", (base, z))
    answer: ex.Answer


class ColdCacheError(RuntimeError):
    """An op was handed a group object that an earlier op already used."""


# ---------------------------------------------------------------------------
# operation lists


def _least_of_order(p: int, k: int) -> Optional[int]:
    """Smallest r mod p of multiplicative order exactly k, as the
    verification suite picks it."""
    if (p - 1) % k:
        return None
    return next((r for r in range(2, p) if ex.ord_mod(p, r) == k), None)


def _primes(lo: int, hi: int) -> list[int]:
    return [n for n in range(lo, hi) if n > 1 and all(n % d for d in range(2, n))]


# the base groups G0 of order p^3 in the BJ2 central products
_BJ2_BASES = {
    2: [("D8", ("spec", "D(8)")), ("Q8", ("spec", "Q(8)"))],
    3: [("Heis27", ("named", "Heis27")), ("C9rC3", ("named", "C9rC3"))],
    5: [("Heis125", ("spec", "SdVec(5,2,[[1,1],[0,1]],5)")),
        ("C25rC5", ("bj1", (5, 2, 1)))],
}

# irreducible matrices of order q over F_p (companion matrices), as the
# verification suite builds the faithful C_p^n : C_q instances
_FAITHFUL_VECTOR = [
    (2, 2, 3, "[[0,1],[1,1]]"),
    (2, 3, 7, "[[0,0,1],[1,0,0],[0,1,1]]"),
    (2, 4, 5, "[[0,0,0,1],[1,0,0,1],[0,1,0,1],[0,0,1,1]]"),
    (5, 2, 3, "[[0,4],[1,4]]"),
]


def family_ops() -> list[Op]:
    """The instances behind the `nilpotent` and `nonnilpotent` categories of
    `qgring verify-theorems`, order <= 200."""
    ops: list[Op] = []
    for p in (2, 3, 5, 7):
        for m in range(2, 8):
            for n in range(1, 8):
                if p ** (m + n) <= 200:
                    ops.append(Op(f"BJ1({p},{m},{n})", ("bj1", (p, m, n)),
                                  ex.bj1(p, m, n)))
    for p, bases in _BJ2_BASES.items():
        z = p
        while p * p * z <= 200:
            if not (p == 2 and z <= 2):
                for label, base in bases:
                    ops.append(Op(f"BJ2({label},{z})", ("bj2", (base, z)),
                                  ex.bj2(p, z)))
            z *= p
    for n in (2, 3):
        ops.append(Op(f"BJ3({n})", ("spec", f"X(Q(8),C({2 ** n}))"), ex.bj3(n)))
    for name in ("BJ4", "BJ5", "Q16", "D8cpQ8", "BJ8", "BJ9"):
        ops.append(Op(name, ("named", name), ex.NAMED[name]))
    for spec, e_rank, odd in [("X(Q(8),C(3))", 0, 3), ("X(Q(8),C(5))", 0, 5),
                              ("X(Q(8),C(7))", 0, 7), ("X(Q(8),C(9))", 0, 9),
                              ("X(X(Q(8),C(2)),C(3))", 1, 3),
                              ("X(Q(8),C(15))", 0, 15)]:
        ops.append(Op(spec, ("spec", spec), ex.hamiltonian(e_rank, odd)))
    for p, q in [(5, 4), (7, 3), (7, 6), (11, 5), (13, 3), (13, 4), (13, 12)]:
        spec = f"SdCyc({p},{q},{_least_of_order(p, q)})"
        ops.append(Op(spec, ("spec", spec), ex.faithful_cyclic(p, q)))
    for p, n, q, mat in _FAITHFUL_VECTOR:
        spec = f"SdVec({p},{n},{mat},{q})"
        ops.append(Op(spec, ("spec", spec), ex.faithful_vector(p, n, q)))
    for p in _primes(3, 48):
        for q in (2, 3, 5):
            if p == q:
                continue
            for k in range(2, 7):
                if p * q ** k > 200:
                    continue
                for k0 in range(1, k):
                    r0 = _least_of_order(p, q ** k0)
                    if r0 is None:
                        continue
                    spec = f"SdCyc({p},{q ** k},{r0})"
                    ops.append(Op(spec, ("spec", spec),
                                  ex.nonfaithful(p, q, k, k0)))
    return ops


def build_ops(workload: str) -> list[Op]:
    if workload == "analyze-large":
        return [Op(s, ("spec", s), a) for s, a in ex.ANALYZE.items()]
    if workload == "family-sweep":
        return family_ops()
    if workload == "witness-search":
        return [Op(s, ("spec", s), a) for s, a in ex.WITNESS.items()]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# ---------------------------------------------------------------------------
# cold caches


class ColdCacheGuard:
    """Hands each op new group objects and fails if one is reused."""

    # module-level memos a fresh process starts without; they hold
    # fingerprints, not groups, and are reset when present
    _OPTIONAL_MEMOS = (("props", "_A5_FP"), ("components", "_CURATED"))

    def __init__(self) -> None:
        self._seen: dict[int, weakref.ref] = {}
        self._this_op: set[int] = set()

    def reset(self) -> None:
        from qgring import catalog
        catalog._BUILT.clear()
        self._this_op.clear()
        for mod, attr in self._OPTIONAL_MEMOS:
            module = importlib.import_module(f"qgring.{mod}")
            if hasattr(module, attr):
                setattr(module, attr, None)
        gc.collect()

    def admit(self, G) -> None:
        """G was just built for this op: it must be new with an empty cache."""
        self._remember(G)
        if G._cache:
            raise ColdCacheError(f"{G.name} arrived with a filled cache: "
                                 f"{sorted(G._cache)}")

    def admit_built(self) -> None:
        """Every group the catalog memoized during this op must be new."""
        from qgring import catalog
        for G in catalog._BUILT.values():
            self._remember(G)

    def _remember(self, G) -> None:
        ref = self._seen.get(id(G))
        if ref is not None and ref() is G:
            if id(G) in self._this_op:
                return
            raise ColdCacheError(f"group {G.name} was reused across ops")
        self._seen[id(G)] = weakref.ref(G)
        self._this_op.add(id(G))


# ---------------------------------------------------------------------------
# running and checking one op
#
# Library functions are looked up on their module at call time, so that a
# tracer's wrappers are seen.


@dataclass
class Outcome:
    label: str
    latency_s: float
    ok: bool
    decided: bool
    why: str = ""
    answer: Optional[dict] = None
    calibration_s: float = 0.0


class _Clock:
    """Times an op's measured region and, given a tracer, traces exactly
    that region: the wrappers are installed only while it runs."""

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self.tracer = tracer
        self.elapsed = 0.0

    def __enter__(self) -> "_Clock":
        if self.tracer is not None:
            self.tracer.install()
            self._span = self.tracer.begin(OP_SPAN)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._t0
        if self.tracer is not None:
            self.tracer.end(self._span)
            self.tracer.uninstall()


def _build(desc: tuple):
    from qgring import catalog
    kind, arg = desc
    if kind == "spec":
        return catalog.build_spec(arg)
    if kind == "named":
        return catalog.build_named(arg)
    if kind == "bj1":
        return catalog.bj1_group(*arg)
    if kind == "bj2":
        base, z = arg
        return catalog.bj2_group(_build(base), z)
    raise ValueError(f"unknown build {kind!r}")


def _witness_ok(G, alpha, e) -> bool:
    from qgring.props import Witness, verify_witness
    return all(verify_witness(Witness("benchmark", G, alpha, e)).values())


def _compare(answer: dict, want: ex.Answer, check_dims: bool = True) -> list[str]:
    bad = []
    if want.verdict is not None and answer["verdict"] != want.verdict:
        bad.append(f"verdict {answer['verdict']} != {want.verdict}")
    if want.reason is not None and answer["reason"] != want.reason:
        bad.append(f"reason {answer['reason']} != {want.reason}")
    if answer["count"] != want.count:
        bad.append(f"count {answer['count']} != {want.count}")
    if check_dims and tuple(answer["dims"]) != want.dims:
        bad.append(f"dims {answer['dims']} != {list(want.dims)}")
    return bad


def _analyze(op: Op, seed: int, guard: ColdCacheGuard,
             tracer: Optional[Tracer]) -> Outcome:
    from qgring import catalog, cli
    from qgring.algebra import AlgElem
    buf = io.StringIO()
    with _Clock(tracer) as clock, contextlib.redirect_stdout(buf):
        rc = cli.main(["analyze", op.label, "--json", "--seed", str(seed)])
    guard.admit_built()
    text = buf.getvalue()
    out = json.loads(text)
    nd = out["nd"]
    answer = {"verdict": nd["verdict"], "reason": nd["reason"]["kind"],
              "count": out["matrix_count"],
              "dims": sorted(p["dim"] for p in out["pcis"]),
              "digest": hashlib.sha256(text.encode()).hexdigest()}
    bad = _compare(answer, op.answer)
    if rc != 0:
        bad.append(f"exit code {rc}")
    if answer["digest"] != ex.ANALYZE_DIGESTS[op.label]:
        bad.append("json digest differs from the recorded one")
    if nd["verdict"] == "NotND":
        G = catalog.build_spec(op.label)
        alpha, e = (AlgElem.from_coeffs(G, {i: Fraction(int(n), int(d))
                                            for i, (n, d) in enumerate(nd["witness"][k])})
                    for k in ("alpha", "e"))
        if not _witness_ok(G, alpha, e):
            bad.append("witness fails re-verification")
    return Outcome(op.label, clock.elapsed, not bad, nd["verdict"] != "Unknown",
                   "; ".join(bad), answer)


def _family(op: Op, seed: int, guard: ColdCacheGuard,
            tracer: Optional[Tracer]) -> Outcome:
    from qgring import components
    with _Clock(tracer) as clock:
        G = _build(op.build)
        guard.admit(G)
        guard.admit_built()
        cnt, comps = components.count_matrix_components(G, seed=seed)
    answer = {"verdict": None, "reason": None, "count": cnt.to_json(),
              "dims": sorted(d.dim_over_Q for _, d in comps)}
    bad = _compare(answer, op.answer)
    return Outcome(op.label, clock.elapsed, not bad, cnt.exact is not None,
                   "; ".join(bad), answer)


def _witness(op: Op, seed: int, guard: ColdCacheGuard,
             tracer: Optional[Tracer]) -> Outcome:
    from qgring import props
    G = _build(op.build)
    guard.admit(G)
    guard.admit_built()
    with _Clock(tracer) as clock:
        rep = props.nd_verdict(G, budget=WITNESS_BUDGET, seed=seed)
    answer = {"verdict": rep.verdict, "reason": rep.reason,
              "count": rep.matrix_count.to_json(), "dims": None,
              "spent": rep.spent}
    want = op.answer
    if want.verdict == "Unknown" and rep.verdict == "NotND":
        want = ex.Answer(*ex.NOT, want.count, want.dims)
    # nd_verdict reports no idempotents, so the dimensions are not checked
    bad = _compare(answer, want, check_dims=False)
    if rep.verdict == "NotND" and not _witness_ok(G, *rep.witness):
        bad.append("witness fails re-verification")
    return Outcome(op.label, clock.elapsed, not bad, rep.verdict != "Unknown",
                   "; ".join(bad), answer)


_RUNNERS = {"analyze-large": _analyze, "family-sweep": _family,
            "witness-search": _witness}


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python kernel shaped like the library's
    hot loops: table-indexed multiply-accumulate, gcd normalization and
    bitmask closure. It shares no code with the library, so its time
    tracks only how fast the host runs Python at the moment."""
    t0 = time.perf_counter()
    n = 96
    table = [[(i * j + i + j) % n for j in range(n)] for i in range(n)]
    a = [(7 * i) % 11 - 5 for i in range(n)]
    out = [0] * n
    for _ in range(4):
        for g in range(n):
            row, ag = table[g], a[g]
            for h in range(n):
                out[row[h]] += ag * a[h]
    g = 0
    for v in out * 16:
        g = math.gcd(g, v)
    mask, frontier = 1, [0]
    while frontier:
        x = frontier.pop()
        for y in table[x][:12]:
            if not mask >> y & 1:
                mask |= 1 << y
                frontier.append(y)
    return time.perf_counter() - t0


def run_op(workload: str, op: Op, seed: int, guard: ColdCacheGuard,
           tracer: Optional[Tracer] = None) -> Outcome:
    """Run one op from cold caches and check it, traced when a tracer is
    given. An exception counts as a failed op; a reused group stops the run.
    The calibration kernel runs just before and just after the op."""
    guard.reset()
    before = calibrate()
    t0 = time.perf_counter()
    try:
        outcome = _RUNNERS[workload](op, seed, guard, tracer)
    except ColdCacheError:
        raise
    except Exception as exc:  # the op boundary: record and keep running
        outcome = Outcome(op.label, time.perf_counter() - t0, False, False,
                          f"{type(exc).__name__}: {exc}")
    outcome.calibration_s = (before + calibrate()) / 2
    return outcome
