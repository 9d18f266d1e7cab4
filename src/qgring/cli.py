"""Command line front end.

Commands:
    analyze <spec>          full pipeline for one group
    sweep <family> ...      parameter sweeps with predicted vs computed verdicts
    verify-theorems         run the verification suite
    catalog                 list named groups

Global flags: --json, --cap N, --budget N, --seed N; they are the only
settings. --cap and --budget take positive integers; --budget is read by
analyze alone. --seed is accepted by analyze alone and read by nothing:
no step samples, and it stays only for callers that still pass it. Each
command accepts only the flags it takes (COMMAND_FLAGS), refuses the
others and lists only those in its help.
Exit codes: 2 for a malformed command line; for analyze 0 ok, 2 parse
error, 3 order cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from typing import Optional

from .catalog import (bj1_group, build_named, build_spec, catalog_describe,
                      catalog_names)
from .components import (
    count_matrix_components,
    predict_nilpotent,
    predict_nonnilpotent,
)
from .errors import InconsistentFamilyParams, OrderCapExceeded, QGRingError
from .groups import (DEFAULT_ORDER_CAP, FiniteGroup, order_q_matrix,
                     semidirect_vector)
from .numutil import element_of_order, is_prime, ord_mod
from .props import (DEFAULT_WITNESS_BUDGET, classify_ssn, is_ncn, is_sn,
                    is_ssn, nd_verdict)

SCHEMA = 1


_quote = json.encoder.encode_basestring_ascii  # the C string encoder


def _json_text(obj, indent: str = "\n") -> str:
    """obj as json.dumps(obj, indent=2, sort_keys=True) writes it, byte for
    byte, joined from the C string encoder's pieces: with indent set, json
    falls back to its pure-Python encoder. indent is the newline and
    indentation before obj's closing bracket. The exact types come first;
    anything else is written by _other_text. Every command's --json output
    is written by it."""
    t = type(obj)
    if t is str:
        return _quote(obj)
    if t is int:
        return int.__repr__(obj)
    if t is not dict and t is not list:
        return _other_text(obj, indent)
    if not obj:
        return "{}" if t is dict else "[]"
    inner = indent + "  "
    if t is list:
        return "[" + inner + ("," + inner).join([_json_text(v, inner) for v in obj]) \
            + indent + "]"
    return "{" + inner + ("," + inner).join([
        (_quote(k) if type(k) is str else _json_key(k)) + ": " + _json_text(v, inner)
        for k, v in sorted(obj.items())]) + indent + "}"


def _other_text(obj, indent: str) -> str:
    """A value that is not exactly a str, int, list or dict, tested in
    json's order: subclasses are written as their base."""
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj in (math.inf, -math.inf):
            return "Infinity" if obj > 0 else "-Infinity"
        return float.__repr__(obj)
    if isinstance(obj, (list, tuple)):
        return _json_text(list(obj), indent)
    if isinstance(obj, dict):
        return _json_text(dict(obj), indent)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_key(key) -> str:
    """A dict key as json writes it: a string, or a number, bool or None
    written as a value and quoted."""
    if isinstance(key, str):
        return _quote(key)
    if key is None or isinstance(key, (int, float)):
        return '"' + _json_text(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _idem_hash(e) -> str:
    payload = f"{e.den}:{','.join(map(str, e.nums))}".encode()
    return hashlib.sha256(payload).hexdigest()[:12]


def cmd_analyze(args) -> int:
    """Exit 3, with a one-line error, on an order or subgroup-count cap
    exceeded anywhere, in the build or in the pipeline."""
    try:
        return _analyze(args)
    except OrderCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def _analyze(args) -> int:
    budget = DEFAULT_WITNESS_BUDGET if args.budget is None else args.budget
    try:
        G = build_spec(args.spec, cap=args.cap)
    except OrderCapExceeded:
        raise
    except QGRingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    timing = {}
    t0 = time.perf_counter()
    cls = classify_ssn(G)
    okp, _ = G.is_p_group()
    flags = {"sn": is_sn(G), "ssn": is_ssn(G),
             "ncn": is_ncn(G) if okp and G.order > 1 else None}
    timing["classify_ms"] = int(1000 * (time.perf_counter() - t0))

    t0 = time.perf_counter()
    report = nd_verdict(G, budget=budget)
    timing["nd_ms"] = int(1000 * (time.perf_counter() - t0))

    cnt = report.matrix_count
    pcis_info = []
    for sp, desc in report.components:
        entry = {
            "pair": sp.describe(),
            "pair_kind": sp.kind,
            "idempotent": _idem_hash(sp.e),
            "dim": desc.dim_over_Q,
            "center_rank": desc.center_rank,
            "kind": desc.kind,
        }
        if args.json:
            entry["descriptor"] = desc.to_dict()
        pcis_info.append(entry)

    pred = cls.prediction()
    if pred is not None:
        count = pred["detail"].get("matrix_component_count")  # None if not given
        pred["agreement"] = (None if cnt.exact is None
                             else cnt.exact == count if count is not None
                             else pred["one_matrix"] == (cnt.exact == 1))

    out = {
        "schema": SCHEMA,
        "group": {"spec": args.spec, "name": G.name,
                  "order": G.order},
        "properties": {**flags, "class": cls.tag, "class_params": cls.params},
        "pcis": pcis_info,
        "matrix_count": cnt.to_json(),
        "nd": {**report.to_dict(spec=args.spec), **flags},
        "prediction": pred,
    }
    if args.json:
        print(_json_text(out))
    else:
        print(f"group {out['group']['spec']}  (order {G.order}, {G.name})")
        print(f"  properties: sn={flags['sn']} ssn={flags['ssn']} "
              f"ncn={flags['ncn']} class={cls.tag} {cls.params}")
        if pcis_info:
            print(f"  primitive central idempotents ({len(pcis_info)}):")
            for row in pcis_info:
                print(f"    {row['pair']:<30} dim={row['dim']:<4} "
                      f"center_rank={row['center_rank']:<3} {row['kind']:<24} "
                      f"e#{row['idempotent']}")
        print(f"  matrix components: {cnt}")
        print(f"  nd: {report.verdict} ({report.reason})")
        if pred is not None:
            print(f"  prediction [{pred['family']}]: one_matrix={pred['one_matrix']} "
                  f"nd={pred['nd']} agreement={pred.get('agreement')}")
        print(f"  timing: {timing}")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _parse_range(text: str) -> list[int]:
    """A sweep range: an integer n, or lo:hi for lo..hi inclusive, lo <= hi."""
    lo, sep, hi = text.partition(":")
    try:
        values = list(range(int(lo), int(hi if sep else lo) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or lo:hi, got {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError(f"empty range {text!r}: lo > hi")
    return values


def _span(given: Optional[list[int]], lo: int, hi: int):
    """A sweep option's values, or lo..hi when it was not given."""
    return range(lo, hi + 1) if given is None else given


def _add_computed(row: dict, G: FiniteGroup, pred) -> None:
    """Add G's matrix count to a sweep row, and whether it agrees with the
    predicted one-matrix verdict."""
    cnt, _ = count_matrix_components(G)
    row["computed_one_matrix"] = cnt.exact == 1
    row["matrix_count"] = cnt.to_json()
    row["agreement"] = row["computed_one_matrix"] == pred.one_matrix


def _sweep_bj1(args):
    for p in filter(is_prime, _span(args.p, 2, 3)):
        for m in _span(args.m, 2, 3):
            for n in _span(args.n, 1, 2):
                params = {"p": p, "m": m, "n": n}
                yield (params, p ** (m + n),
                       predict_nilpotent({"family": "BJ1", **params}), {},
                       functools.partial(bj1_group, p, m, n))


def _sweep_bj3(args):
    for n in _span(args.n, 2, 4):
        yield ({"n": n}, 2 ** (n + 3), predict_nilpotent({"family": "BJ3", "n": n}),
               {}, functools.partial(build_spec, f"X(Q(8),C({2 ** n}))"))


def _sweep_repunit(args):
    for n in _span(args.n, 2, 5):
        for p in filter(is_prime, _span(args.p, 2, 7)):
            q = (p ** n - 1) // (p - 1)
            if q * (p - 1) != p ** n - 1 or not is_prime(q):
                continue
            params = {"p": p, "n": n, "q": q}
            build = None
            if ord_mod(q, p) == n:
                def build(cap, p=p, n=n, q=q):
                    return semidirect_vector(p, n, order_q_matrix(p, n, q), q,
                                             cap=cap)
            yield (params, p ** n * q,
                   predict_nonnilpotent({"family": "faithful", **params}), {},
                   build)


def _sweep_nonfaithful(args):
    k0 = 1 if args.k0 is None else args.k0
    for p in filter(is_prime, _span(args.p, 3, 7)):
        for q in _span(args.q, 2, 3):
            if not is_prime(q) or q == p:
                continue
            for k in _span(args.k, 2, 3):
                if not (1 <= k0 < k) or (p - 1) % q ** k0:
                    continue
                r0 = element_of_order(p, q ** k0)
                params = {"p": p, "q": q, "k": k, "k0": k0, "r0": r0}
                pred = predict_nonnilpotent({"family": "nonfaithful", **params})
                per_j = {str(j): v for j, v in pred.detail["per_j_division"].items()}
                yield (params, p * q ** k, pred, {"per_j_division": per_j},
                       functools.partial(build_spec, f"SdCyc({p},{q ** k},{r0})"))


# each sweep family yields (params, order, prediction, extra row fields,
# build(cap) or None when the group is not built)
SWEEPS = {"BJ1": _sweep_bj1, "BJ3": _sweep_bj3, "repunit": _sweep_repunit,
          "nonfaithful": _sweep_nonfaithful}


def cmd_sweep(args) -> int:
    if args.family not in SWEEPS:
        print(f"error: unknown family {args.family!r} "
              f"(families: {', '.join(SWEEPS)})", file=sys.stderr)
        return 2
    rows = []
    try:
        for params, order, pred, extra, build in SWEEPS[args.family](args):
            row = {"params": params, "order": order,
                   "predicted_one_matrix": pred.one_matrix, "nd": pred.nd, **extra}
            if build is not None and order <= args.cap:
                _add_computed(row, build(cap=args.cap), pred)
            rows.append(row)
    except InconsistentFamilyParams as exc:  # a parameter the family rejects
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not rows:
        print(f"error: no {args.family} parameters in the given ranges",
              file=sys.stderr)
        return 2

    rows.sort(key=lambda r: tuple(sorted(r["params"].items())))
    if args.json:
        print(_json_text({"schema": SCHEMA, "family": args.family, "rows": rows}))
    else:
        for row in rows:
            par = " ".join(f"{k}={v}" for k, v in row["params"].items())
            comp = row.get("computed_one_matrix")
            agree = row.get("agreement")
            print(f"{args.family} {par:<28} order={row['order']:<6} "
                  f"predicted_one={row['predicted_one_matrix']} "
                  f"computed_one={comp if comp is not None else '-'} "
                  f"agree={agree if agree is not None else '-'} nd={row['nd']}")
    bad = [r for r in rows if r.get("agreement") is False]
    return 1 if bad else 0


def cmd_verify(args) -> int:
    from .verify import CATEGORIES, run_all
    only = args.only.split(",") if args.only else None
    if only:
        unknown = [c for c in only if c not in CATEGORIES]
        if unknown:
            print(f"error: unknown categories {unknown}; "
                  f"choose from {', '.join(CATEGORIES)}", file=sys.stderr)
            return 2
    progress = None if args.json else (lambda row: print(row.line(), flush=True))
    rows = run_all(only=only, progress=progress)
    failed = [r for r in rows if not r.passed]
    if args.json:
        print(_json_text({"schema": SCHEMA,
                          "rows": [{"category": r.category, "name": r.name,
                                    "passed": r.passed, "detail": r.detail}
                                   for r in rows],
                          "passed": len(rows) - len(failed),
                          "failed": len(failed)}))
    else:
        print(f"--- {len(rows) - len(failed)}/{len(rows)} checks passed")
    return 1 if failed else 0


def cmd_catalog(args) -> int:
    entries = []
    for name in catalog_names():
        G = build_named(name)
        entries.append({"name": name, "order": G.order,
                        "description": catalog_describe(name)})
    if args.json:
        print(_json_text({"schema": SCHEMA, "groups": entries}))
    else:
        for ent in entries:
            print(f"{ent['name']:<10} order={ent['order']:<4} {ent['description']}")
    return 0


# the global flags each command reads; any other is refused, so that no
# flag is silently ignored (verify-theorems' instances are fixed, of order
# at most 200, and no verdict of theirs depends on the witness budget;
# sweep and catalog run no witness search). The one exception is
# analyze's --seed, which nothing reads: it stays for callers that pass it
COMMAND_FLAGS = {
    "analyze": ("json", "cap", "budget", "seed"),
    "sweep": ("json", "cap"),
    "verify-theorems": ("json",),
    "catalog": ("json",),
}


# the global flags, as argparse arguments
GLOBAL_FLAGS = {
    "json": dict(action="store_true", help="machine-readable output"),
    "cap": dict(type=_positive_int,
                help=f"group order cap (default {DEFAULT_ORDER_CAP}; "
                     "analyze and sweep)"),
    "budget": dict(type=_positive_int,
                   help="witness search budget in candidate tests (default "
                        f"{DEFAULT_WITNESS_BUDGET}; analyze only)"),
    "seed": dict(type=int,
                 help="accepted and ignored: no step samples (analyze only)"),
}


def _flags_parser(names) -> argparse.ArgumentParser:
    """A parent parser holding the named global flags. SUPPRESS keeps a
    subcommand's absent flags from overwriting values already parsed at the
    top level (flags are accepted in both positions)."""
    parser = argparse.ArgumentParser(add_help=False,
                                     argument_default=argparse.SUPPRESS)
    for name in names:
        parser.add_argument(f"--{name}", **GLOBAL_FLAGS[name])
    return parser


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, argparse._SubParsersAction]:
    """The command line parser and its subcommands, built once per process;
    parsing reads them and changes neither."""
    parser = argparse.ArgumentParser(
        prog="qgring", parents=[_flags_parser(GLOBAL_FLAGS)],
        description="Wedderburn data of rational group algebras and "
                    "nilpotent-decomposition verdicts for integral group rings")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, **kwargs) -> argparse.ArgumentParser:
        # a command lists and takes, after its name, only the flags it reads
        return sub.add_parser(
            name, parents=[_flags_parser(COMMAND_FLAGS[name])], **kwargs)

    p_an = command("analyze", help="analyze one group")
    p_an.add_argument("spec", help="group spec, e.g. 'SdCyc(3,8,2)' or 'A4'")

    p_sw = command("sweep", help="sweep a parametric family")
    p_sw.add_argument("family", help="BJ1 | BJ3 | repunit | nonfaithful")
    p_sw.add_argument("--p", type=_parse_range,
                      help="range lo:hi or single value")
    for flag in ("--q", "--m", "--n", "--k"):
        p_sw.add_argument(flag, type=_parse_range)
    p_sw.add_argument("--k0", type=int)

    p_vt = command("verify-theorems", help="run the verification suite")
    p_vt.add_argument("--only", default=None,
                      help="comma-separated categories to run")

    command("catalog", help="list named groups")
    return parser, sub


def main(argv: Optional[list[str]] = None) -> int:
    parser, sub = _parser()
    args = parser.parse_args(argv)
    refused = [f"--{name}" for name in GLOBAL_FLAGS
               if hasattr(args, name) and name not in COMMAND_FLAGS[args.command]]
    if refused:
        sub.choices[args.command].error(
            f"{args.command} does not take {', '.join(refused)}")
    defaults = {"json": False, "cap": DEFAULT_ORDER_CAP, "budget": None}
    for name, default in defaults.items():
        if not hasattr(args, name):
            setattr(args, name, default)
    if args.command == "analyze":
        return cmd_analyze(args)
    if args.command == "sweep":
        return cmd_sweep(args)
    if args.command == "verify-theorems":
        return cmd_verify(args)
    if args.command == "catalog":
        return cmd_catalog(args)
    return 2


if __name__ == "__main__":
    sys.exit(main())
