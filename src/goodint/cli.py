"""Command-line front end.

Four subcommands: classify one modulus, enumerate a range, compute a
multiplicative order, and run the counterexample audits.  Output is one
JSON object per line (schema_version 1), records sorted by (ell, a, b).

Exit codes: 0 success, 1 usage error, 2 precondition violation,
3 discrepancies found (audit --claim crossval only), 130 interrupted
(SIGINT).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import closing

from . import arith, audit, classify, oracle
from .core import Pair, Verdict, parallel_map

SCHEMA_VERSION = 1
ENUM_LIMIT = 10**8
# classify runs brute force, a scan of up to 2*ell exponents, only up to
# this modulus: at most 2*10**6 steps, a fraction of a second.
BRUTE_FORCE_LIMIT = 10**6
_CHUNK = 1024

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_DISCREPANCY = 3
EXIT_INTERRUPTED = 130


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; the contract here wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


_JSON_BOOL = {True: "true", False: "false"}


def _verdict_line(a: int, b: int, v: Verdict, agreement: bool | None = None) -> str:
    """One verdict record as compact JSON, keys in schema order.

    Equal to json.dumps of the record with separators (",", ":"); method
    names are plain identifiers, so they need no escaping.
    """
    line = (
        f'{{"schema_version":{SCHEMA_VERSION},"kind":"verdict","ell":{v.ell},'
        f'"a":{a},"b":{b},"good":{_JSON_BOOL[v.good]},'
        f'"oddly_good":{_JSON_BOOL[v.oddly_good]},'
        f'"evenly_good":{_JSON_BOOL[v.evenly_good]},'
        f'"witness":{"null" if v.witness is None else v.witness},'
        f'"method":"{v.method}"'
    )
    if v.s_val2 is not None:
        line += f',"s_val2":{v.s_val2}'
    if v.order_claim_ok is not None:
        line += f',"order_claim_ok":{_JSON_BOOL[v.order_claim_ok]}'
    if agreement is not None:
        line += f',"agreement":{_JSON_BOOL[agreement]}'
    return line + "}"


def _finding_line(claim: str, a: int, b: int, modulus: int, x: int,
                  literal: bool, oracle_v: bool, note: str) -> str:
    """One finding record as compact JSON, keys in schema order.

    Equal to json.dumps of the record with separators (",", ":").  Claim ids
    are plain identifiers, and every note is built from integers and fixed
    words (inside audit, or from the jitman_eq2 columns in
    _write_negation_findings), so neither needs escaping.  discrepancy is
    literal != oracle_v, as in AuditFinding.  a, x and the note may be "%d"
    placeholders, making the line a %-template for _write_negation_findings;
    no other "%" can occur in it.
    """
    return (
        f'{{"schema_version":{SCHEMA_VERSION},"kind":"finding","claim":"{claim}",'
        f'"a":{a},"b":{b},"modulus":{modulus},"x":{x},'
        f'"literal_verdict":{_JSON_BOOL[literal]},'
        f'"oracle_verdict":{_JSON_BOOL[oracle_v]},'
        f'"discrepancy":{_JSON_BOOL[literal != oracle_v]},"note":"{note}"}}'
    )


def _write_findings(findings) -> None:
    for f in findings:
        sys.stdout.write(_finding_line(f.claim_id, f.a, f.b, f.modulus, f.x,
                                       f.literal_verdict, f.oracle_verdict, f.note) + "\n")


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

_METHODS = ("theorem", "corollary", "oracle", "brute")


def _one_verdict(pair: Pair, ell: int, method: str) -> Verdict:
    if method == "theorem":
        return classify.is_good(pair, ell)
    if method == "corollary":
        return classify.is_good_via_sum_valuation(pair, ell)
    if method == "oracle":
        return oracle.order_oracle_verdict(pair, ell)
    return oracle.brute_force_verdict(pair, ell)


def _cmd_classify(args) -> int:
    pair = Pair(args.a, args.b)
    brute_ok = args.ell <= BRUTE_FORCE_LIMIT
    if args.method == "brute" and not brute_ok:
        raise ValueError(f"brute force runs only for ell <= {BRUTE_FORCE_LIMIT}, "
                         f"got {args.ell}")
    if args.method != "all":
        v = _one_verdict(pair, args.ell, args.method)
        sys.stdout.write(_verdict_line(args.a, args.b, v) + "\n")
        return EXIT_OK
    methods = [m for m in _METHODS
               if (m != "corollary" or pair.ab_odd) and (m != "brute" or brute_ok)]
    verdicts = [_one_verdict(pair, args.ell, m) for m in methods]
    keyed = {(v.good, v.oddly_good, v.evenly_good, v.witness) for v in verdicts}
    agreement = len(keyed) == 1
    for v in verdicts:
        sys.stdout.write(_verdict_line(args.a, args.b, v, agreement) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def _keep(v: Verdict, flt: str) -> bool:
    if flt == "all":
        return True
    if flt == "good":
        return v.good
    if flt == "oddly":
        return v.oddly_good
    if flt == "evenly":
        return v.evenly_good
    return not v.good  # bad


def _enumerate_chunk(task) -> list[str]:
    a, b, lo, hi, flt = task
    pair = Pair(a, b)
    lines = []
    for ell in range(lo, hi):
        v = oracle.order_oracle_verdict(pair, ell)
        if _keep(v, flt):
            lines.append(_verdict_line(a, b, v))
    return lines


def _cmd_enumerate(args) -> int:
    if args.max < 0 or args.max > ENUM_LIMIT:
        raise ValueError(f"--max must be in 0..{ENUM_LIMIT}, got {args.max}")
    Pair(args.a, args.b)  # validate before spawning workers
    tasks = [
        (args.a, args.b, lo, min(lo + _CHUNK, args.max + 1), args.filter)
        for lo in range(1, args.max + 1, _CHUNK)
    ]
    # closing(): on a closed pipe, drop the chunks not yet started.
    with closing(parallel_map(_enumerate_chunk, tasks, args.jobs)) as chunks:
        for chunk in chunks:
            for line in chunk:
                sys.stdout.write(line + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# order
# ---------------------------------------------------------------------------

def _cmd_order(args) -> int:
    x, m = args.x, args.mod
    order = arith.multiplicative_order(x, m)
    record = {
        "schema_version": SCHEMA_VERSION,
        "kind": "order",
        "x": x % m,
        "modulus": m,
        "order": order,
        "components": [[pp, arith.multiplicative_order(x, pp)]
                       for pp in arith.factorize(m).prime_powers()],
    }
    sys.stdout.write(json.dumps(record, separators=(",", ":")) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def _write_negation_findings(d_max: int) -> None:
    """The jitman-eq2 findings, one write per modulus from its columns.

    Each modulus gets one _finding_line template with %d in place of a, x
    and the note's order, exponent and power, filled row by row.
    """
    claim = audit.CLAIM_NEGATION_FROM_EVEN_ORDER
    for d, x, k, y, t in audit.audit_negation_from_even_order(d_max):
        line = _finding_line(claim, "%d", 1, d, "%d", False, True,
                             f"order %d; pow(x, %d, {d}) = %d") + "\n"
        xs = x.tolist()
        sys.stdout.write("".join(map(line.__mod__,
                                     zip(xs, xs, t.tolist(), k.tolist(), y.tolist()))))


def _cmd_audit(args) -> int:
    if args.claim == "jitman-eq1":
        _write_findings(audit.audit_order2_congruence(args.beta))
        return EXIT_OK
    if args.claim == "jitman-eq2":
        _write_negation_findings(args.d_max)
        return EXIT_OK
    if args.claim == "thm2-literal":
        findings = audit.audit_odd_witness_variants(
            args.a_max, args.b_max, args.ell_max, jobs=args.jobs)["literal"]
        _write_findings(sorted(findings, key=lambda f: (f.modulus, f.a, f.b)))
        return EXIT_OK
    findings = audit.crossval_sweep(args.a_max, args.b_max, args.ell_max, jobs=args.jobs)
    _write_findings(sorted(findings, key=lambda f: (f.modulus, f.a, f.b)))
    return EXIT_DISCREPANCY if findings else EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="goodint", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("classify", help="classify one modulus against a pair")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--method", choices=_METHODS + ("all",), default="all")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("enumerate", help="stream verdicts for ell = 1..max")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--filter", choices=("good", "oddly", "evenly", "bad", "all"),
                   default="all")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                   help="worker processes (default: CPU count)")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("order", help="multiplicative order with its components")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--mod", type=int, required=True)
    p.set_defaults(fn=_cmd_order)

    p = sub.add_parser("audit", help="scan a claim against ground truth")
    p.add_argument("--claim", required=True,
                   choices=("jitman-eq1", "jitman-eq2", "thm2-literal", "crossval"))
    p.add_argument("--beta", type=int, default=8, help="jitman-eq1: max power of two")
    p.add_argument("--d-max", type=int, default=100,
                   help="jitman-eq2: max odd modulus (1..10^4)")
    p.add_argument("--a-max", type=int, default=25)
    p.add_argument("--b-max", type=int, default=25)
    p.add_argument("--ell-max", type=int, default=200)
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.set_defaults(fn=_cmd_audit)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"goodint: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except BrokenPipeError:
        return EXIT_OK
    except KeyboardInterrupt:
        print("goodint: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
