"""Command-line front end.

Four subcommands: classify one modulus, enumerate a range, compute a
multiplicative order, and run the counterexample audits.  Output is one
JSON object per line (schema_version 1), records sorted by (ell, a, b).

Exit codes: 0 success, 1 usage error, 2 precondition violation,
3 discrepancies found (audit --claim crossval only), 70 internal
failure (Pollard rho gave up, a worker process died, memory ran out, or
stdout could not be written), 130 interrupted (SIGINT), 143 terminated
(SIGTERM).
"""

from __future__ import annotations

import argparse
import gc
import signal
import sys
import threading
from contextlib import closing, suppress
from itertools import filterfalse, repeat
from operator import attrgetter

from . import arith, audit, classify, oracle
from .core import Pair, parallel_map, usable_cpus

SCHEMA_VERSION = 1
ENUM_LIMIT = 10**8
# classify runs brute force, a scan of up to 2*ell exponents, only up to
# this modulus: at most 2*10**6 steps, a fraction of a second.
BRUTE_FORCE_LIMIT = 10**6
_CHUNK = 1024
_JOBS_HELP = "worker processes (default: the CPUs this process may use)"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_DISCREPANCY = 3
EXIT_SOFTWARE = 70  # EX_SOFTWARE of sysexits.h
EXIT_INTERRUPTED = 130
EXIT_TERMINATED = 143


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; the contract here wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


_JSON_BOOL = {True: "true", False: "false"}


def _verdict_lines(a: int, b: int, verdicts, agreement: bool | None = None) -> list[str]:
    """Each verdict record as compact JSON, keys in schema order, with its "\n".

    Equal to json.dumps of the record with separators (",", ":"); method
    names are plain identifiers, so they need no escaping.  A line is the
    pair's fixed text and the verdict's own fields, each flag through
    _JSON_BOOL as in _finding_line; s_val2, order_claim_ok and agreement are
    added only when set.  verdicts may be any iterable and is read once.
    """
    ab = f',"a":{a},"b":{b},'
    end = "}\n" if agreement is None else f',"agreement":{_JSON_BOOL[agreement]}}}\n'
    return [
        f'{{"schema_version":{SCHEMA_VERSION},"kind":"verdict","ell":{ell}{ab}'
        f'"good":{_JSON_BOOL[good]},"oddly_good":{_JSON_BOOL[oddly]},'
        f'"evenly_good":{_JSON_BOOL[evenly]},"witness":{"null" if witness is None else witness},'
        f'"method":"{method}"'
        f'{end if s_val2 is None and claim_ok is None else _diagnostics(s_val2, claim_ok) + end}'
        for ell, good, oddly, evenly, witness, method, s_val2, claim_ok in verdicts
    ]


def _diagnostics(s_val2: int | None, order_claim_ok: bool | None) -> str:
    """The optional s_val2 and order_claim_ok keys of a verdict line."""
    text = "" if s_val2 is None else f',"s_val2":{s_val2}'
    if order_claim_ok is not None:
        text += f',"order_claim_ok":{_JSON_BOOL[order_claim_ok]}'
    return text


def _finding_line(claim: str, a: int, b: int, modulus: int, x: int,
                  literal: bool, oracle_v: bool, discrepancy: bool, note: str) -> str:
    """One finding record as compact JSON, keys in schema order.

    The arguments are AuditFinding's fields in order, so a finding f is
    written as _finding_line(*f).  Equal to json.dumps of the record with
    separators (",", ":").  Claim ids are plain identifiers, and every note
    is built from integers and fixed words (inside audit, or from the
    jitman_eq2 columns in _write_negation_findings), so neither needs
    escaping.  a, x and the note may be "%d" placeholders, making the line a
    %-template for _write_negation_findings; no other "%" can occur in it.
    """
    return (
        f'{{"schema_version":{SCHEMA_VERSION},"kind":"finding","claim":"{claim}",'
        f'"a":{a},"b":{b},"modulus":{modulus},"x":{x},'
        f'"literal_verdict":{_JSON_BOOL[literal]},'
        f'"oracle_verdict":{_JSON_BOOL[oracle_v]},'
        f'"discrepancy":{_JSON_BOOL[discrepancy]},"note":"{note}"}}'
    )


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def _routes() -> dict:
    """Each --method name and its route, in the order --method all reports them.

    Built per call, not at import, so that a route patched by a test or
    wrapped in place by a tracer is the one classify runs.
    """
    return {"theorem": classify.is_good,
            "corollary": classify.is_good_via_sum_valuation,
            "oracle": oracle.order_oracle_verdict,
            "brute": oracle.brute_force_verdict}


def _cmd_classify(args) -> int:
    pair = Pair(args.a, args.b)
    brute_ok = args.ell <= BRUTE_FORCE_LIMIT
    if args.method == "brute" and not brute_ok:
        raise ValueError(f"brute force runs only for ell <= {BRUTE_FORCE_LIMIT}, "
                         f"got {args.ell}")
    routes = _routes()
    methods = [args.method]
    if args.method == "all":
        methods = [m for m in routes
                   if (m != "corollary" or pair.ab_odd) and (m != "brute" or brute_ok)]
    verdicts = [routes[m](pair, args.ell) for m in methods]
    agreement = None
    if args.method == "all":
        # The answer crossval compares: flags and witness, not the method tag.
        agreement = len({(v.flags(), v.witness) for v in verdicts}) == 1
    for line in _verdict_lines(args.a, args.b, verdicts, agreement):
        sys.stdout.write(line)
    return EXIT_OK


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def _kept(verdicts, flt: str):
    """The verdicts that --filter flt keeps, lazily; "bad" keeps those not good."""
    if flt == "all":
        return verdicts
    if flt == "bad":
        return filterfalse(attrgetter("good"), verdicts)
    flag = {"good": "good", "oddly": "oddly_good", "evenly": "evenly_good"}[flt]
    return filter(attrgetter(flag), verdicts)


def _enumerate_chunk(task) -> list[str]:
    a, b, lo, hi, flt = task
    verdicts = map(oracle.order_oracle_verdict, repeat(Pair(a, b)), range(lo, hi))
    return _verdict_lines(a, b, _kept(verdicts, flt))


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
            sys.stdout.write("".join(chunk))
    return EXIT_OK


# ---------------------------------------------------------------------------
# order
# ---------------------------------------------------------------------------

def _cmd_order(args) -> int:
    x, m = args.x, args.mod
    order = arith.multiplicative_order(x, m)
    # Equal to json.dumps of the record with separators (",", ":").
    components = ",".join(f"[{pp},{arith.multiplicative_order(x, pp)}]"
                          for pp in arith.factorize(m).prime_powers())
    sys.stdout.write(f'{{"schema_version":{SCHEMA_VERSION},"kind":"order","x":{x % m},'
                     f'"modulus":{m},"order":{order},"components":[{components}]}}\n')
    return EXIT_OK


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def _write_negation_findings(d_max: int) -> None:
    """The jitman-eq2 findings, one write per modulus from its columns.

    Each modulus's _finding_line template, with %d in place of a, x and the
    note's order, exponent and power, is cut at the %d into six fixed
    pieces, and each row is one f-string over them and its columns.  The
    columns' decimals come from one table of str(i), grown as d grows.
    """
    claim = audit.CLAIM_NEGATION_FROM_EVEN_ORDER
    digits: list[str] = []
    for d, x, k, y, t in audit.audit_negation_from_even_order(d_max):
        digits += map(str, range(len(digits), d))  # x, k, y and t are below d
        head, p1, p2, p3, p4, tail = (
            _finding_line(claim, "%d", 1, d, "%d", False, True, True,
                          f"order %d; pow(x, %d, {d}) = %d") + "\n").split("%d")
        rows = zip(x.tolist(), t.tolist(), k.tolist(), y.tolist())
        sys.stdout.write("".join([
            f"{head}{digits[x]}{p1}{digits[x]}{p2}{digits[t]}{p3}{digits[k]}{p4}{digits[y]}{tail}"
            for x, t, k, y in rows]))


def _cmd_audit(args) -> int:
    if args.claim == "jitman-eq2":
        _write_negation_findings(args.d_max)
        return EXIT_OK
    bounds = (args.a_max, args.b_max, args.ell_max, args.jobs)
    if args.claim == "jitman-eq1":
        findings = audit.audit_order2_congruence(args.beta)
    elif args.claim == "thm2-literal":
        findings = audit.audit_odd_witness_variants(*bounds)["literal"]
    else:
        findings = audit.crossval_sweep(*bounds)
    for f in sorted(findings, key=lambda f: (f.modulus, f.a, f.b)):
        sys.stdout.write(_finding_line(*f) + "\n")
    return EXIT_DISCREPANCY if findings and args.claim == "crossval" else EXIT_OK


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
    p.add_argument("--method", choices=(*_routes(), "all"), default="all")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("enumerate", help="stream verdicts for ell = 1..max")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--filter", choices=("good", "oddly", "evenly", "bad", "all"),
                   default="all")
    p.add_argument("--jobs", type=int, default=usable_cpus(), help=_JOBS_HELP)
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
    p.add_argument("--jobs", type=int, default=usable_cpus(), help=_JOBS_HELP)
    p.set_defaults(fn=_cmd_audit)
    return parser


class _Terminated(BaseException):
    """SIGTERM, raised like KeyboardInterrupt so that pools shut down."""


def _raise_terminated(signum, frame):
    raise _Terminated


def main(argv=None) -> int:
    """Run one command and return its exit code.

    main first freezes the collector's heap (gc.freeze()): the modules
    imported before it live as long as the CLI process.  An in-process
    caller's heap stays frozen until it calls gc.unfreeze().
    """
    # Frozen, the imported modules are out of the collector's sight: neither
    # the run's collections nor interpreter exit walk or tear down numpy's
    # module graph, and --jobs workers forked later inherit the frozen heap.
    # O(1), and after import, so it moves no start-up time.
    gc.freeze()
    args = _build_parser().parse_args(argv)
    # Only the main thread may set a handler, and only it runs one.
    owner = threading.current_thread() is threading.main_thread()
    previous = owner and signal.signal(signal.SIGTERM, _raise_terminated)
    try:
        if sys.stdout is None:  # fd 1 was closed when the interpreter started
            raise OSError("stdout is closed")
        code = args.fn(args)
        sys.stdout.flush()  # so that a failed write is caught below
        return code
    except ValueError as exc:
        code, reason = EXIT_PRECONDITION, str(exc)
    except BrokenPipeError:
        return EXIT_OK
    except (RuntimeError, OSError, MemoryError) as exc:
        # RuntimeError covers rho's give-up and a dead worker process;
        # MemoryError may carry no text.
        code, reason = EXIT_SOFTWARE, str(exc) or "out of memory"
    except KeyboardInterrupt:
        code, reason = EXIT_INTERRUPTED, "interrupted"
    except _Terminated:
        code, reason = EXIT_TERMINATED, "terminated"
    finally:
        if owner:
            signal.signal(signal.SIGTERM, previous)
    # A closed stderr (None) or a failed write loses the line, not the code.
    with suppress(AttributeError, OSError):
        sys.stderr.write(f"goodint: {reason}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
