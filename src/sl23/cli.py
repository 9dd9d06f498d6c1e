"""Command line front end.

Subcommands: gen prints a generator pair, certify writes a certificate,
verify recomputes one, maxsub prints the dimension-11 subgroup-order
table with its Q-divisibility column, sweep certifies every prime power
up to a bound.  Exit codes: 0 success, 1 verification failure, 2 usage
or unsupported input, 3 I/O trouble.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from .arith import NotPrimePower, prime_power_decompose
from .certify import (
    ClaimFailed,
    ScanContradictsTable,
    certify,
    dumps,
    loads,
    q_divisibility_scan,
    verify,
)
from .construct import GenPair, NotSpecialCase, OutOfRange, UnsupportedN, build
from .ff import InvalidPrime


def _render_pair(pair: GenPair) -> str:
    f = pair.field
    poly = ",".join(str(c) for c in f.modulus)
    lines = [f"SL {pair.n} {pair.q} field=({f.p},{f.k},[{poly}])"]
    for name, mat in (("x", pair.x), ("y", pair.y)):
        lines.append(name)
        for row in mat.rows:
            lines.append(" ".join(str(e) for e in row))
    return "\n".join(lines) + "\n"


def _write(path: Optional[str], text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    _write(args.out, _render_pair(build(args.n, args.q)))
    return 0


def _cmd_certify(args) -> int:
    t0 = time.time()
    cert = certify(args.n, args.q)
    if args.verbose:
        print(f"certified ({args.n},{args.q}) in {time.time() - t0:.2f}s",
              file=sys.stderr)
    _write(args.out, dumps(cert))
    return 0


def _cmd_verify(args) -> int:
    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            cert = loads(fh.read())
    except (ValueError, RecursionError) as exc:
        # bad UTF-8 or JSON, an over-long integer, or nesting too deep to decode
        print(f"FAILED: not valid JSON ({exc})")
        return 1
    result = verify(cert)
    if result.ok:
        print("OK")
        return 0
    print(f"FAILED: {result.failed_claim}")
    return 1


def _cmd_maxsub(args) -> int:
    q = args.q
    prime_power_decompose(q)
    rows = q_divisibility_scan(q)
    print(f"SL 11 {q} Q={(q**11 - 1) // (q - 1)}")
    for row in rows:
        e = row.entry
        tag = f"case {e.case:>2}  {e.label:<26}"
        if not e.applicable:
            print(f"{tag}  not applicable: {e.reason}")
            continue
        for (q0, order), flag in zip(e.orders, row.divisible):
            sub = f" q0={q0}" if q0 is not None else ""
            mark = "DIVISIBLE" if flag else "-"
            print(f"{tag}{sub}  order={order}  {mark}")
    return 0


def _cmd_sweep(args) -> int:
    qs = []
    for q in range(2, args.q_max + 1):
        try:
            prime_power_decompose(q)
        except NotPrimePower:
            continue
        qs.append(q)
    failures = 0
    for q in qs:
        t0 = time.time()
        cert = certify(args.n, q)
        result = verify(cert)
        tag = cert["construction"]["tag"]
        if result.ok:
            line = f"q={q} PASS {tag}"
        else:
            failures += 1
            line = f"q={q} FAIL {tag}: {result.failed_claim}"
        if args.verbose:
            line += f" ({time.time() - t0:.2f}s)"
        print(line)
    print(f"{len(qs) - failures}/{len(qs)} PASS")
    return 0 if failures == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sl23",
        description="order-2/order-3 generator pairs of SL_n(q) for "
                    "n in {9, 10, 11}, with re-verifiable certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, required=True, choices=(9, 10, 11))
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("gen", help="print the generator pair")
    common(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("certify", help="build a pair and write its certificate")
    common(p)
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("verify", help="recompute every claim of a certificate")
    p.add_argument("path")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("maxsub", help="dimension-11 subgroup-order table "
                                      "with Q-divisibility column")
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=_cmd_maxsub)

    p = sub.add_parser("sweep", help="certify and verify every prime power "
                                     "q <= q-max")
    p.add_argument("--n", type=int, required=True, choices=(9, 10, 11))
    p.add_argument("--q-max", type=int, required=True)
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NotPrimePower, InvalidPrime, UnsupportedN, OutOfRange,
            NotSpecialCase) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ClaimFailed, ScanContradictsTable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
