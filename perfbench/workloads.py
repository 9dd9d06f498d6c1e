"""The benchmark's three workloads: their inputs, operations and oracles.

Each workload is a list of operations.  An operation calls sl23's public
functions, looked up on the module at call time so that installed hooks
see the call, and returns its stage timings plus an output.  The
operation's oracle then checks that output outside the timed region and
returns one line per problem; an operation with any problem counts as a
failure.  Every expected value comes from the paper's tables, written out
here, never from sl23 itself.

Why these workloads (README.md has the metric -> layer map):

* acceptance27: certify -> dumps -> loads -> verify on the paper's 27
  pairs.  Matrix order and odd-extension field arithmetic dominate.
* gen-sweep: construct.build only, as `sl23 gen` does, for every prime
  power q <= 256 at n = 9, 10, 11.  Field construction, element search,
  minimal polynomials and factoring do all the work; Mat.order does none.
* verify-primes: `sl23 verify` only, over certificates for prime q above
  the acceptance range plus early, mid and late tampers of each.  Plain
  mod-p arithmetic, and the early exits of verify.
"""

from __future__ import annotations

import copy
import hashlib
import random
from dataclasses import dataclass, field
from time import perf_counter as clock
from typing import Callable, Optional

SPECIAL_ORDERS = {  # golden ord(z) of the five hard-coded pairs
    (9, 2): 73,
    (9, 4): 81915,
    (10, 2): 1023,
    (10, 3): 7381,
    (10, 4): 4161,
}
ACCEPTANCE_PAIRS = (
    list(SPECIAL_ORDERS)
    + [(9, q) for q in (3, 5, 7, 8, 9, 11, 13, 16)]
    + [(10, q) for q in (5, 7, 8, 9, 11, 13, 16)]
    + [(11, q) for q in (2, 3, 4, 5, 7, 8, 9)]
)
SWEEP_Q_MAX = 256  # sl23.ff._TABLE_MAX: every field with add tables
CORPUS_PRIMES = (17, 19, 23, 29)


def prime_powers(limit: int) -> list[int]:
    out = []
    for q in range(2, limit + 1):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        r = q
        while r % p == 0:
            r //= p
        if r == 1:
            out.append(q)
    return out


def paper_order(n: int, q: int) -> int:
    """ord(z) = Q from the paper's construction table."""
    if (n, q) in SPECIAL_ORDERS:
        return SPECIAL_ORDERS[(n, q)]
    if n == 11:
        return (q**11 - 1) // (q - 1)
    Q = q ** (n - 1) - 1
    return Q // 2 if q in (3, 7) else Q


def coverage_tag(n: int, q: int) -> str:
    if n == 11:
        return "sl11"
    return "special" if (n, q) in SPECIAL_ORDERS else f"generic{n}"


def cert_problems(n: int, q: int, cert: dict) -> list[str]:
    want = paper_order(n, q)
    probs = []
    if cert.get("Q") != str(want):
        probs.append(f"Q is {cert.get('Q')}, the table says {want}")
    if cert.get("orders") != {"x": "2", "y": "3", "z": str(want)}:
        probs.append(f"orders are {cert.get('orders')}, want 2, 3, {want}")
    return probs


def rejected_problems(result) -> list[str]:
    if result.ok:
        return ["tampered certificate verified OK"]
    return [] if result.failed_claim else ["rejected without naming a claim"]


# Tampers of a certificate, from early to late in verify's order of checks.

def _tamper_entry(cert: dict, rng: random.Random) -> dict:
    mat = cert["matrices"][rng.choice("xy")]
    i, j = rng.randrange(len(mat)), rng.randrange(len(mat))
    q = int(cert["q"])  # corpus fields are prime, so codes are residues
    mat[i][j] = str((int(mat[i][j]) + rng.randrange(1, q)) % q)
    return cert


def _tamper_order_z(cert: dict, rng: random.Random) -> dict:
    cert["orders"]["z"] = str(int(cert["orders"]["z"]) + rng.randrange(1, 1000))
    return cert


def _tamper_irreducibility_seed(cert: dict, rng: random.Random) -> dict:
    irr = cert["irreducibility"]
    irr["seed"] = str(int(irr["seed"]) + rng.randrange(1, 1000))
    return cert


def _tamper_assumption(cert: dict, rng: random.Random) -> dict:
    lines = cert["assumptions"]
    lines[rng.randrange(len(lines))] += " (edited)"
    return cert


TAMPERS = {
    "entry": _tamper_entry,
    "orders.z": _tamper_order_z,
    "irreducibility.seed": _tamper_irreducibility_seed,
    "assumption": _tamper_assumption,
}


@dataclass
class Op:
    key: str
    run: Callable[[], tuple[dict, object]]
    check: Callable[[object], list]


@dataclass
class Workload:
    """Operations plus the outputs whose bytes are digested.

    outputs maps an operation key to the text it produced on its first
    run; later runs must reproduce it byte for byte.
    """

    name: str
    ops: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    digest_label: str = "cert_sha256"

    def same_bytes(self, key: str, text: str) -> list[str]:
        if self.outputs.setdefault(key, text) != text:
            return ["output bytes changed between runs of the same input"]
        return []

    def digest(self) -> str:
        h = hashlib.sha256()
        for text in self.outputs.values():
            h.update(text.encode())
        return h.hexdigest()


def _acceptance(C, K, seed: int, pairs) -> Workload:
    wl = Workload("acceptance27")
    for n, q in pairs:
        key = f"({n}, {q})"

        def run(n=n, q=q):
            t0 = clock()
            cert = C.certify(n, q, seed)
            t1 = clock()
            text = C.dumps(cert)
            back = C.loads(text)
            t2 = clock()
            result = C.verify(back)
            t3 = clock()
            return {"certify_s": t1 - t0, "verify_s": t3 - t2}, (cert, text, result)

        def check(out, n=n, q=q, key=key):
            cert, text, result = out
            probs = cert_problems(n, q, cert) + wl.same_bytes(key, text)
            if not result.ok:
                probs.append(f"verify rejected: {result.failed_claim}")
            return probs

        wl.ops.append(Op(key, run, check))
    return wl


def _render_pair(pair) -> str:
    rows = [" ".join(map(str, r)) for m in (pair.x, pair.y) for r in m.rows]
    return "\n".join([f"{pair.n} {pair.q} {pair.tag} {pair.Q}"] + rows) + "\n"


def _sweep(C, K, seed: int, pairs) -> Workload:
    wl = Workload("gen-sweep", digest_label="pair_sha256")
    for n, q in pairs:
        key = f"({n}, {q})"

        def run(n=n, q=q):
            t0 = clock()
            pair = K.build(n, q)
            return {"build_s": clock() - t0}, pair

        def check(pair, n=n, q=q, key=key):
            probs = wl.same_bytes(key, _render_pair(pair))
            if pair.tag != coverage_tag(n, q):
                probs.append(f"tag {pair.tag}, the table says {coverage_tag(n, q)}")
            if pair.Q != paper_order(n, q):
                probs.append(f"Q is {pair.Q}, the table says {paper_order(n, q)}")
            x, y = pair.x, pair.y
            if x.is_identity or not (x * x).is_identity:
                probs.append("x does not have order 2")
            if y.is_identity or not (y * y * y).is_identity:
                probs.append("y does not have order 3")
            return probs

        wl.ops.append(Op(key, run, check))
    return wl


def _verify_corpus(C, K, seed: int, pairs) -> Workload:
    """Certify the corpus here, in set-up; the operations only verify."""
    wl = Workload("verify-primes")
    rng = random.Random(seed)
    for n, q in pairs:
        cert = C.certify(n, q, seed)
        good = wl.outputs[f"({n}, {q})"] = C.dumps(cert)
        cases = [("valid", good)] + [
            (name, C.dumps(tamper(copy.deepcopy(cert), rng)))
            for name, tamper in TAMPERS.items()
        ]
        for case, text in cases:
            key = f"({n}, {q}) {case}"

            def run(text=text):
                back = C.loads(text)
                t0 = clock()
                result = C.verify(back)
                return {"verify_s": clock() - t0}, result

            if case == "valid":
                def check(result, n=n, q=q, cert=cert):
                    probs = cert_problems(n, q, cert)
                    if not result.ok:
                        probs.append(f"verify rejected: {result.failed_claim}")
                    return probs
            else:
                check = rejected_problems

            wl.ops.append(Op(key, run, check))
    return wl


WORKLOADS = {
    "acceptance27": (_acceptance, ACCEPTANCE_PAIRS),
    "gen-sweep": (
        _sweep,
        # largest q first: a partial last pass then re-times the builds
        # that dominate the sum
        [(n, q) for q in reversed(prime_powers(SWEEP_Q_MAX)) for n in (11, 10, 9)],
    ),
    "verify-primes": (
        _verify_corpus,
        [(n, q) for n in (9, 10, 11) for q in CORPUS_PRIMES],
    ),
}


def make(name: str, seed: int, C, K, pairs: Optional[list] = None) -> Workload:
    """Build workload `name` from sl23's certify (C) and construct (K)
    modules.  `pairs` restricts it to a subset of its (n, q) list."""
    make_ops, default = WORKLOADS[name]
    return make_ops(C, K, seed, default if pairs is None else pairs)
