"""sl23 benchmark: one single-threaded, closed-loop client timing sl23's
public functions from outside.

    python3 perfbench/run.py --workload acceptance27 --seed 1 --seconds 30 --trace 0

Run from the repository root (the checkout must hold src/sl23).  Before
every operation the lru_caches a fresh process starts without are reset,
so each operation pays what one `sl23 certify` / `verify` / `gen` pays.
The run repeats whole passes over the workload until --seconds have gone
(at least one pass).  A fixed pure-Python reference workload is timed
just before and just after every operation, and the gated times are in
units of it (`ref`): on a shared machine the speed of the whole host
drifts by a third within seconds, and the ratio cancels most of that.  Each operation
counts with the median of its ratios over the passes; the run reports the
sum and the median over operations, plus the same in seconds.

--trace 0 prints the end-to-end metrics.  --trace 1 spends half of
--seconds on untraced passes, then makes one pass with a span recorded at
every layer entry point, and prints the per-layer metrics.  Human-readable
lines come first; the last line of stdout is one JSON object.  Exit code 2,
with no JSON line, when sl23 cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter as clock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SRC = HERE.parent / "src"
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 1.0  # cheap set-ups repeat more
# The reference workload: 9-12 ms on a 2-core x86-64 VM, about half in each
# part.
REFERENCE_LOOP_ROUNDS = 50_000
REFERENCE_PRODUCTS = 10
REFERENCE_P = 9973
REFERENCE_MATRIX = [[(7 * i + 13 * j + 1) % REFERENCE_P for j in range(16)]
                    for i in range(16)]

# The metrics of the final JSON line, as BENCHMARK.json lists them.
END_TO_END = ("setup_s", "wall_ref", "op_p50_ref", "peak_rss_mb")
PER_LAYER = (
    "trace.overhead_s",
    "trace.cover_pct",
    "matrix.order.pct",
    "matrix.order.self_pct",
    "matrix.order.calls",
    "matrix.order.mul_per_call",
    "matrix.mul.calls",
    "matrix.mul.pct.prime",
    "matrix.mul.pct.char2",
    "matrix.mul.pct.oddext",
    "matrix.charpoly.pct",
    "matrix.charpoly.calls",
    "ff.make_field.s",
    "ff.make_field.calls",
    "ff.element_of_order.pct",
    "ff.embed.pct",
    "poly.minimal_polynomial.pct",
    "arith.factor.s",
    "arith.factor.calls",
    "construct.build.pct",
    "meataxe.is_irreducible_module.pct",
    "meataxe.attempts_per_call",
    "meataxe.scan_lines.pct",
    "poly.is_irreducible.pct",
    "certify.q_divisibility_scan.pct",
    "certify.certify.self_pct",
    "certify.verify.self_pct",
)


def load_sl23():
    """Import sl23 afresh; return its certify and construct modules."""
    for name in [n for n in sys.modules if n == "sl23" or n.startswith("sl23.")]:
        del sys.modules[name]
    importlib.import_module("sl23")
    return sys.modules["sl23.certify"], sys.modules["sl23.construct"]


def set_up(name: str, seed: int, pairs=None):
    """(seconds, workload): import plus input generation, timed."""
    gc.collect()
    t0 = clock()
    C, K = load_sl23()
    wl = workloads.make(name, seed, C, K, pairs)
    return clock() - t0, wl


def reference_loop() -> float:
    """Seconds for a fixed pure-Python workload: one `ref`, the time unit
    of the gated metrics.  It is an integer loop plus 16 x 16 matrix
    products mod a prime.  As the host slowed, sl23 slowed more than the
    loop alone and, on verify-primes and gen-sweep, less than the products
    alone; the two together tracked it best on all three workloads.  A
    loop over a large list, bound by memory, tracked it worse."""
    t0 = clock()
    s = 0
    for i in range(REFERENCE_LOOP_ROUNDS):
        s += i * i % 7
    a = REFERENCE_MATRIX
    cols = list(zip(*a))
    for _ in range(REFERENCE_PRODUCTS):
        [[sum(x * y for x, y in zip(row, col)) % REFERENCE_P for col in cols]
         for row in a]
    return clock() - t0


@dataclass
class Tally:
    walls: dict = field(default_factory=dict)  # op key -> [seconds]
    refs: dict = field(default_factory=dict)  # op key -> [reference seconds]
    stages: dict = field(default_factory=dict)  # op key -> {stage: [seconds]}
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, key, wall, ref, stages, probs):
        self.attempted += 1
        if wall is not None:
            self.walls.setdefault(key, []).append(wall)
            self.refs.setdefault(key, []).append(ref)
            per = self.stages.setdefault(key, {})
            for stage, s in stages.items():
                per.setdefault(stage, []).append(s)
        if probs:
            self.failed += 1
            self.problems += [f"{key}: {p}" for p in probs]

    def best(self) -> dict:
        return {k: min(v) for k, v in self.walls.items()}

    def in_refs(self) -> dict:
        """Per operation, the median over its runs of seconds / ref."""
        return {k: statistics.median(w / r for w, r in zip(v, self.refs[k]))
                for k, v in self.walls.items()}

    def stage_sums(self) -> dict:
        sums: dict = {}
        for per in self.stages.values():
            for stage, v in per.items():
                sums[stage] = sums.get(stage, 0.0) + min(v)
        return sums


def run_op(op, tally: Tally, notes: set, tracer=None) -> None:
    notes.update(spans.reset_caches())
    gc.collect()  # free what the last operation dropped, outside the timing
    ref_before = reference_loop()
    if tracer:
        tracer.recording = True
    t0 = clock()
    try:
        stages, out = op.run()
    except Exception:  # a crashing operation is a failed one; keep going
        tally.record(op.key, None, None, {}, [traceback.format_exc(limit=3)])
        return
    finally:
        if tracer:
            tracer.recording = False
    wall = clock() - t0
    ref = (ref_before + reference_loop()) / 2
    tally.record(op.key, wall, ref, stages, op.check(out))


def run_for(wl, budget_s: float, tally: Tally, notes: set, tracer=None) -> None:
    """Whole passes over wl.ops until budget_s is spent; at least one."""
    end = clock() + budget_s
    passes = 0
    while True:
        for op in wl.ops:
            if passes and clock() >= end:
                return
            run_op(op, tally, notes, tracer)
        passes += 1
        if clock() >= end:
            return


def environment() -> str:
    return (f"python={platform.python_version()} "
            f"nproc={len(os.sched_getaffinity(0))} "
            f"platform={platform.platform()}")


def end_to_end(setup_s: float, tally: Tally) -> dict:
    best, rel = tally.best(), tally.in_refs()
    slowest = max(rel, key=rel.get)
    out = {
        "setup_s": (setup_s, "s"),
        "wall_ref": (sum(rel.values()), "ref"),
        "op_p50_ref": (statistics.median(rel.values()), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MiB"),
        "ref_s": (statistics.median(r for v in tally.refs.values() for r in v),
                  "s"),
        "wall_s": (sum(best.values()), "s"),
        "op_p50_s": (statistics.median(best.values()), "s"),
    }
    out.update((stage, (s, "s")) for stage, s in sorted(tally.stage_sums().items()))
    out["fail_ratio"] = (tally.failed / tally.attempted, "ratio")
    print(f"info op_p50 over {len(rel)} operations ({tally.attempted} runs); "
          f"slowest {slowest} {rel[slowest]:.1f} ref, best {best[slowest]:.4f} s")
    return out


def main(argv=None, pairs=None) -> int:
    """CLI entry point; `pairs` restricts the workload to those (n, q)."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "sl23" / "__init__.py").is_file():
        print(f"no sl23 package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    seed = args.seed % 2**32  # certificates carry the seed as a decimal string
    times = []
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS:
        elapsed, wl = set_up(args.workload, seed, pairs)
        times.append(elapsed)
    setup_s = min(times)  # fastest, like the operations: see README.md
    print(f"# workload={wl.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} operations={len(wl.ops)}")
    print(f"# env {environment()}")

    notes: set = set()
    tally = Tally()
    if args.trace:
        run_for(wl, args.seconds / 2, tally, notes)
        untraced = sum(tally.best().values())
        tracer, traced = spans.Tracer(), Tally()
        with spans.Installed(tracer) as hooks:
            run_for(wl, 0, traced, notes, tracer)
        notes.update(f"entry point {h} not found; its metrics are absent"
                     for h in hooks.missing)
        tally.attempted += traced.attempted
        tally.failed += traced.failed
        tally.problems += traced.problems
        metrics = spans.layer_metrics(tracer, hooks.missing,
                                      sum(traced.best().values()), untraced)
        selected = PER_LAYER
    else:
        run_for(wl, args.seconds, tally, notes)
        metrics = end_to_end(setup_s, tally)
        selected = END_TO_END

    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(f"info {wl.digest_label} {wl.digest()} ({len(wl.outputs)} outputs)")
    for note in sorted(notes):
        print(f"note {note}")
    for problem in tally.problems[:20]:
        print(f"FAIL {problem}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in selected if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
