"""Outside-in tracing for the benchmark: name-resolved hooks on sl23's
layer entry points, an in-memory span recorder, and cache resets.

Every entry point is named by a dotted string and resolved at run time,
so a refactor that moves or renames one makes its metrics absent (with a
note) instead of crashing the run or reading as zero.  A wrapper replaces
the original in every sl23 module namespace that holds it, since modules
import names directly (certify does `from .meataxe import scan_lines`).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

# lru_caches a fresh `sl23 certify` / `verify` / `gen` process starts
# without; reset before every operation.
CACHED = (
    "sl23.construct:build",
    "sl23.construct:build_generic",
    "sl23.construct:build_special",
    "sl23.construct:build_sl11",
    "sl23.ff:make_field",
)


FIELD_KINDS = ("prime", "char2", "oddext")


def field_kind(f) -> str:
    """prime, char2 or oddext: the three arithmetic paths of sl23.ff."""
    if f.k == 1:
        return "prime"
    return "char2" if f.p == 2 else "oddext"


@dataclass(frozen=True)
class Hook:
    """A layer entry point: span name and "module:attr.path".

    With `by_field_kind`, the entry point is a Mat method and each span is
    named `<name>.<kind>` after the field kind of the matrix it is called on.
    """

    name: str
    target: str
    by_field_kind: bool = False


HOOKS = (
    Hook("construct.build", "sl23.construct:build"),
    Hook("ff.make_field", "sl23.ff:make_field"),
    Hook("ff.element_of_order", "sl23.ff:element_of_order"),
    Hook("ff.embed", "sl23.ff:embed"),
    Hook("poly.minimal_polynomial", "sl23.poly:minimal_polynomial"),
    Hook("poly.is_irreducible", "sl23.poly:is_irreducible"),
    Hook("arith.factor", "sl23.arith:factor"),
    Hook("matrix.order", "sl23.matrix:Mat.order"),
    Hook("matrix.mul", "sl23.matrix:Mat.__mul__", by_field_kind=True),
    Hook("matrix.charpoly", "sl23.matrix:Mat.charpoly"),
    Hook("matrix.det", "sl23.matrix:Mat.det"),
    Hook("meataxe.is_irreducible_module", "sl23.meataxe:is_irreducible_module"),
    Hook("meataxe.scan_lines", "sl23.meataxe:scan_lines"),
    Hook("certify.q_divisibility_scan", "sl23.certify:q_divisibility_scan"),
    Hook("certify.certify", "sl23.certify:certify"),
    Hook("certify.verify", "sl23.certify:verify"),
)


def resolve(target: str):
    """(owner, attribute name, object) for "module:a.b", or None if any
    part of the path is missing."""
    mod_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = getattr(owner, attr, None)
    return None if obj is None else (owner, attr, obj)


def reset_caches(targets=CACHED) -> list[str]:
    """Clear each named lru_cache; return a note per target that is gone."""
    notes = []
    for target in targets:
        found = resolve(target)
        fn = found[2] if found else None
        while fn is not None and not hasattr(fn, "cache_clear"):
            fn = getattr(fn, "__wrapped__", None)  # under an installed hook
        clear = getattr(fn, "cache_clear", None)
        if clear:
            clear()
        else:
            notes.append(f"no cache to reset at {target}")
    return notes


@dataclass
class Tracer:
    """Spans kept in parallel lists; parent is an index or -1 for a root.

    Wrappers record only while `recording` is set, so oracle checks that
    run between operations with hooks installed leave no spans.
    """

    names: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    ends: list = field(default_factory=list)
    parents: list = field(default_factory=list)
    recording: bool = False
    _stack: list = field(default_factory=list)

    def wrap(self, hook: Hook, fn):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)
        name, by_kind = hook.name, hook.by_field_kind
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            i = len(names)
            names.append(f"{name}.{field_kind(args[0].field)}" if by_kind else name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced


class Installed:
    """Context manager: wrap every resolvable hook, restore on exit.

    `missing` lists the hook names whose entry point was not found.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        for hook in HOOKS:
            found = resolve(hook.target)
            if found is None:
                self.missing.append(hook.name)
                continue
            owner, attr, orig = found
            wrapped = self.tracer.wrap(hook, orig)
            holders = [owner]
            if not isinstance(owner, type):
                holders += [
                    m for n, m in list(sys.modules.items())
                    if (n == "sl23" or n.startswith("sl23.")) and m is not owner
                ]
            for holder in holders:
                for key, val in list(vars(holder).items()):
                    if val is orig:
                        self._undo.append((holder, key, orig))
                        setattr(holder, key, wrapped)
        return self

    def __exit__(self, *exc):
        for holder, key, orig in reversed(self._undo):
            setattr(holder, key, orig)
        self._undo.clear()
        return False


@dataclass
class Layer:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def summarize(tracer: Tracer) -> dict[str, Layer]:
    """Calls, inclusive time and self time per span name.

    Self time is a span's duration minus the durations of its children;
    children of one span never overlap in this single-threaded program.
    """
    durs = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    child = [0.0] * len(durs)
    for i, p in enumerate(tracer.parents):
        if p >= 0:
            child[p] += durs[i]
    layers: dict[str, Layer] = {}
    for name, d, c in zip(tracer.names, durs, child):
        layer = layers.setdefault(name, Layer())
        layer.calls += 1
        layer.total_s += d
        layer.self_s += d - c
    return layers


def nested_count(tracer: Tracer, outer: str, inner: str) -> int:
    """Number of `inner` spans (or `inner.<kind>`) that have an `outer`
    span as an ancestor."""
    names, parents = tracer.names, tracer.parents
    under = [False] * len(names)
    count = 0
    for i, p in enumerate(parents):  # parents always precede children
        under[i] = p >= 0 and (under[p] or names[p] == outer)
        if under[i] and (names[i] == inner or names[i].startswith(inner + ".")):
            count += 1
    return count


def root_cover(tracer: Tracer) -> tuple[float, float]:
    """(total root-span time, the part of it under child spans)."""
    durs = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    total = sum(d for d, p in zip(durs, tracer.parents) if p < 0)
    covered = sum(d for d, p in zip(durs, tracer.parents)
                  if p >= 0 and tracer.parents[p] < 0)
    return total, covered


def layer_metrics(tracer: Tracer, missing, traced_wall: float,
                  untraced_wall: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit).

    Shares (`.pct`) are of the time inside root spans, the entry points
    the workload's operations call.  A hook in `missing` contributes no
    metric at all, so a moved entry point never reads as zero.
    """
    layers = summarize(tracer)
    entry_s, covered_s = root_cover(tracer)

    def pct(v):
        return 100.0 * v / entry_s if entry_s else 0.0

    out = {
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.entry_pct": (100.0 * entry_s / traced_wall, "%"),
        "trace.cover_pct": (pct(covered_s), "%"),
    }
    for hook in HOOKS:
        if hook.name in missing:
            continue
        kinds = FIELD_KINDS if hook.by_field_kind else ()
        parts = {k: layers.get(f"{hook.name}.{k}", Layer()) for k in kinds}
        for kind, part in parts.items():
            out[f"{hook.name}.s.{kind}"] = (part.total_s, "s")
            out[f"{hook.name}.pct.{kind}"] = (pct(part.total_s), "%")
        whole = layers.get(hook.name, Layer())
        for part in parts.values():
            whole = Layer(whole.calls + part.calls, whole.total_s + part.total_s,
                          whole.self_s + part.self_s)
        out[f"{hook.name}.calls"] = (whole.calls, "count")
        out[f"{hook.name}.s"] = (whole.total_s, "s")
        out[f"{hook.name}.self_s"] = (whole.self_s, "s")
        out[f"{hook.name}.pct"] = (pct(whole.total_s), "%")
        out[f"{hook.name}.self_pct"] = (pct(whole.self_s), "%")
    for name, outer, inner in (
        ("matrix.order.mul_per_call", "matrix.order", "matrix.mul"),
        ("meataxe.attempts_per_call", "meataxe.is_irreducible_module",
         "matrix.charpoly"),
    ):
        if outer in missing or inner in missing:
            continue
        calls = out[f"{outer}.calls"][0]
        nested = nested_count(tracer, outer, inner)
        out[name] = (nested / calls if calls else 0.0, "count")
    return out
