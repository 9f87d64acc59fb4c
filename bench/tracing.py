"""Span tracing of the unravel layers from outside the package.

A traced run installs wrappers around each layer's entry points (see
``ENTRY_POINTS``); every call records a span with its layer, start, end and
the span that caused it. The wrappers replace the original function wherever
an ``unravel`` module holds a reference to it, so names re-bound by
``from .rng import trajectory_uniforms`` are traced too, and ``remove()``
puts every original back. The untraced path never installs anything.

Spans stay in memory until the run ends. A span's self time is its duration
minus the part of that interval its child spans cover; children started on a
worker thread of the engine's pool count as children of the span that was
open on the thread that installed the tracer, so overlapping children are
merged, not summed. With two pool threads a chunk's duration includes its
waits for the GIL, so the self times of a threaded run add up to more than
its wall time; ``engine.parallelism`` uses the chunks' thread CPU time.
"""

from __future__ import annotations

import functools
import gzip
import sys
import threading
import time

# (module, attribute or Class.method, span kind) for every layer entry point on
# a benchmark path. The layer is the module.
# "runner" marks a chunk runner: a runner nested inside another runner (the
# tripled chunk steps the embedded system with mcwf's runner) belongs to the
# method the engine dispatched to.
ENTRY_POINTS = (
    ("master_equation", "MasterEquation.at", "span"),
    ("master_equation", "MasterEquation._evaluate", "span"),
    ("master_equation", "lindblad_apply", "span"),
    ("propagate", "propagate", "span"),
    ("propagate", "rk4_step", "span"),
    ("divisibility", "divisibility_scan", "span"),
    ("engine", "run_ensemble", "span"),
    ("engine", "error_vs_oracle", "span"),
    ("engine", "observable_series", "span"),
    ("rng", "trajectory_uniforms", "span"),
    ("rng", "trajectory_generator", "span"),
    ("rng", "replica_generator", "span"),
    ("linalg", "trace_distance", "span"),
    ("linalg", "eigh_batched", "span"),
    ("linalg", "psd_sqrt", "span"),
    ("linalg", "complement_batch", "span"),
    ("linalg", "weighted_outer_sum", "span"),
    ("rate_operators", "w_spectrum_batch", "span"),
    ("rate_operators", "w_drift_step", "span"),
    ("tripled", "tripled_embed", "span"),
    ("tripled", "tripled_extract", "span"),
    ("mcwf", "run_chunk", "runner"),
    ("wtd", "run_chunk", "runner"),
    ("roqj", "run_chunk", "runner"),
    ("doubled", "run_chunk", "runner"),
    ("tripled", "run_chunk", "runner"),
    ("weighted", "run_chunk_im", "runner"),
    ("nmqj", "run_replica", "runner"),
    ("cloning", "run_replica", "runner"),
    ("cli", "main", "span"),
    ("cli", "run_command", "span"),
    ("cli", "divisibility_command", "span"),
)

# Layers that get a self-time metric. ``opd`` runs on no benchmark path and
# ``models`` only in set-up, so neither is traced.
LAYERS = (
    "master_equation",
    "mcwf",
    "roqj",
    "rate_operators",
    "weighted",
    "doubled",
    "tripled",
    "wtd",
    "nmqj",
    "cloning",
    "rng",
    "engine",
    "linalg",
    "propagate",
    "divisibility",
    "cli",
)


class Span:
    __slots__ = ("layer", "name", "start", "end", "parent", "runner", "size", "cpu")

    def __init__(self, layer, name, start, parent=None, runner=False, end=None):
        self.layer = layer
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.runner = runner
        self.size = 0  # bytes or items produced, where the wrapper knows it
        self.cpu = 0.0  # CPU time of the running thread; recorded for runners only


class Tracer:
    """Collects spans from every thread; the installing thread is the root."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._local = threading.local()
        self._root_stack: list[Span] = []
        self._local.stack = self._root_stack

    def _stack(self) -> list[Span]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def begin(self, layer: str, name: str, runner: bool = False) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:  # a pool thread: its caller is whatever the root thread has open
            root = self._root_stack
            parent = root[-1] if root else None
        span = Span(layer, name, self.clock(), parent, runner)
        stack.append(span)
        self.spans.append(span)  # list.append is atomic under the GIL
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        self._stack().pop()


def _sized(result) -> int:
    nbytes = getattr(result, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    return len(result) if isinstance(result, list) else 0


def _wrapper(tracer: Tracer, layer: str, name: str, fn, runner: bool):
    if runner:
        # a chunk's wall time on a pool thread includes waiting for the GIL;
        # its thread CPU time is the work it actually got done
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(layer, name, True)
            cpu0 = time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                span.cpu = time.thread_time() - cpu0
                tracer.end(span)
    else:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            span.size = _sized(result)
            return result

    traced.__bench_traced__ = True
    return traced


def _unravel_namespaces():
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and (mod_name == "unravel" or mod_name.startswith("unravel.")):
            yield mod


class Installed:
    """Handle on installed wrappers; ``remove()`` restores every original."""

    def __init__(self):
        self.patches: list[tuple[object, str, object]] = []

    def remove(self) -> None:
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> Installed:
    """Wrap every entry point of the already-imported ``unravel`` modules."""
    handle = Installed()
    try:
        for mod_short, qualname, kind in ENTRY_POINTS:
            module = sys.modules.get(f"unravel.{mod_short}")
            if module is None:  # not imported (the CLI), so nothing can call it
                continue
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, _wrapper(tracer, mod_short, qualname, original, False))
                handle.patches.append((owner, attr, original))
                continue
            original = getattr(module, qualname)
            traced = _wrapper(tracer, mod_short, qualname, original, kind == "runner")
            for ns in _unravel_namespaces():
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, traced)
                        handle.patches.append((ns, attr, original))
    except BaseException:
        handle.remove()
        raise
    return handle


def leftover_wrappers() -> list[str]:
    """Names in ``unravel`` that still hold a traced wrapper (should be none)."""
    found = []
    for ns in _unravel_namespaces():
        for attr, value in vars(ns).items():
            if getattr(value, "__bench_traced__", False):
                found.append(f"{ns.__name__}.{attr}")
            elif isinstance(value, type):
                for m_name, m_val in vars(value).items():
                    if getattr(m_val, "__bench_traced__", False):
                        found.append(f"{ns.__name__}.{attr}.{m_name}")
    return found


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """id(span) -> duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    out = {}
    for s in spans:
        kids = children.get(id(s), ())
        cover = _covered([(max(c.start, s.start), min(c.end, s.end)) for c in kids])
        out[id(s)] = (s.end - s.start) - cover
    return out


def effective_layer(span: Span) -> str:
    """A runner inside another runner belongs to the outermost runner's method."""
    if not span.runner:
        return span.layer
    layer = span.layer
    p = span.parent
    while p is not None:
        if p.runner:
            layer = p.layer
        p = p.parent
    return layer


def _is_chunk(span: Span) -> bool:
    return span.runner and span.parent is not None and span.parent.name == "run_ensemble"


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Summed self time of each layer in ``LAYERS``."""
    selfs = self_times(spans)
    out = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        out[effective_layer(s)] += selfs[id(s)]
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass."""
    out = {f"{layer}.self_s": t for layer, t in layer_self_times(spans).items()}
    counts: dict[str, int] = {}
    sizes: dict[str, int] = {}
    for s in spans:
        counts[s.name] = counts.get(s.name, 0) + 1
        sizes[s.name] = sizes.get(s.name, 0) + s.size
    at_calls = counts.get("MasterEquation.at", 0)
    evaluations = counts.get("MasterEquation._evaluate", 0)
    out["master_equation.at_calls"] = at_calls
    out["master_equation.evaluations"] = evaluations
    out["master_equation.memo_hit_ratio"] = 1.0 - evaluations / at_calls if at_calls else 0.0
    out["rng.streams"] = counts.get("trajectory_generator", 0) + counts.get("replica_generator", 0)
    out["rng.uniform_bytes"] = sizes.get("trajectory_uniforms", 0)
    out["linalg.trace_distance_calls"] = counts.get("trace_distance", 0)
    out["divisibility.points"] = sizes.get("divisibility_scan", 0)

    chunks = [s for s in spans if _is_chunk(s)]
    out["engine.chunks"] = len(chunks)
    sections: dict[int, list[Span]] = {}
    for c in chunks:
        sections.setdefault(id(c.parent), []).append(c)
    busy = sum(c.cpu for c in chunks)
    wall = sum(max(c.end for c in cs) - min(c.start for c in cs) for cs in sections.values())
    out["engine.parallelism"] = busy / wall if wall > 0 else 0.0
    return out


def write_spans(path, spans: list[Span]) -> None:
    """One line per span: index, parent index, layer, name, start, end (s)."""
    index = {id(s): i for i, s in enumerate(spans)}
    t0 = min((s.start for s in spans), default=0.0)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("index,parent,layer,name,start_s,end_s\n")
        for i, s in enumerate(spans):
            parent = index.get(id(s.parent), -1) if s.parent is not None else -1
            fh.write(
                f"{i},{parent},{effective_layer(s)},{s.name},"
                f"{s.start - t0:.9f},{s.end - t0:.9f}\n"
            )
