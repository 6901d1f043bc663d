"""Arithmetic of the wall-clock benchmark, kept free of I/O so that
test_stats.py can check it on synthetic inputs.

- Percentiles: the median, and the tail percentile rule (the highest
  percentile of a fixed ladder that has at least ten samples beyond it).
- Throughput slice by slice, so a run can report the median over its
  measurement cycles.
- Open-loop latency, timed from each request's due time.
- Self time over a Chrome/Perfetto trace: a span's duration minus the part
  of it that its child spans cover, summed per unit of work (a training
  step, a 1.5D step on one rank, or one served batch).
"""

import json
import math
import statistics

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0)
MIN_BEYOND = 10

# Spans whose self time is named work: every kernel and collective span,
# plus the stand-alone calls and stages below. The self time of any other
# span (bench.step, model.backward, a dist layer phase, serve.forward ...)
# is time spent inside a container that no span names: unattributed.
NAMED_CATEGORIES = ("kernel", "collective")
NAMED_SPANS = frozenset(
    {"bench.loss", "bench.optimizer", "serve.sample", "serve.gather", "serve.reply"}
)


def nearest_rank(sorted_values, q):
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it. Returns (value, samples strictly beyond its rank)."""
    n = len(sorted_values)
    rank = max(1, math.ceil(q / 100.0 * n))
    return sorted_values[rank - 1], n - rank


def tail(values):
    """The highest ladder percentile with at least MIN_BEYOND samples beyond
    it. Returns (percentile, value, samples beyond, sample count). With too
    few samples for any rung it falls back to the median and says so through
    the beyond count."""
    s = sorted(values)
    best = None
    for q in TAIL_LADDER:
        value, beyond = nearest_rank(s, q)
        if beyond >= MIN_BEYOND or best is None:
            best = (q, value, beyond, len(s))
    return best


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def slice_rates(counts, seconds):
    """Rate of each slice of a run: count / seconds, slice by slice. Slices
    that took no time are left out."""
    return [c / t for c, t in zip(counts, seconds) if t > 0]


def split(values, sizes):
    """Cut `values` into consecutive runs of the given sizes."""
    out, start = [], 0
    for size in sizes:
        out.append(values[start:start + int(size)])
        start += int(size)
    if start != len(values):
        raise ValueError(f"slice sizes cover {start} of {len(values)} samples")
    return out


def due_time_latencies(due_ms, sent_ms, service_ms):
    """Open-loop latency of each request from when it was due: how late the
    generator sent it plus the server's enqueue-to-reply time. A late
    generator therefore charges its stall to every request it delayed."""
    return [(s - d) + v for d, s, v in zip(due_ms, sent_ms, service_ms)]


class TraceError(ValueError):
    """The trace cannot be attributed: it is not in the tracer's layout or
    its B/E events do not balance."""


def read_trace(path):
    """Yield the events of a Chrome/Perfetto JSON trace one at a time.

    obs::Tracer writes "[" on the first line and then one event per line, so
    a long trace streams through without holding every event in memory."""
    with open(path) as f:
        if f.readline().strip() != "[":
            raise TraceError(f"{path}: not in the layout obs::Tracer writes")
        for line in f:
            line = line.strip().rstrip(",")
            if line.startswith("{"):
                yield json.loads(line)


class Span:
    """One closed span; times in ms. `top` is the index of its depth-0
    ancestor (itself at depth 0); `in_kernel` marks a kernel called inside
    another kernel (a fused kernel calling an instrumented one), whose bytes
    the outer call already counts."""

    __slots__ = ("name", "cat", "tid", "begin", "end", "bytes", "depth", "top",
                 "in_kernel", "self", "child")

    def __init__(self, name, cat, tid, begin, nbytes, depth, top, in_kernel):
        self.name, self.cat, self.tid, self.begin = name, cat, tid, begin
        self.end, self.bytes, self.depth, self.top = None, nbytes, depth, top
        self.in_kernel, self.self, self.child = in_kernel, 0.0, 0.0


def spans_from_events(events):
    """Pair B/E events into spans with self times.

    Events are taken in file order. obs::Tracer writes each recording
    thread's events contiguously, so one stack per track is exact even when
    several threads outside any rank share one track."""
    spans = []
    stacks = {}
    for e in events:
        ph = e.get("ph")
        if ph not in ("B", "E"):
            continue
        stack = stacks.setdefault(e["tid"], [])
        ts = float(e["ts"]) / 1000.0
        if ph == "B":
            idx = len(spans)
            parent = spans[stack[-1]] if stack else None
            in_kernel = parent is not None and (parent.cat == "kernel" or parent.in_kernel)
            spans.append(Span(e["name"], e.get("cat", ""), e["tid"], ts,
                              (e.get("args") or {}).get("bytes", 0), len(stack),
                              stack[0] if stack else idx, in_kernel))
            stack.append(idx)
        else:
            if not stack or spans[stack[-1]].name != e["name"]:
                raise TraceError(f"unmatched end of {e['name']!r} on track {e['tid']}")
            span = spans[stack.pop()]
            span.end = ts
            if stack:
                spans[stack[-1]].child += ts - span.begin
    open_spans = [spans[i].name for st in stacks.values() for i in st]
    if open_spans:
        raise TraceError(f"spans never ended: {open_spans[:5]}")
    for span in spans:
        span.self = (span.end - span.begin) - span.child
    return spans


def is_named(span):
    return span.cat in NAMED_CATEGORIES or span.name in NAMED_SPANS


def units(spans, first, last):
    """Units of work: runs of top-level spans on one track that start with a
    span called `first` and end with one called `last` (the same span when
    first == last). Returns a list of (wall_ms, set of top-level indices)."""
    out = []
    current = None
    for i, span in enumerate(spans):
        if span.depth != 0:
            continue
        if span.name == first:
            current = (span.tid, span.begin, {i})
        elif current is not None and span.tid == current[0]:
            current[2].add(i)
        if current is not None and span.name == last and span.tid == current[0]:
            out.append((span.end - current[1], current[2]))
            current = None
    return out


def attribute(spans, first, last):
    """Self-time accounting over the units of work.

    Returns a dict with the unit count, the summed unit wall, per span name
    its calls and summed self time (ms), the named self time, the top-level
    kernel calls and bytes, and the unattributed time: unit wall minus the
    named self time (container self time plus gaps between spans)."""
    found = units(spans, first, last)
    members = set().union(*(tops for _, tops in found))
    by_name = {}
    named = 0.0
    kernel_calls = 0
    kernel_bytes = 0
    for span in spans:
        if span.top not in members:
            continue
        row = by_name.setdefault(span.name, {"calls": 0, "self_ms": 0.0,
                                             "cat": span.cat, "named": is_named(span)})
        row["calls"] += 1
        row["self_ms"] += span.self
        if is_named(span):
            named += span.self
        if span.cat == "kernel" and not span.in_kernel:
            kernel_calls += 1
            kernel_bytes += span.bytes
    wall = sum(w for w, _ in found)
    return {
        "units": len(found),
        "wall_ms": wall,
        "named_ms": named,
        "unattributed_ms": wall - named,
        "by_name": by_name,
        "kernel_calls": kernel_calls,
        "kernel_bytes": kernel_bytes,
    }
