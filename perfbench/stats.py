"""Summarise twbench's raw samples into the benchmark's metrics.

Pure functions over plain data, so the arithmetic is testable on
synthetic inputs (test_stats.py):

- span self time: a span's duration minus the part of it that its
  direct children on the same thread cover, overlapping children
  counted once; unclosed spans (no duration) are rejected;
- the tail rule: the highest percentile with at least ten samples
  beyond it, reported with that percentile and the sample count;
- failure accounting: failed operations over attempted ones.
"""

import bisect
import json
import statistics

# Every end-to-end metric, in BENCHMARK.json order: (name, unit).
END_TO_END = [
    ("setup_s", "s"),
    ("grid_wall_s", "s"),
    ("sim_mrefs_per_s", "Mref/s"),
    ("cold_rows_per_s", "rows/s"),
    ("cold_p50_ms", "ms"),
    ("warm_rows_per_s", "rows/s"),
    ("warm_p50_ms", "ms"),
    ("warm_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

# Every per-layer metric: (name, unit).
PER_LAYER = [
    ("workload.gen_ns_per_ref", "ns/ref"),
    ("os.baseline_ns_per_ref", "ns/ref"),
    ("os.refs_chunked", "count"),
    ("os.refs_filtered", "count"),
    ("os.refs_observed", "count"),
    ("os.utlb_miss_ratio", "ratio"),
    ("machine.probe_skip_ratio", "ratio"),
    ("machine.simd_wide_share", "ratio"),
    ("mem.flushes", "count"),
    ("mem.flush_s", "s"),
    ("core.tw_ns_per_ref", "ns/ref"),
    ("core.twd_ns_per_ref", "ns/ref"),
    ("core.traps.fetch", "count"),
    ("core.traps.load", "count"),
    ("core.traps.store", "count"),
    ("core.traps.set", "count"),
    ("core.handler_ns_per_trap", "ns/trap"),
    ("cost.events", "count"),
    ("cost.cycles", "count"),
    ("trace.c2k_ns_per_ref", "ns/ref"),
    ("harness.grid_s", "s"),
    ("harness.specio_us_per_job", "us/job"),
    ("harness.row_us_per_row", "us/row"),
    ("harness.baseline_hit_ratio", "ratio"),
    ("harness.dispatch_idle_share", "ratio"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.rows_per_flush", "rows/flush"),
    ("serve.rejected", "count"),
    ("shard.router_hop_ms", "ms"),
    ("shard.rows_merged", "count"),
    ("shard.rows_buffered_share", "ratio"),
    ("unattributed_s", "s"),
    ("trace_overhead_frac", "ratio"),
]

TAIL_BEYOND = 10


def median(xs):
    xs = list(xs)
    if not xs:
        raise ValueError("median of no samples")
    return statistics.median(xs)


def ratio(num, den):
    """num / den, or 0 when the layer saw no work (den == 0)."""
    return num / den if den else 0.0


# ----------------------------------------------------------------------
# Tail percentile.


def tail(samples, beyond=TAIL_BEYOND):
    """The highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, n, samples_beyond), or None when no
    sample has that many strictly larger samples after it.
    """
    s = sorted(samples)
    n = len(s)
    for i in range(n - 1 - beyond, -1, -1):
        v = s[i]
        k = n - bisect.bisect_right(s, v)
        if k >= beyond:
            return v, 100.0 * (n - k) / n, n, k
    return None


# ----------------------------------------------------------------------
# Failure accounting.


def accounting(acct):
    """(attempted, failed, failed_frac) from twbench's counts.

    An operation is a request sent (or a reference run) or a
    correctness check (a row against its reference, a baseline or ref
    count against what the run must have done); it fails when the
    request was rejected or errored (or came back cached when cold,
    less than fully cached when warm) or the check does not hold.
    """
    attempted = acct["requests"] + acct["checks"]
    failed = acct["requests_failed"] + acct["checks_failed"]
    if attempted < 1:
        raise ValueError("nothing was attempted")
    if failed > attempted:
        raise ValueError("more failures than attempts")
    return attempted, failed, failed / attempted


# ----------------------------------------------------------------------
# Spans.


class Span:
    __slots__ = ("name", "tid", "start", "end", "parent", "children")

    def __init__(self, name, tid, start, end):
        if end < start:
            raise ValueError(f"span {name!r} ends before it starts")
        self.name = name
        self.tid = tid
        self.start = start
        self.end = end
        self.parent = None
        self.children = []

    @property
    def dur(self):
        return self.end - self.start

    def ancestors(self):
        p = self.parent
        while p is not None:
            yield p
            p = p.parent


def spans_from_events(events):
    """Complete ("X") Chrome trace events to Spans (microseconds).

    obs::traceStop writes only complete events. One without a
    duration, or with a negative one, is an unclosed span and raises
    ValueError; events of any other phase are ignored.
    """
    spans = []
    for e in events:
        if e.get("ph") != "X":
            continue
        if e.get("dur", -1) < 0:
            raise ValueError(f"span {e.get('name')!r} is unclosed")
        spans.append(Span(e["name"], e.get("tid", 0), e["ts"],
                          e["ts"] + e["dur"]))
    link(spans)
    return spans


def link(spans):
    """Give each span its innermost enclosing span on the same thread."""
    by_tid = {}
    for s in spans:
        by_tid.setdefault(s.tid, []).append(s)
    for group in by_tid.values():
        group.sort(key=lambda s: (s.start, -s.end))
        stack = []
        for s in group:
            while stack and stack[-1].end <= s.start:
                stack.pop()
            parent = next((p for p in reversed(stack)
                           if p.start <= s.start and s.end <= p.end), None)
            s.parent = parent
            if parent is not None:
                parent.children.append(s)
            stack.append(s)


def union_length(intervals):
    """Total length covered by (start, end) intervals, overlaps once."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span):
    """Duration minus the union of its direct children (clipped)."""
    covered = union_length((max(c.start, span.start), min(c.end, span.end))
                           for c in span.children)
    return span.dur - covered


def covered_on(spans, tid):
    """Time covered by any span on thread `tid`."""
    return union_length((s.start, s.end) for s in spans if s.tid == tid)


def load_spans(path, process=0):
    """Spans of one trace file; thread ids become (process, tid) so
    files from several processes can be pooled."""
    with open(path) as f:
        doc = json.load(f)
    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    for e in events:
        e["tid"] = (process, e.get("tid", 0))
    return spans_from_events(events)


# ----------------------------------------------------------------------
# End-to-end metrics.


def walls(rep):
    """Wall times of the grids of a batch repetition (one per copy run
    side by side), or the one wall time of a served phase."""
    return rep["walls_s"] if "walls_s" in rep else [rep["wall_s"]]


def pooled_tail(samples):
    """The tail rule over one pool of samples: (value, note)."""
    t = tail(samples)
    if t is None:
        raise ValueError(f"{len(samples)} samples are too few for a tail")
    value, pct, n, k = t
    return value, f"p{pct:.2f} of {n} samples, {k} beyond"


def per_phase_tail(phases):
    """The tail rule within each phase, median over phases: (value, note).

    A served warm phase runs on its own fresh pool, so one host stall
    moves one phase's tail, not the run's.
    """
    tails = [tail(p) for p in phases]
    if not tails or None in tails:
        raise ValueError("too few samples in a warm phase for a tail")
    tails.sort()
    mid = tails[len(tails) // 2]
    return median(t[0] for t in tails), (
        f"median over {len(tails)} warm phases of each one's "
        f"p{mid[1]:.2f}; middle phase {mid[2]} samples, {mid[3]} beyond")


def end_to_end(raw):
    """The end-to-end metrics of one run, plus notes printed beside."""
    out, notes = {}, {}
    cold, warm = raw["cold"], raw["warm"]
    served = raw["workload"] == "served_sweeps"
    out["setup_s"] = median(raw["setup_s"])
    out["grid_wall_s"] = median(w for r in cold for w in walls(r))
    # Instructions plus data refs of every run, baselines included,
    # per second of grid wall time.
    out["sim_mrefs_per_s"] = median(
        r["refs"] / sum(walls(r)) for r in cold) / 1e6
    out["cold_rows_per_s"] = median(
        r["rows"] / w for r in cold for w in walls(r))
    out["cold_p50_ms"] = median(x for r in cold for x in r["latency_s"]) * 1e3
    out["warm_rows_per_s"] = median(
        r["rows"] / w for r in warm for w in walls(r))
    out["warm_p50_ms"] = median(x for r in warm for x in r["latency_s"]) * 1e3
    if served:
        value, notes["warm_tail_ms"] = per_phase_tail(
            [r["latency_s"] for r in warm])
    else:
        # A batch grid delivers its rows together: one sample each.
        value, notes["warm_tail_ms"] = pooled_tail(
            [w for r in warm for w in walls(r)])
    out["warm_tail_ms"] = value * 1e3
    out["peak_rss_mb"] = raw["rss_mb"]
    notes["samples"] = (f"{len(cold)} cold and {len(warm)} warm "
                        f"{'phases' if served else 'grids'}, "
                        f"{len(raw['setup_s'])} set-ups")
    return out, notes


# ----------------------------------------------------------------------
# Per-layer metrics.


def _counter(c, *names):
    return sum(c.get(n, 0) for n in names)




def counter_layers(c):
    """Layer metrics read straight from an engine/serve counter delta."""
    utlb = _counter(c, "engine.utlb.hits", "engine.utlb.misses")
    probes = _counter(c, "engine.probe.hits", "engine.probe.skips")
    spans = _counter(c, "engine.simd.wide_spans", "engine.simd.scalar_tail")
    base = _counter(c, "engine.baseline.hits", "engine.baseline.misses")
    return {
        "os.refs_chunked": c.get("engine.refs.chunked", 0),
        "os.refs_filtered": c.get("engine.refs.filtered", 0),
        "os.refs_observed": c.get("engine.refs.observed", 0),
        "os.utlb_miss_ratio": ratio(c.get("engine.utlb.misses", 0), utlb),
        "machine.probe_skip_ratio": ratio(c.get("engine.probe.skips", 0),
                                          probes),
        "machine.simd_wide_share": ratio(c.get("engine.simd.wide_spans", 0),
                                         spans),
        "mem.flushes": _counter(c, "engine.flush.ranged", "engine.flush.scan"),
        "core.traps.fetch": c.get("engine.traps.delivered.fetch", 0),
        "core.traps.load": c.get("engine.traps.delivered.load", 0),
        "core.traps.store": c.get("engine.traps.delivered.store", 0),
        "core.traps.set": c.get("engine.traps.set", 0),
        "cost.events": c.get("engine.cost.events", 0),
        "cost.cycles": c.get("engine.cost.cycles", 0),
        "harness.baseline_hit_ratio": ratio(c.get("engine.baseline.hits", 0),
                                            base),
    }


def trial_layers(spans, kind_of_unit, refs_by_kind, baseline_refs):
    """Engine time per ref from the `trial`/`baseline`/`flush` spans.

    A trial under a `baseline` span is an uninstrumented baseline run;
    any other trial takes its sim kind from the enclosing `unit:<id>`
    span, or the single kind when there is no unit span (a served
    worker). `baseline_refs` is the refs (instructions plus data refs)
    of every baseline run, which twbench re-runs untimed to count.
    """
    self_by_kind, dur_by_kind, trials_by_kind = {}, {}, {}
    baseline_us = 0.0
    baselines = 0
    only_kind = next(iter(refs_by_kind)) if len(refs_by_kind) == 1 else None
    for s in spans:
        if s.name == "baseline":
            baseline_us += s.dur
            baselines += 1
        if s.name != "trial":
            continue
        anc = list(s.ancestors())
        if any(a.name == "baseline" for a in anc):
            continue
        unit = next((a.name[5:] for a in anc if a.name.startswith("unit:")),
                    None)
        kind = kind_of_unit.get(unit, only_kind)
        self_by_kind[kind] = self_by_kind.get(kind, 0.0) + self_time(s)
        dur_by_kind[kind] = dur_by_kind.get(kind, 0.0) + s.dur
        trials_by_kind[kind] = trials_by_kind.get(kind, 0) + 1
    flush_us = sum(self_time(s) for s in spans if s.name == "flush")

    def ns_per_ref(kind):
        return ratio(self_by_kind.get(kind, 0.0) * 1e3,
                     refs_by_kind.get(kind, 0))

    out = {
        "os.baseline_ns_per_ref": ratio(baseline_us * 1e3, baseline_refs),
        "mem.flush_s": flush_us / 1e6,
        "core.tw_ns_per_ref": ns_per_ref("tw"),
        "core.twd_ns_per_ref": ns_per_ref("twd"),
        "trace.c2k_ns_per_ref": ns_per_ref("c2k"),
    }
    # Trap-handler cost: Tapeworm trial time less the same-seed
    # baseline's, per trap delivered (only where baselines ran).
    tw_trials = trials_by_kind.get("tw", 0) + trials_by_kind.get("twd", 0)
    tw_us = dur_by_kind.get("tw", 0.0) + dur_by_kind.get("twd", 0.0)
    per_baseline = ratio(baseline_us, baselines)
    out["_handler_us"] = tw_us - tw_trials * per_baseline if baselines else 0.0
    return out


def layers_batch(raw):
    """Per-layer metrics of a traced batch run (median over reps)."""
    tr = raw["traced"]
    kinds = tr["kinds"]
    refs_by_kind = {}
    for row in tr["rows"]:
        k = kinds[row["unit"]]
        refs_by_kind[k] = refs_by_kind.get(k, 0) + row["refs"]
    per_rep = []
    for rep in tr["reps"]:
        spans = load_spans(rep["trace"])
        c = rep["counters"]
        m = counter_layers(c)
        m.update(trial_layers(spans, kinds, refs_by_kind,
                              tr["baseline_refs"]))
        traps = _counter(c, "engine.traps.delivered.fetch",
                         "engine.traps.delivered.load",
                         "engine.traps.delivered.store")
        m["core.handler_ns_per_trap"] = ratio(m.pop("_handler_us") * 1e3,
                                              traps)
        batch = sum(s.dur for s in spans if s.name == "batch")
        units = sum(s.dur for s in spans if s.name.startswith("unit:"))
        m["harness.dispatch_idle_share"] = 1.0 - ratio(
            units, batch * tr["threads"])
        # Inside the benchmark's call of each grid, the time no span of
        # the program covers.
        m["unattributed_s"] = statistics.mean(
            self_time(s) for s in spans if s.name == "bench.grid") / 1e6
        per_rep.append(m)
    out = {k: median(m[k] for m in per_rep) for k in per_rep[0]}
    probe = tr["probe"]
    out["workload.gen_ns_per_ref"] = probe["gen_ns_per_ref"]
    out["harness.grid_s"] = probe["grid_s"]
    out["harness.specio_us_per_job"] = probe["specio_us_per_job"]
    out["harness.row_us_per_row"] = probe["row_us_per_row"]
    for k in ("serve.cache_hit_ratio", "serve.rows_per_flush",
              "serve.rejected", "shard.router_hop_ms", "shard.rows_merged",
              "shard.rows_buffered_share"):
        out[k] = 0
    untraced = median(w for r in raw["cold"] for w in walls(r))
    traced = median(w for r in tr["reps"] for w in walls(r))
    out["trace_overhead_frac"] = (traced - untraced) / untraced
    return out


def client_gaps(spans):
    """Sum over `bench.phase.*` spans of the mean time per request
    thread inside the phase that no span of that thread covers."""
    total = 0.0
    for phase in (s for s in spans if s.name.startswith("bench.phase.")):
        inside = [s for s in spans if s.tid != phase.tid
                  and s.start >= phase.start and s.end <= phase.end]
        tids = {s.tid for s in inside if s.name.startswith("bench.request.")}
        if tids:
            total += statistics.mean(phase.dur - covered_on(inside, t)
                                     for t in tids) / 1e6
    return total


def layers_served(raw):
    """Per-layer metrics of the traced served cycle."""
    tr = raw["traced"]
    wc, rc = tr["worker_counters"], tr["router_counters"]
    out = counter_layers(wc)
    spans = []
    for i, path in enumerate(tr["worker_traces"]):
        spans.extend(load_spans(path, process=i))
    out.update(trial_layers(spans, {}, {"tw": tr["cold"]["row_refs"]},
                            tr["baseline_refs"]))
    traps = _counter(wc, "engine.traps.delivered.fetch",
                     "engine.traps.delivered.load",
                     "engine.traps.delivered.store")
    out["core.handler_ns_per_trap"] = ratio(out.pop("_handler_us") * 1e3,
                                            traps)
    out["serve.cache_hit_ratio"] = ratio(wc.get("serve.rows.cached", 0),
                                         wc.get("serve.rows.streamed", 0))
    out["serve.rows_per_flush"] = ratio(wc.get("serve.rows.streamed", 0),
                                        wc.get("serve.net.flushes", 0))
    out["serve.rejected"] = (
        sum(v for k, v in wc.items() if k.startswith("serve.rejected."))
        + sum(v for k, v in rc.items() if k.startswith("serve.rejected."))
        + rc.get("router.requests.rejected", 0))
    out["shard.router_hop_ms"] = tr["router_hop_s"] * 1e3
    merged = rc.get("router.rows.merged", 0)
    out["shard.rows_merged"] = merged
    out["shard.rows_buffered_share"] = ratio(rc.get("router.rows.buffered", 0),
                                             merged)
    probe = tr["probe"]
    out["workload.gen_ns_per_ref"] = probe["gen_ns_per_ref"]
    out["harness.grid_s"] = probe["grid_s"]
    out["harness.specio_us_per_job"] = probe["specio_us_per_job"]
    out["harness.row_us_per_row"] = probe["row_us_per_row"]
    out["harness.dispatch_idle_share"] = 0.0
    # Client side: per phase, the part of the phase each connection's
    # thread spent outside a request, averaged over connections.
    out["unattributed_s"] = client_gaps(load_spans(tr["trace"]))
    untraced = median(r["wall_s"] / r["rows"] for r in raw["warm"])
    traced = tr["warm"]["wall_s"] / tr["warm"]["rows"]
    out["trace_overhead_frac"] = (traced - untraced) / untraced
    return out


def per_layer(raw):
    out = layers_served(raw) if raw["workload"] == "served_sweeps" \
        else layers_batch(raw)
    missing = [n for n, _ in PER_LAYER if n not in out]
    if missing:
        raise ValueError(f"per-layer metrics missing: {missing}")
    return {n: float(out[n]) for n, _ in PER_LAYER}
