"""Child process of the benchmark: sets the engine up and runs queries.

    python3 bench/worker.py reference WORKDIR
    python3 bench/worker.py timed WORKDIR --seconds S --trace 0|1

WORKDIR holds ``input.nt``, ``queries.json`` and ``meta.json`` written by
run.py.  Every event goes to standard output as one JSON line, which the
parent reads with a watchdog: a query that does not report back in time
gets this process killed, counts as failed and ends the run.

``reference`` answers every query once, untimed, under the workload's
reference configuration, and cross-checks the basic graph patterns on a
small instance against the oracle.  ``timed`` sets up under the
workload's own configuration, then runs the query pool in a closed loop
(one client, next query after the previous returns), one whole pass and
then until the time is spent, setting up once more before each further
pass.  A calibration precedes every query, and three come before and
three after every set-up: a fixed piece of pure-Python work whose time
tells the parent how fast the host ran at that moment.  With
``--trace 1`` it sets up 15 times, then alternates untraced and traced
whole passes over the pool instead, and reports per-layer numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import lubm  # noqa: E402
from lubm import WORKLOADS  # noqa: E402
from spans import QID, Tracer  # noqa: E402

SETUP_REPEATS = 15   # set-ups in a traced run
CAL_ROUNDS = 256     # size of the calibration work: about 1 ms


def _calibration_work(rounds=CAL_ROUNDS):
    """Fixed interpreter work of the kind the engine does: dict and set
    building, set intersections, tuples, a sort and a format."""
    adj = {}
    for i in range(rounds):
        for j in range(1, 6):
            adj.setdefault(i, set()).add((i * j) % rounds)
    hits = 0
    rows = []
    for a, out in adj.items():
        for b in out:
            common = out & adj.get(b, ())
            if common:
                hits += len(common)
                rows.append((a, b, min(common)))
    rows.sort()
    return hits + len("%d:%d" % (len(rows), hits))


def calibrate():
    """Seconds the calibration work takes right now.  The CPU of a
    shared host runs the same code up to twice as fast at one moment as
    at another, with thread CPU time equal to wall time; the parent
    divides each timing by the calibrations taken next to it.  The
    collector is off meanwhile, so that the engine's heap does not
    decide what the calibration costs."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _calibration_work()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def import_engine(root):
    """Import parteval from the checkout's src directory only."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import parteval
    if not os.path.abspath(parteval.__file__).startswith(src + os.sep):
        raise ImportError("parteval imported from %s, not %s"
                          % (parteval.__file__, src))
    return parteval


def emit(**event):
    sys.stdout.write(json.dumps(event) + "\n")
    sys.stdout.flush()


def setup(pe, work, nt_bytes, k, strategy, tag):
    """N-Triples bytes to a ready DistributedGraph through the user's
    path: ``parteval load``, ``parteval partition``, ``load_db``."""
    engine = pe.engine
    nt = os.path.join(work, "setup-%s.nt" % tag)
    db = os.path.join(work, "db-%s" % tag)
    t0 = time.perf_counter()
    with open(nt, "wb") as fh:
        fh.write(nt_bytes)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = engine.main(["load", "--data", nt, "--out", db])
        if rc == 0 and k > 1:
            rc = engine.main(["partition", "--db", db, "-k", str(k),
                              "--strategy", strategy, "--seed", "0"])
    if rc != 0:
        raise RuntimeError("set-up exited with %d" % rc)
    g, dg = engine.load_db(db)
    elapsed = time.perf_counter() - t0
    shutil.rmtree(db)
    os.remove(nt)
    return elapsed, g, dg


def projection(pe, gq):
    if gq.projection is not None:
        return list(gq.projection)
    return sorted(pe.tree_vars(gq.node))


def answer(pe, dg, cfg, text):
    """parse -> execute -> TSV, through module attributes so that the
    traced run's wrappers apply; returns (seconds, tsv)."""
    engine = pe.engine
    t0 = time.perf_counter()
    gq = pe.query_model.parse_sparql(text)
    table, _ = engine.execute(gq, dg, cfg)
    tsv = engine.format_tsv(table, projection(pe, gq))
    return time.perf_counter() - t0, tsv


def digest(tsv):
    return hashlib.sha256(tsv.encode("utf-8")).hexdigest()


def engine_config(pe, conf):
    return pe.EngineConfig(assembly=conf["assembly"],
                           transport=conf["transport"])


# --- reference --------------------------------------------------------------

def oracle_check(pe, work, seed, conf):
    """Answer every BGP template on a <=64-vertex instance with the
    workload's own configuration and compare with oracle.enumerate_matches
    rendered through the same table and TSV code."""
    from parteval import general_sparql, oracle
    data = lubm.generate(seed, lubm.ORACLE_SCALE)
    _, g, dg = setup(pe, work, data.ntriples, conf["k"], conf["strategy"],
                     "oracle")
    if g.n_vertices > oracle.MAX_DATA_VERTICES:
        raise RuntimeError("oracle instance has %d vertices" % g.n_vertices)
    cfg = engine_config(pe, conf)
    dealer = lubm.Dealer(random.Random(seed))
    checked = 0
    for name in lubm.BGP_TEMPLATES:
        text = lubm.instantiate(name, data, dealer)
        _, got = answer(pe, dg, cfg, text)
        gq = pe.parse_sparql(text)
        qgraph = gq.node.graph
        names = projection(pe, gq)
        table = general_sparql.bgp_results_to_table(
            oracle.enumerate_matches(g, qgraph), qgraph, g)
        want = pe.format_tsv(general_sparql.project(table, names), names)
        if got != want:
            return {"ok": False, "template": name, "query": text}
        checked += 1
    return {"ok": True, "checked": checked}


def run_reference(pe, work, meta):
    spec = WORKLOADS[meta["workload"]]
    with open(os.path.join(work, "input.nt"), "rb") as fh:
        nt_bytes = fh.read()
    with open(os.path.join(work, "queries.json"), encoding="utf-8") as fh:
        pool = json.load(fh)
    ref = spec["reference"]
    _, _, dg = setup(pe, work, nt_bytes, ref["k"], ref["strategy"], "ref")
    cfg = engine_config(pe, ref)
    digests = [digest(answer(pe, dg, cfg, text)[1]) for _, text in pool]
    emit(event="reference", digests=digests,
         oracle=oracle_check(pe, work, meta["seed"], spec))


# --- timed ------------------------------------------------------------------

def instrument(tracer):
    """Wrap each layer's public entry points where their callers look
    them up."""
    from parteval import (assembly_bsp as bsp, assembly_central as ac,
                          engine, fragmenter, general_sparql as gs, matcher,
                          query_model)
    t = tracer

    def sized(key):
        return lambda tr, args, kwargs, result: tr.add(key, len(result))

    def table_join(tr, args, kwargs, result):
        tr.add("general_sparql.rows_compared", len(args[0]) * len(args[1]))
        tr.add("general_sparql.rows_out", len(result))

    def stats_of(keys):
        def after(tr, args, kwargs, result):
            stats = kwargs.get("stats") or {}
            for key, name in keys.items():
                tr.add(name, stats.get(key, 0))
        return after

    t.span(engine, "parse_ntriples", "rdf_model.parse")
    for name in ("partition_uniform_hash", "partition_exponential_hash",
                 "partition_from_file"):
        t.span(fragmenter, name, "fragmenter.partition")
    t.span(fragmenter, "build_fragments", "fragmenter.build")
    t.span(fragmenter, "topology", "fragmenter.topology")

    t.span(query_model, "parse_sparql", "query_model.parse")
    t.span(engine, "execute", "engine.execute")
    t.span(engine, "format_tsv", "engine.format")
    # the one private name: the per-component pipeline that owns the
    # matcher's thread pool, so that pool threads have a parent span
    t.span(engine, "_match_component", "engine.component")

    t.span(engine, "evaluate_general", "general_sparql.evaluate")
    t.span(engine, "evaluate_bgp", "general_sparql.bgp")
    t.span(gs, "nat_join", "general_sparql.nat_join", after=table_join)
    t.span(gs, "left_outer_join", "general_sparql.left_outer_join",
           after=table_join)
    t.span(gs, "filter_table", "general_sparql.filter")
    t.span(gs, "bgp_results_to_table", "general_sparql.to_table")
    t.span(gs, "union", "general_sparql.union")
    t.span(gs, "project", "general_sparql.project")

    t.span(matcher, "ground", "matcher.ground")
    t.span(matcher, "compute_local_partial_matches", "matcher.lpm",
           after=sized("matcher.lpm_count"))
    t.span(matcher, "compute_inner_matches", "matcher.inner",
           after=sized("matcher.inner_count"))
    t.span(matcher, "candidates", "matcher.candidates",
           after=lambda tr, a, k, r: tr.add("matcher.candidates_calls"))
    t.count(matcher, "is_local_partial_match", "matcher.states_checked")

    t.span(ac, "assemble", "assembly_central.assemble",
           after=stats_of({"pairs_examined": "assembly_central.pairs_examined",
                           "memo_keys": "assembly_central.memo_keys"}))
    t.span(ac, "optimal_partitioning", "assembly_central.dp")
    t.span(ac, "partitioning_based_join", "assembly_central.join")
    # join() re-checks joinable() through assembly_central's globals, for
    # callers in both assembly modules; the join counts undo that.
    t.count(ac, "joinable", "assembly_central.joinable")
    t.count(ac, "join", "assembly_central.join_calls")
    t.count(bsp, "joinable", "assembly_bsp.joinable")
    t.count(bsp, "join", "assembly_bsp.join_calls")

    t.span(bsp, "run_bsp", "assembly_bsp.run",
           after=stats_of({"messages_sent": "assembly_bsp.messages",
                           "bytes_sent": "assembly_bsp.bytes",
                           "supersteps_used": "assembly_bsp.supersteps_used"}))
    t.span(bsp, "local_computation", "assembly_bsp.compute")
    t.span(bsp, "route", "assembly_bsp.route")
    t.span(bsp, "encode_lpm", "assembly_bsp.codec")
    t.span(bsp, "decode_lpm", "assembly_bsp.codec")
    for cls in (bsp.InProcessExchange, bsp.TcpLoopbackExchange):
        t.span(cls, "post", "assembly_bsp.exchange")
        t.span(cls, "flush", "assembly_bsp.exchange")
    t.span(bsp.TcpLoopbackExchange, "__init__", "assembly_bsp.connect")
    t.span(bsp.TcpLoopbackExchange, "close", "assembly_bsp.connect")


def layer_metrics(tracer, setups, queries, passes, untraced, traced):
    """Per-layer numbers from the traced passes: setup times per set-up,
    query-phase self times per query, counts per pass."""
    setup_self, query_self = tracer.self_times()
    c = tracer.counts

    def per_pass(key):
        value = c[key]
        return value // passes if value % passes == 0 else value / passes

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("rdf_model.parse", "fragmenter.partition",
                 "fragmenter.build"):
        m[name + "_s"] = (setup_self[name] / setups, "s")
    per_query = {
        "fragmenter.topology_s": "fragmenter.topology",
        "query_model.parse_s": "query_model.parse",
        "engine.format_s": "engine.format",
        "matcher.lpm_s": "matcher.lpm",
        "matcher.candidates_s": "matcher.candidates",
        "matcher.inner_s": "matcher.inner",
        "assembly_central.dp_s": "assembly_central.dp",
        "assembly_central.join_s": "assembly_central.join",
        "assembly_bsp.run_s": "assembly_bsp.run",
        "assembly_bsp.compute_s": "assembly_bsp.compute",
        "assembly_bsp.route_s": "assembly_bsp.route",
        "assembly_bsp.codec_s": "assembly_bsp.codec",
        "assembly_bsp.exchange_s": "assembly_bsp.exchange",
        "assembly_bsp.connect_s": "assembly_bsp.connect",
        "general_sparql.nat_join_s": "general_sparql.nat_join",
        "general_sparql.left_outer_join_s": "general_sparql.left_outer_join",
        "general_sparql.filter_s": "general_sparql.filter",
        "general_sparql.to_table_s": "general_sparql.to_table",
    }
    for metric, span_name in per_query.items():
        m[metric] = (query_self[span_name] / queries, "s/query")
    m["engine.execute_self_s"] = (
        (query_self["engine.execute"] + query_self["engine.component"])
        / queries, "s/query")

    states = per_pass("matcher.states_checked")
    lpms = per_pass("matcher.lpm_count")
    m["matcher.candidates_calls"] = (per_pass("matcher.candidates_calls"),
                                     "count")
    m["matcher.states_checked"] = (states, "count")
    m["matcher.lpm_count"] = (lpms, "count")
    m["matcher.lpm_yield"] = (ratio(lpms, states), "ratio")
    m["matcher.inner_count"] = (per_pass("matcher.inner_count"), "count")

    joins = c["assembly_central.join_calls"] + c["assembly_bsp.join_calls"]
    calls = c["assembly_central.joinable"] - joins
    hits = c["assembly_central.joinable.true"] - joins
    m["assembly_central.pairs_examined"] = (
        per_pass("assembly_central.pairs_examined"), "count")
    m["assembly_central.join_hit_ratio"] = (ratio(hits, calls), "ratio")
    m["assembly_central.memo_keys"] = (
        per_pass("assembly_central.memo_keys"), "count")

    for key in ("messages", "bytes", "supersteps_used"):
        m["assembly_bsp." + key] = (per_pass("assembly_bsp." + key),
                                    "count" if key != "bytes" else "B")
    m["assembly_bsp.joinable_calls"] = (per_pass("assembly_bsp.joinable"),
                                        "count")

    compared = per_pass("general_sparql.rows_compared")
    m["general_sparql.rows_compared"] = (compared, "count")
    m["general_sparql.join_yield"] = (
        ratio(c["general_sparql.rows_out"], c["general_sparql.rows_compared"]),
        "ratio")

    layers = {}
    for span_name, seconds in query_self.items():
        layer = span_name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + seconds
    total = sum(layers.values())
    for layer in ("matcher", "assembly_central", "assembly_bsp",
                  "general_sparql", "fragmenter", "query_model", "engine"):
        m["share." + layer] = (100.0 * ratio(layers.get(layer, 0.0), total),
                               "%")

    base = statistics.median(untraced)
    over = statistics.median(traced)
    n_pool = queries // passes
    m["trace.overhead_s"] = ((over - base) / n_pool, "s/query")
    m["trace.overhead_pct"] = (100.0 * ratio(over - base, base), "%")
    m["trace.spans"] = (sum(1 for span in tracer.spans
                            if span[QID] is not None) // passes, "count")
    return m


def pin_to_one_cpu():
    """Keep the timed worker on one CPU.  The matcher's pool threads
    contend for the interpreter lock; with the lock handed between two
    CPUs, query latency swung by half between runs minutes apart while
    single-threaded set-up did not move.  The engine still sizes its pool
    from os.cpu_count(), which ignores the pin: on a 2-CPU host the pool
    runs 2 threads on this one CPU.  Its hand-off cost shows in the
    figures; any gain from running fragments in parallel cannot."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def setup_peak_mb(pe, work, nt_bytes, spec):
    """Peak of the Python allocations made by one more, untimed set-up.
    Exact to the byte, where ru_maxrss carries the 26 MB interpreter and
    moves in steps of 128 KiB on Linux: this is the figure that shows an
    index built in ``build_fragments``."""
    tracemalloc.start()
    try:
        setup(pe, work, nt_bytes, spec["k"], spec["strategy"], "peak")
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def run_timed(pe, work, meta, seconds, trace):
    pin_to_one_cpu()
    spec = WORKLOADS[meta["workload"]]
    with open(os.path.join(work, "input.nt"), "rb") as fh:
        nt_bytes = fh.read()
    with open(os.path.join(work, "queries.json"), encoding="utf-8") as fh:
        pool = [text for _, text in json.load(fh)]
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.bind_main_thread()
        instrument(tracer)

    setup_times, setup_cals = [], []

    def fresh_setup():
        cals = [calibrate() for _ in range(3)]
        elapsed, _, dg = setup(pe, work, nt_bytes, spec["k"],
                               spec["strategy"], "run%d" % len(setup_times))
        cals += [calibrate() for _ in range(3)]
        setup_times.append(elapsed)
        setup_cals.append(statistics.median(cals))
        return dg

    if tracer is None:
        dg = fresh_setup()
        emit(event="setup", seconds=setup_times, cals=setup_cals,
             peak_mb=setup_peak_mb(pe, work, nt_bytes, spec))
    else:   # the per-layer set-up figures come from these repeats
        for _ in range(SETUP_REPEATS):
            dg = fresh_setup()
        emit(event="setup", seconds=setup_times)

    cfg = engine_config(pe, spec)
    if tracer is None:
        # closed loop: one client, next query once the previous returned;
        # at least one whole pass over the pool, then until time is up
        deadline = time.perf_counter() + seconds
        done = 0
        while done < len(pool) or time.perf_counter() < deadline:
            i = done % len(pool)
            if i == 0 and done:
                # one more set-up before each further pass, its graph
                # dropped at once: like the queries, the set-ups then
                # sample the host's speed across the whole run
                fresh_setup()
            cal = calibrate()
            try:
                elapsed, tsv = answer(pe, dg, cfg, pool[i])
            except Exception as exc:   # a failed query, not a failed run
                emit(event="done", i=i, error="%s: %s"
                     % (type(exc).__name__, exc))
            else:
                emit(event="done", i=i, seconds=elapsed, cal=cal,
                     digest=digest(tsv))
            done += 1
        emit(event="end", setup_seconds=setup_times, setup_cals=setup_cals,
             rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        return

    # traced: alternate whole untraced and traced passes; the difference
    # between their wall times is the tracing overhead
    untraced, traced = [], []
    tracer.uninstall()
    t_end = time.perf_counter() + seconds
    qid = 0
    while not traced or time.perf_counter() < t_end:
        for with_trace in (False, True):
            if with_trace:
                instrument(tracer)
            p0 = time.perf_counter()
            for j, text in enumerate(pool):
                if with_trace:
                    tracer.query_id = qid
                    qid += 1
                elapsed, tsv = answer(pe, dg, cfg, text)
                emit(event="done", i=j, seconds=elapsed, digest=digest(tsv))
            (traced if with_trace else untraced).append(
                time.perf_counter() - p0)
            if with_trace:
                tracer.query_id = None
                tracer.uninstall()
    metrics = layer_metrics(tracer, SETUP_REPEATS, qid, len(traced),
                            untraced, traced)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, "trace-%s-%d.jsonl"
                              % (meta["workload"], meta["seed"]))
    tracer.dump(trace_path)
    emit(event="end",
         metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=["reference", "timed"])
    p.add_argument("work")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, default=0)
    args = p.parse_args(argv)
    with open(os.path.join(args.work, "meta.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    pe = import_engine(meta["root"])
    if args.mode == "reference":
        run_reference(pe, args.work, meta)
    else:
        run_timed(pe, args.work, meta, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
