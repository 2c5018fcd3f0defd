"""Coordinator: wires matching, assembly, and the table algebra, and
exposes the command line.

A database is a directory holding a canonical N-Triples copy of the data
plus an optional partition map; fragments are rebuilt at load time.
Matching runs fragment by fragment, crossing matches come from the
configured assembly strategy, and results print as deterministically
sorted TSV.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field

from . import assembly_bsp, assembly_central, fragmenter, matcher
from .fragmenter import PartitionError, PartitionMap
from .general_sparql import decoded, evaluate_bgp, evaluate_general
from .matcher import DEADLINE_EVERY
from .query_model import (QuerySyntaxError, UnsupportedFeatureError,
                          parse_sparql, projected_names)
from .rdf_model import IRI, NTriplesSyntaxError, parse_ntriples


class TimeoutExceeded(Exception):
    pass


@dataclass
class EngineConfig:
    assembly: str = "centralized"        # or "distributed"
    join: str = "partitioned"            # or "naive"
    transport: str = "inproc"            # or "tcp"
    threads: int = 0                     # accepted and ignored
    timeout_seconds: float = 0.0         # 0: no limit


@dataclass
class QueryStats:
    lpm_counts: dict = field(default_factory=dict)
    inner_matches: int = 0
    crossing_matches: int = 0
    partial_eval_seconds: float = 0.0
    assembly_seconds: float = 0.0
    supersteps: int = 0
    messages_sent: int = 0
    bytes_sent: int = 0
    join_cost: int = 0

    def to_dict(self):
        out = asdict(self)
        out["lpm_counts"] = {str(k): v
                             for k, v in sorted(self.lpm_counts.items())}
        return out


class _Deadline:
    """A query's time limit and its one work counter.

    Each layer reports its work as it does it, with spend(phase, units):
    a search state, a vector of the universal-vertex search, an image of
    the universal vertex and each of its stored neighbours, a stored
    pair scanned or taken whole (spent before the pass over the list),
    a probed pair of a join, a memo miss of the partitioning DP, a
    partial match split off before the DP.  The clock is read as soon
    as more than DEADLINE_EVERY units have been spent since it was last
    read, however many calls the work is spread over, and once after
    each phase and each superstep (check).  A query without a limit has
    no deadline: _match_component passes None to every layer."""

    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.monotonic()
        self.spent = 0

    def spend(self, phase, units=1):
        self.spent += units
        if self.spent > DEADLINE_EVERY:
            self.check(phase)

    def check(self, phase):
        self.spent = 0
        if time.monotonic() - self.start > self.limit:
            raise TimeoutExceeded("timed out during %s" % phase)


def _match_component(comp, dg, cfg, stats, deadline):
    """Full pipeline for one connected pattern graph: admission,
    per-fragment matching, then the configured assembly; returns match
    vectors.  deadline is the query's _Deadline, passed on as None when
    it sets no limit.  Distributed assembly takes its exchange here,
    because the admission round already uses it.  Over TCP that is the
    graph's own exchange, given back after a clean finish and closed on
    any error, since its buffers may then hold part of a round."""
    gq = matcher.ground(comp, dg.source)
    if not deadline.limit:
        deadline = None
    if cfg.assembly != "distributed":
        return _evaluate(gq, dg, cfg, stats, deadline, None)
    if cfg.transport != "tcp":
        return _evaluate(gq, dg, cfg, stats, deadline,
                         assembly_bsp.InProcessExchange(dg.k))
    exchange = assembly_bsp.take_tcp_exchange(dg)
    try:
        vectors = _evaluate(gq, dg, cfg, stats, deadline, exchange)
    except BaseException:
        exchange.close()
        raise
    assembly_bsp.keep_tcp_exchange(dg, exchange)
    return vectors


def _evaluate(gq, dg, cfg, stats, deadline, exchange):
    """_match_component's work; exchange is None under centralized
    assembly.  A query with a universal vertex, except under the naive
    join, is answered by compute_anchored_matches() from that vertex
    (the anchor) on each fragment, with no assembler; any other query
    has its local partial matches joined by the configured assembly.
    Before either, the admission round (_admit) sets what each search
    may bind."""
    t0 = time.monotonic()
    # the naive join merges partial matches, so it takes all of them
    # even when a universal vertex would answer the query directly
    anchor = (matcher.universal_vertex(gq)
              if exchange is not None or cfg.join != "naive" else None)
    own, admit = _admit(gq, dg, anchor, stats, exchange)
    # the searches collect inner matches where they run; a fragment
    # without crossing edges (each one at k=1) has the pair-list search
    inner = set().union(*(matcher.compute_inner_matches(
                              gq, frag, own[frag.id], deadline)
                          for frag in dg.fragments if not frag.extended))
    if anchor is None:
        omega = {frag.id: matcher.compute_local_partial_matches(
                     gq, frag, admit[frag.id], deadline, inner=inner)
                 for frag in dg.fragments}
        counts = {fid: len(lpms) for fid, lpms in omega.items()}
    else:
        counts = {}
        crossing = set()
        for frag in dg.fragments:
            counts[frag.id], answers = matcher.compute_anchored_matches(
                gq, frag, anchor, dg.source, admit[frag.id], deadline, inner)
            crossing |= answers
    stats.partial_eval_seconds += time.monotonic() - t0
    for fid, count in counts.items():
        stats.lpm_counts[fid] = stats.lpm_counts.get(fid, 0) + count
    if deadline is not None:
        deadline.check("partial evaluation")

    if anchor is None:
        t1 = time.monotonic()
        crossing = _assemble(omega, gq, dg, cfg, stats, deadline, exchange)
        stats.assembly_seconds += time.monotonic() - t1
        if deadline is not None:
            deadline.check("assembly")

    stats.inner_matches += len(inner)
    stats.crossing_matches += len(crossing)
    # inner is this call's own set, so the crossing matches join it there
    inner |= crossing
    return inner


def _admit(gq, dg, anchor, stats, exchange):
    """Each home's admitted sets and the sets each fragment's search
    binds within, as (own, admit), both by fragment id; a fragment's
    entry is None when it is asked about no query vertex.

    A search binds a filterable query vertex only within what some home
    admitted, so the other homes' verdicts are sent to each site under
    distributed assembly (exchange_admission) and united in process
    under centralized assembly.  Only the inner-match search, on a
    fragment without extended vertices, reads the anchor's verdicts:
    compute_anchored_matches() works out its hosts at their home.  So a
    query whose anchor is its one filterable vertex shares nothing."""
    vertices = matcher.filterable(gq)
    shared = [v for v in vertices if v != anchor]
    own = {}
    for frag in dg.fragments:
        asked = shared if frag.extended else vertices
        own[frag.id] = matcher.admitted(gq, frag, asked) if asked else None
    if not shared:
        return own, own
    if exchange is not None:
        admit, messages, byte_count = assembly_bsp.exchange_admission(
            dg, own, exchange)
        stats.messages_sent += messages
        stats.bytes_sent += byte_count
        return own, admit
    union = {v: frozenset().union(*(own[fid][v] for fid in own))
             for v in shared}
    return own, {fid: {**sets, **union} for fid, sets in own.items()}


def _assemble(omega, gq, dg, cfg, stats, deadline, exchange):
    """The crossing matches that the configured assembly makes of omega,
    the local partial matches per fragment id."""
    if exchange is not None:
        bsp_stats = {}
        crossing = assembly_bsp.run_bsp(dg, gq, omega, stats=bsp_stats,
                                        exchange=exchange, deadline=deadline)
        stats.supersteps = max(stats.supersteps,
                               bsp_stats.get("supersteps_used", 0))
        stats.messages_sent += bsp_stats.get("messages_sent", 0)
        stats.bytes_sent += bsp_stats.get("bytes_sent", 0)
        return crossing
    flat = frozenset().union(*omega.values())
    central_stats = {}
    if cfg.join == "naive":
        return assembly_central.naive_iterative_join(
            flat, gq, dg.source, stats=central_stats, deadline=deadline)
    crossing = assembly_central.assemble(
        flat, gq, dg.source, stats=central_stats, deadline=deadline)
    stats.join_cost += central_stats.get("join_cost", 0)
    return crossing


def execute(gq, dg, cfg=None):
    """Evaluate a parsed query against a fragmented graph."""
    cfg = cfg or EngineConfig()
    stats = QueryStats()
    deadline = _Deadline(cfg.timeout_seconds)
    match_fn = lambda comp: _match_component(comp, dg, cfg, stats, deadline)
    bgp_eval = lambda graph: evaluate_bgp(graph, match_fn, dg.source)
    table = evaluate_general(gq, bgp_eval)
    return table, stats


# --- persistence ---

DATA_FILE = "data.nt"
MAP_FILE = "partition.tsv"


def load_db(path):
    data = os.path.join(path, DATA_FILE)
    with open(data, "rb") as fh:
        g = parse_ntriples(fh)
    map_path = os.path.join(path, MAP_FILE)
    if os.path.exists(map_path):
        pm = fragmenter.partition_from_file(g, map_path)
    else:
        pm = PartitionMap({vid: 0 for vid in g.vertex_ids()}, 1)
    return g, fragmenter.build_fragments(g, pm)


# --- output ---

def _cell_text(graph, value):
    """A row value's TSV cell: an IRI as its bare text, any other term
    in N-Triples form, an unbound value as the empty cell."""
    if value is None:
        return ""
    if isinstance(value, str):      # a label: an IRI
        return value
    term = graph.term(value)
    if term.kind == IRI:
        return term.lexical
    return term.ntriples()


def format_tsv(table, names):
    """A header of names, then one line per row, sorted by cell text; an
    unbound or absent name prints as an empty cell.  The rows are
    rendered a column at a time: each projected column is one map over
    the table's graph's memo of cell texts (general_sparql.decoded), so
    each value is rendered once per graph, not once per call; a name the
    table lacks is a column of empty cells, and a repeated name repeats
    its column.  The rendered columns are zipped back into rows."""
    cells = decoded(table.graph, _cell_text).__getitem__
    rows = table.rows
    wanted = set(names)
    columns = {name: tuple(map(cells, column))
               for name, column in zip(table.names, zip(*rows))
               if name in wanted}
    blank = ("",) * len(rows)
    rendered = (sorted(zip(*[columns.get(name, blank) for name in names]))
                if names else [()] * len(rows))
    lines = ["\t".join("?" + n for n in names)]
    lines.extend(map("\t".join, rendered))
    return "\n".join(lines) + "\n"


# --- CLI ---

def _cmd_load(args):
    with open(args.data, "rb") as fh:
        g = parse_ntriples(fh)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, DATA_FILE), "w", encoding="utf-8") as fh:
        fh.write(g.to_ntriples())
    print("loaded %d triples, %d vertices" % (g.n_edges, g.n_vertices))
    return 0


def _cmd_partition(args):
    data = os.path.join(args.db, DATA_FILE)
    with open(data, "rb") as fh:
        g = parse_ntriples(fh)
    if args.strategy == "uniform":
        pm = fragmenter.partition_uniform_hash(g, args.k, seed=args.seed)
    elif args.strategy == "exponential":
        pm = fragmenter.partition_exponential_hash(g, args.k, seed=args.seed)
    elif args.strategy == "file":
        if not args.map:
            raise PartitionError("--strategy file requires --map")
        pm = fragmenter.partition_from_file(g, args.map)
    else:
        raise PartitionError("unknown strategy %r" % args.strategy)
    fragmenter.write_partition_file(g, pm, os.path.join(args.db, MAP_FILE))
    line = ("partitioned into %d fragments, topology diameter %d"
            % (pm.k, fragmenter.partition_topology(g, pm).diameter))
    k = fragmenter.stored_k(pm.assignment)
    if k < pm.k:
        empty = ("fragment %d is" % k if k == pm.k - 1
                 else "fragments %d-%d are" % (k, pm.k - 1))
        line += "; %s empty, so the database loads with k=%d" % (empty, k)
    print(line)
    return 0


def _timeout_seconds(text):
    """argparse type of --timeout: seconds >= 0, where 0 is no limit."""
    try:
        seconds = float(text)
    except ValueError:
        seconds = None
    if seconds is None or not seconds >= 0:     # also rejects NaN
        raise argparse.ArgumentTypeError(
            "expected a number of seconds >= 0, got %r" % text)
    return seconds


_ASSEMBLY = {"c": "centralized", "centralized": "centralized",
             "d": "distributed", "distributed": "distributed"}


def _cmd_query(args):
    with open(args.sparql, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:    # start is a byte offset
            raise QuerySyntaxError("invalid UTF-8", exc.start) from None
    gq = parse_sparql(text)
    g, dg = load_db(args.db)
    cfg = EngineConfig(assembly=_ASSEMBLY[args.assembly], join=args.join,
                       transport=args.transport, threads=args.threads,
                       timeout_seconds=args.timeout)
    table, stats = execute(gq, dg, cfg)
    sys.stdout.write(format_tsv(table, projected_names(gq)))
    if args.stats:
        with open(args.stats, "w", encoding="utf-8") as fh:
            # top-level keys sorted, lpm_counts in fragment order
            json.dump(dict(sorted(stats.to_dict().items())), fh, indent=2)
            fh.write("\n")
    return 0


def _cmd_stats(args):
    g, dg = load_db(args.db)
    info = {
        "triples": g.n_edges,
        "vertices": g.n_vertices,
        "fragments": [
            {
                "id": frag.id,
                "internal_vertices": len(frag.internal),
                "extended_vertices": len(frag.extended),
                "inner_edges": frag.inner_edge_count(),
                "crossing_edges": frag.crossing_edge_count(),
            }
            for frag in dg.fragments
        ],
        "k": dg.k,
        "topology_diameter": dg.topo.diameter,
    }
    print(json.dumps(info, indent=2, sort_keys=True))
    return 0


def _build_parser():
    p = argparse.ArgumentParser(prog="parteval")
    sub = p.add_subparsers(dest="command", required=True)

    load_p = sub.add_parser("load", help="import an N-Triples file")
    load_p.add_argument("--data", required=True)
    load_p.add_argument("--out", required=True)
    load_p.set_defaults(fn=_cmd_load)

    part_p = sub.add_parser("partition", help="assign vertices to fragments")
    part_p.add_argument("--db", required=True)
    part_p.add_argument("-k", type=int, required=True)
    part_p.add_argument("--strategy", default="uniform",
                        choices=["uniform", "exponential", "file"])
    part_p.add_argument("--map")
    part_p.add_argument("--seed", type=int, default=0)
    part_p.set_defaults(fn=_cmd_partition)

    query_p = sub.add_parser("query", help="run a SPARQL query")
    query_p.add_argument("--db", required=True)
    query_p.add_argument("--sparql", required=True)
    query_p.add_argument("--assembly", default="centralized",
                         choices=sorted(_ASSEMBLY))
    query_p.add_argument("--join", default="partitioned",
                         choices=["naive", "partitioned"])
    query_p.add_argument("--transport", default="inproc",
                         choices=["inproc", "tcp"])
    query_p.add_argument("--threads", type=int, default=0,
                         help="accepted and ignored")
    query_p.add_argument("--timeout", type=_timeout_seconds, default=0.0)
    query_p.add_argument("--stats")
    query_p.set_defaults(fn=_cmd_query)

    stats_p = sub.add_parser("stats", help="describe a database")
    stats_p.add_argument("--db", required=True)
    stats_p.set_defaults(fn=_cmd_stats)
    return p


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.fn(args)
    except (QuerySyntaxError, UnsupportedFeatureError,
            TimeoutExceeded) as exc:
        print("query error: %s" % exc, file=sys.stderr)
        return 1
    except NTriplesSyntaxError as exc:
        print("data error: %s" % exc, file=sys.stderr)
        return 2
    except PartitionError as exc:
        print("partition error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("io error: %s" % exc, file=sys.stderr)
        return 2


cli = main


if __name__ == "__main__":
    sys.exit(main())
