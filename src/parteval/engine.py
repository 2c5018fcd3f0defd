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
from itertools import chain

from . import assembly_bsp, assembly_central, fragmenter, matcher
from .fragmenter import PartitionError, PartitionMap
from .general_sparql import align, evaluate_bgp, evaluate_general
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
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.monotonic()

    def check(self, phase):
        if self.limit and time.monotonic() - self.start > self.limit:
            raise TimeoutExceeded("timed out during %s" % phase)


def _match_component(comp, dg, cfg, stats, deadline):
    """Full pipeline for one connected pattern graph: admission,
    per-fragment matching, then the configured assembly; returns match
    vectors.  Distributed assembly takes its exchange here, because the
    admission round already uses it.  Over TCP that is the graph's own
    exchange, given back after a clean finish and closed on any error,
    since its buffers may then hold part of a round."""
    gq = matcher.ground(comp, dg.source)
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
    assembly."""
    t0 = time.monotonic()
    # each home admits its own vertices; the search binds a filterable
    # query vertex only within what some home admitted
    own = {frag.id: matcher.admitted(gq, frag) for frag in dg.fragments}
    if not own[0]:          # no filterable query vertex: no admission
        admit = dict.fromkeys(own)
    elif exchange is not None:
        admit, messages, byte_count = assembly_bsp.exchange_admission(
            dg, own, exchange)
        stats.messages_sent += messages
        stats.bytes_sent += byte_count
    else:
        union = {v: frozenset().union(*(own[fid][v] for fid in own))
                 for v in own[0]}
        admit = dict.fromkeys(own, union)
    # the searches count steps only under a time limit
    timed = deadline if deadline.limit else None
    omega = {frag.id: matcher.compute_local_partial_matches(
                 gq, frag, admit[frag.id], timed)
             for frag in dg.fragments}
    inner = frozenset().union(*(matcher.compute_inner_matches(
                                    gq, frag, own[frag.id], timed)
                                for frag in dg.fragments))
    stats.partial_eval_seconds += time.monotonic() - t0
    for fid, lpms in omega.items():
        stats.lpm_counts[fid] = stats.lpm_counts.get(fid, 0) + len(lpms)
    deadline.check("partial evaluation")

    t1 = time.monotonic()
    if exchange is not None:
        bsp_stats = {}
        crossing = assembly_bsp.run_bsp(dg, gq, omega, stats=bsp_stats,
                                        exchange=exchange, deadline=deadline)
        stats.supersteps = max(stats.supersteps,
                               bsp_stats.get("supersteps_used", 0))
        stats.messages_sent += bsp_stats.get("messages_sent", 0)
        stats.bytes_sent += bsp_stats.get("bytes_sent", 0)
    else:
        flat = frozenset().union(*omega.values()) if omega else frozenset()
        central_stats = {}
        if cfg.join == "naive":
            crossing = assembly_central.naive_iterative_join(
                flat, gq, dg.source, stats=central_stats, deadline=deadline)
        else:
            crossing = assembly_central.assemble(
                flat, gq, dg.source, stats=central_stats, deadline=deadline)
            stats.join_cost += central_stats.get("join_cost", 0)
    stats.assembly_seconds += time.monotonic() - t1
    deadline.check("assembly")

    stats.inner_matches += len(inner)
    stats.crossing_matches += len(crossing)
    return inner | crossing


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

def _cell(term):
    if term.kind == IRI:
        return term.lexical
    return term.ntriples()


def format_tsv(table, names):
    """A header of names, then one line per row, sorted by cell text; an
    unbound or absent name prints as an empty cell.  Each value's cell
    text is built once per call."""
    texts = {value: _cell(table.term(value))
             for value in set(chain.from_iterable(table.rows))
             if value is not None}
    texts[None] = ""
    cells = texts.__getitem__
    rendered = sorted(tuple(map(cells, row))
                      for row in align(table.rows, table.names, names))
    lines = ["\t".join("?" + n for n in names)]
    lines.extend("\t".join(row) for row in rendered)
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
    print("partitioned into %d fragments, topology diameter %d"
          % (pm.k, fragmenter.partition_topology(g, pm).diameter))
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
        text = fh.read()
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
    except (QuerySyntaxError, UnsupportedFeatureError) as exc:
        print("query error: %s" % exc, file=sys.stderr)
        return 1
    except (TimeoutExceeded, assembly_central.QueryTooLarge) as exc:
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
