"""SPARQL over a vertex-partitioned RDF graph: per-fragment partial
evaluation followed by centralized or bulk-synchronous assembly."""

from .rdf_model import (
    IRI, LITERAL, BLANK,
    NTriplesSyntaxError, RdfGraph, Term, Triple,
    blank, iri, literal, parse_ntriples,
)
from .query_model import (
    And, Bgp, BoolConst, BoundTest, Comparison, Filter, GeneralQuery,
    LogicalAnd, LogicalNot, LogicalOr, Opt, QueryGraph, QuerySyntaxError,
    TermConst, Union, UnsupportedFeatureError, VarRef,
    build_query_graph, connected_components, parse_sparql, pretty,
    projected_names, tree_vars,
)
from .fragmenter import (
    DistributedGraph, Fragment, PartitionError, PartitionMap, TopologyGraph,
    build_fragments, partition_exponential_hash, partition_from_file,
    partition_topology, partition_uniform_hash, topology,
    write_partition_file,
)
from .matcher import (
    GroundedQuery, LocalPartialMatch,
    admitted, candidates, compute_anchored_matches, compute_inner_matches,
    compute_local_partial_matches, ground, is_complete_match,
    is_local_partial_match, match_order,
)
from .assembly_central import (
    LpmPartitioning, NotJoinable, PartialMatchIndex,
    UnassignedLpm,
    assemble, build_partitioning, join, join_cost, joinable, merge,
    naive_iterative_join, optimal_partitioning, partitioning_based_join,
)
from .assembly_bsp import (
    InProcessExchange, NonTermination, RecordLayout, TcpLoopbackExchange,
    decode_lpm, encode_lpm, fragment_order, local_computation, route, run_bsp,
)
from .general_sparql import (
    BindingTable, bgp_results_to_table, empty_table, evaluate_bgp,
    evaluate_general, evaluate_node, filter_table, left_outer_join,
    nat_join, project, union, unit_table,
)
from .oracle import SizeLimit, classify, enumerate_matches
from .engine import (
    EngineConfig,
    QueryStats,
    TimeoutExceeded,
    execute,
    format_tsv,
    load_db,
    main,
)

__all__ = [name for name in dir() if not name.startswith("_")]
