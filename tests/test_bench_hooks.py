"""The traced benchmark wraps engine functions by name; a rename or a
deletion in the engine must fail here, not only under `--trace 1`."""

import os

from parteval import (EngineConfig, engine, general_sparql, matcher,
                      parse_sparql, projected_names)

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")


def test_bench_instrument_finds_every_hook(monkeypatch, movie_dg,
                                           movie_query):
    monkeypatch.syspath_prepend(BENCH)
    import spans
    import worker

    original = matcher.is_local_partial_match
    tracer = spans.Tracer()
    try:
        worker.instrument(tracer)
        assert matcher.is_local_partial_match is not original
        table, _ = engine.execute(movie_query, movie_dg, EngineConfig(
            assembly="distributed", transport="tcp"))
    finally:
        tracer.uninstall()
    assert matcher.is_local_partial_match is original
    assert len(table.rows) == 1
    assert tracer.counts["matcher.states_checked"] > 0
    assert tracer.counts["matcher.candidates_calls"] > 0
    names = {span[spans.NAME] for span in tracer.spans}
    # the movie query posts local partial matches, so run_bsp must have
    # gone through the codec and the exchange
    assert {"engine.execute", "matcher.lpm", "matcher.candidates",
            "assembly_bsp.exchange", "assembly_bsp.codec"} <= names


def test_bench_instrument_sees_the_table_algebra(monkeypatch, movie_dg):
    """One query with a join, a UNION, an OPTIONAL and a FILTER, answered
    and printed as the bench answers it, passes through every wrapped
    operator of the table algebra."""
    monkeypatch.syspath_prepend(BENCH)
    import spans
    import worker

    gq = parse_sparql(
        "SELECT * WHERE { { ?a <actedIn> ?f } UNION { ?a <isMarriedTo> ?f }"
        " { ?a <actedIn> ?g } OPTIONAL { ?g <rdfs:label> ?n }"
        " FILTER(?f != <s1:film1>) }")
    original = general_sparql.filter_table
    tracer = spans.Tracer()
    try:
        worker.instrument(tracer)
        table, _ = engine.execute(gq, movie_dg, EngineConfig())
        tsv = engine.format_tsv(table, projected_names(gq))
    finally:
        tracer.uninstall()
    assert general_sparql.filter_table is original
    assert tsv == ("?a\t?f\t?g\t?n\n"
                   's2:act1\ts1:dir1\ts2:film1\t"Film One at Two"\n'
                   's2:act1\ts2:film1\ts2:film1\t"Film One at Two"\n')
    names = {span[spans.NAME] for span in tracer.spans}
    assert {"general_sparql.nat_join", "general_sparql.left_outer_join",
            "general_sparql.filter", "general_sparql.union",
            "general_sparql.to_table", "engine.format"} <= names
    assert tracer.counts["general_sparql.rows_compared"] > 0
