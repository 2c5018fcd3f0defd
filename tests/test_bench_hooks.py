"""The traced benchmark wraps engine functions by name; a rename or a
deletion in the engine must fail here, not only under `--trace 1`."""

import os

from parteval import EngineConfig, engine, matcher

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
