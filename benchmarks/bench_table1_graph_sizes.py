"""Table 1: sizes of single-day keyword graphs.

Paper (BlogScope, Jan 6/7 2007, after stemming and stop-word removal):

    Date    File Size   # keywords   # edges
    Jan 6   3027 MB     2,889,449    138,340,942
    Jan 7   2968 MB     2,872,363    135,869,146

We regenerate the same table for two synthetic "days" (the crawl is
private; see docs/architecture.md).  The shape to reproduce: two
comparable days;
edges two orders of magnitude above keywords; the pair file dominating
the raw text size.
"""

from __future__ import annotations

import os

import pytest

from repro.cooccur import KeywordGraph, write_pair_file
from repro.datagen import (
    BlogosphereGenerator,
    Event,
    EventSchedule,
    ZipfVocabulary,
)

DAYS = {
    "Jan 6": 0,
    "Jan 7": 1,
}


def _corpus():
    schedule = (EventSchedule()
                .add(Event.persistent(
                    "somalia",
                    ["somalia", "mogadishu", "ethiopian", "islamist"],
                    start=0, duration=2, posts=60))
                .add(Event.burst(
                    "facup", ["liverpool", "arsenal", "anfield",
                              "rosicky"], 0, 60)))
    vocab = ZipfVocabulary(4000, seed=1601)
    generator = BlogosphereGenerator(vocab, schedule,
                                     background_posts=900, seed=1602)
    return generator.generate_corpus(2)


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


@pytest.mark.parametrize("day", list(DAYS))
def test_table1_day(benchmark, corpus, series, tmp_path, day):
    interval = DAYS[day]
    keyword_sets = [doc.keywords() for doc in corpus.documents(interval)]

    # min_support=0: the paper's full G, every co-occurring pair.
    graph = benchmark(lambda: KeywordGraph.from_keyword_sets(
        keyword_sets, min_support=0))

    pair_path = str(tmp_path / f"pairs-{interval}.tsv")
    write_pair_file(keyword_sets, pair_path)
    file_mb = os.path.getsize(pair_path) / (1024 * 1024)

    series("Table 1 (keyword-graph sizes)",
           f"{day}: file={file_mb:.1f}MB keywords={graph.num_keywords} "
           f"edges={graph.num_edges}", "")
    benchmark.extra_info["file_mb"] = round(file_mb, 2)
    benchmark.extra_info["keywords"] = graph.num_keywords
    benchmark.extra_info["edges"] = graph.num_edges

    # Shape assertions mirroring the paper's table: edges dominate
    # keywords by >= one order of magnitude; both days comparable.
    assert graph.num_edges > 10 * graph.num_keywords
    assert graph.num_keywords > 1000
