"""Figure 6: running time of cluster generation vs the ρ threshold.

Paper: the whole procedure (read raw data, chi-square test, ρ pruning,
Art algorithm for biconnected components) on the Jan 6 graph; "as ρ
increases, time decreases drastically since the number of edges and
vertices remaining in the graph decreases due to pruning".

At the paper's scale (138M raw edges) the Art phase on the surviving
graph dominates, which is what makes the curve fall.  At our synthetic
scale the constant-in-ρ chi-square/ρ pass dominates instead, so this
benchmark times the two parts separately: the full procedure (for the
record) and the ρ-dependent tail (graph materialization + Art), whose
falling shape is asserted.

Runs under pytest alongside the paper benchmarks, and standalone for
the Section-3 perf trajectory — ``--json PATH`` runs the whole
procedure on the same interval (count with keyword interning, prune
and Art, best of ``ROUNDS`` per stage, at the default ρ and support
floor) and stores
the stage seconds and sizes (pairs counted, after χ², after ρ,
clusters) as one named row of the repo-root ``BENCH_cooccur.json``
that ``make bench-json`` versions; rows already in the file under
other names are kept (``--row before`` with ``PYTHONPATH`` at an
earlier checkout's ``src``)::

    PYTHONPATH=src python benchmarks/bench_fig6_cluster_generation.py \\
        --json BENCH_cooccur.json
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import pytest

from repro.cooccur import KeywordGraph
from repro.cooccur.keyword_graph import PruneReport
from repro.datagen import (
    BlogosphereGenerator,
    Event,
    EventSchedule,
    ZipfVocabulary,
)
from repro.graph import extract_clusters
from repro.pipeline.cluster_generation import (
    generate_interval_clusters_task,
)

RHOS = [0.2, 0.3, 0.5, 0.7, 0.9]
ROUNDS = 5

_ART_TIMES = {}
_SURVIVORS = {}


def _corpus():
    schedule = (EventSchedule()
                .add(Event.burst("somalia",
                                 ["somalia", "mogadishu", "ethiopian",
                                  "islamist"], 0, 80))
                .add(Event.burst("beckham",
                                 ["beckham", "galaxy", "madrid",
                                  "soccer"], 0, 80)))
    vocab = ZipfVocabulary(4000, seed=661)
    generator = BlogosphereGenerator(vocab, schedule,
                                     background_posts=900, seed=662)
    return generator.generate_corpus(1)


@pytest.fixture(scope="module")
def keyword_graph():
    keyword_sets = [doc.keywords() for doc in _corpus().documents(0)]
    return KeywordGraph.from_keyword_sets(keyword_sets)


@pytest.fixture(scope="module")
def pruned_graphs(keyword_graph):
    graphs = {}
    for rho in RHOS:
        report = PruneReport()
        graphs[rho] = (keyword_graph.prune(rho_threshold=rho,
                                           report=report), report)
    return graphs


@pytest.mark.parametrize("rho", RHOS)
def test_fig6_full_procedure(benchmark, series, keyword_graph, rho):
    """Chi-square + rho pruning + Art, end to end (the paper's y-axis)."""
    report = PruneReport()

    def full():
        pruned = keyword_graph.prune(rho_threshold=rho, report=report)
        return extract_clusters(pruned)

    clusters = benchmark.pedantic(full, rounds=3, iterations=1)
    series("Figure 6 (cluster generation vs rho)",
           f"full: rho={rho} edges_after_rho={report.after_rho} "
           f"clusters={len(clusters)}", benchmark.stats["mean"])
    _SURVIVORS[rho] = report.after_rho


@pytest.mark.parametrize("rho", RHOS)
def test_fig6_art_phase(benchmark, series, pruned_graphs, rho):
    """The rho-dependent tail: Art on the surviving graph — the part
    whose cost falls 'drastically' in the paper's figure."""
    pruned, report = pruned_graphs[rho]
    clusters = benchmark(lambda: extract_clusters(pruned))
    _ART_TIMES[rho] = benchmark.stats["mean"]
    series("Figure 6 (cluster generation vs rho)",
           f"Art only: rho={rho} vertices={pruned.num_vertices} "
           f"edges={pruned.num_edges}", benchmark.stats["mean"])


def test_fig6_shapes(shape):
    if len(_ART_TIMES) < len(RHOS) or len(_SURVIVORS) < len(RHOS):
        pytest.skip("run the full module to check shapes")

    def check():
        survivors = [_SURVIVORS[rho] for rho in RHOS]
        assert survivors == sorted(survivors, reverse=True)
        assert survivors[-1] < survivors[0]
        # Art cost falls as rho rises (paper's drastically-decreasing
        # curve); compare the extremes for robustness to timer noise.
        assert _ART_TIMES[RHOS[-1]] < _ART_TIMES[RHOS[0]]

    shape(check)


def measure_interval() -> Dict[str, Any]:
    """The Figure-6 interval outside pytest: the fastest of
    ``ROUNDS`` runs of each stage, and the stage sizes (identical in
    every round)."""
    documents = _corpus().documents(0)
    seconds = {"count_s": [], "prune_s": [], "art_s": []}
    for _ in range(ROUNDS):
        clusters, report = generate_interval_clusters_task(documents, 0)
        seconds["count_s"].append(report.seconds_counting)
        seconds["prune_s"].append(report.seconds_pruning)
        seconds["art_s"].append(report.seconds_art)
    row: Dict[str, Any] = {name: round(min(values), 5)
                           for name, values in seconds.items()}
    row.update(documents=report.num_documents,
               keywords=report.num_keywords,
               pairs_counted=report.num_edges,
               after_chi2=report.edges_after_chi2,
               after_rho=report.edges_after_rho,
               clusters=len(clusters))
    return row


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone JSON mode for the perf trajectory (no pytest)."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", metavar="PATH",
                        help="store this run as a row of PATH (the "
                             "BENCH_cooccur.json artifact)")
    parser.add_argument("--row", default="after",
                        help="name of the row this run is stored "
                             "under (default: after)")
    args = parser.parse_args(argv)
    row = measure_interval()
    print(" ".join(f"{name}={value}" for name, value in row.items()))
    if args.json:
        from _json import load_bench_rows, write_bench_json
        rows = load_bench_rows(args.json)
        rows[args.row] = row
        write_bench_json(args.json, "cooccur", {
            "workload": {"intervals": 1, "background_posts": 900,
                         "events": 2, "vocabulary": 4000,
                         "rho": 0.2, "rounds": ROUNDS},
            "rows": rows,
        })
        print(f"wrote {args.json} (row {args.row!r})")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
