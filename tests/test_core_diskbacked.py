"""Secondary-storage behaviour of the stable-cluster algorithms.

The paper's central systems claim is that BFS runs in one sequential
pass over the intervals while DFS trades I/O for memory: one random
read per child consideration, one random write per pop.  These tests
pin the algorithms' disk access patterns using the accounted DiskDict.
"""

import hashlib

from repro.core import (
    DFSStats,
    Path,
    bfs_stable_clusters,
    dfs_stable_clusters,
)
from repro.core.bfs import path_key
from repro.core.dfs import DFSEngine
from repro.datagen import synthetic_cluster_graph
from repro.storage import DiskDict, IOStats
from tests.test_core_cluster_graph import paper_example_graph


class TestDFSDiskStore:
    def test_results_identical_with_disk_store(self, tmp_path):
        graph = synthetic_cluster_graph(m=5, n=6, d=2, g=1, seed=21)
        in_memory = dfs_stable_clusters(graph, l=3, k=3)
        stats = IOStats()
        with DiskDict(str(tmp_path / "nodes.bin"), stats=stats) as store:
            on_disk = dfs_stable_clusters(graph, l=3, k=3, store=store)
        assert [(p.weight, p.nodes) for p in on_disk] == \
            [(p.weight, p.nodes) for p in in_memory]
        assert stats.reads > 0
        assert stats.writes > 0

    def test_read_per_child_write_per_pop(self, tmp_path):
        graph = paper_example_graph()
        dfs_stats = DFSStats()
        io_stats = IOStats()
        with DiskDict(str(tmp_path / "nodes.bin"),
                      stats=io_stats) as store:
            dfs_stable_clusters(graph, l=2, k=1, store=store,
                                stats=dfs_stats)
        # Every child consideration reads the node annotation; every
        # pop writes it back (the paper's cost model for Algorithm 3).
        assert io_stats.reads <= dfs_stats.node_reads
        assert io_stats.writes == dfs_stats.pops

    def test_unpruned_dfs_io_bounded_by_edges(self, tmp_path):
        graph = synthetic_cluster_graph(m=4, n=5, d=2, g=0, seed=3)
        stats = DFSStats()
        dfs_stable_clusters(graph, l=3, k=2, prune=False, stats=stats)
        # Without pruning: reads bounded by edges + source fan-out,
        # writes bounded by node count (each node popped once).
        source_children = graph.interval_size(0)
        assert stats.node_reads <= graph.num_edges + source_children
        assert stats.pops <= graph.num_nodes

    def test_pruning_never_increases_global_heap_quality(self):
        graph = synthetic_cluster_graph(m=6, n=8, d=3, g=1, seed=9)
        pruned = dfs_stable_clusters(graph, l=4, k=3, prune=True)
        unpruned = dfs_stable_clusters(graph, l=4, k=3, prune=False)
        assert [p.nodes for p in pruned] == [p.nodes for p in unpruned]

    def test_stack_depth_bounded_by_m(self):
        """The paper: 'the size of the stack is at most m entries'."""
        graph = synthetic_cluster_graph(m=7, n=4, d=2, g=1, seed=4)

        max_depth = 0
        original_consider = DFSEngine._consider_child

        def tracking_consider(self, stack, frame, child, weight):
            nonlocal max_depth
            max_depth = max(max_depth, len(stack))
            return original_consider(self, stack, frame, child, weight)

        DFSEngine._consider_child = tracking_consider
        try:
            dfs_stable_clusters(graph, l=6, k=2)
        finally:
            DFSEngine._consider_child = original_consider
        # Stack = source frame + at most one frame per interval.
        assert max_depth <= graph.num_intervals + 1


class TestBFSDiskStore:
    def test_heaps_persisted_per_node(self, tmp_path):
        graph = paper_example_graph()
        stats = IOStats()
        with DiskDict(str(tmp_path / "heaps.bin"), stats=stats) as store:
            bfs_stable_clusters(graph, l=2, k=2, store=store)
            # Algorithm 2 line 17: every node's heaps are saved once.
            assert len(store) == graph.num_nodes
            assert stats.writes == graph.num_nodes
            # The persisted heaps are the per-length top-k path lists.
            c22_heaps = store[(1, 1)]
            assert set(c22_heaps) == {1}
            assert len(c22_heaps[1]) == 2

    def test_bfs_is_single_pass(self, tmp_path):
        """BFS performs no random reads at all: the window keeps the
        previous g+1 intervals in memory."""
        graph = synthetic_cluster_graph(m=6, n=5, d=2, g=1, seed=2)
        stats = IOStats()
        with DiskDict(str(tmp_path / "heaps.bin"), stats=stats) as store:
            bfs_stable_clusters(graph, l=4, k=3, store=store)
        assert stats.reads == 0
        assert stats.writes == graph.num_nodes

    def test_stored_heaps_stay_best_first_lists(self, tmp_path):
        """What Algorithm 2 line 17 saves per node is a plain
        ``{length: [Path, ...]}`` with each list best first — the
        engine may keep its heaps however it likes, the stored form
        (pinned here by a digest taken before the hot-loop rewrite)
        does not move."""
        graph = synthetic_cluster_graph(m=6, n=5, d=2, g=1, seed=2)
        with DiskDict(str(tmp_path / "heaps.bin")) as store:
            bfs_stable_clusters(graph, l=4, k=3, store=store)
            stored = {node: store[node] for node in store}
        for heaps in stored.values():
            assert type(heaps) is dict
            for length, paths in heaps.items():
                assert type(paths) is list and 0 < len(paths) <= 3
                assert all(type(path) is Path and path.length == length
                           for path in paths)
                assert paths == sorted(paths, key=path_key,
                                       reverse=True)
        canonical = repr(sorted(
            (node, sorted((length, [(p.weight, p.nodes) for p in paths])
                          for length, paths in heaps.items()))
            for node, heaps in stored.items()))
        assert hashlib.sha256(canonical.encode()).hexdigest() == (
            "e7f03d6c4184f1947ba45c2f36551fcfdc24f26554ce3928642b26f2b"
            "2477f40")
