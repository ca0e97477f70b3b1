"""repro — reproduction of "Seeking Stable Clusters in the Blogosphere"
(Bansal, Chiang, Koudas, Tompa; VLDB 2007).

Two-stage pipeline over temporally ordered text:

1. **Cluster generation** (:mod:`repro.cooccur`, :mod:`repro.stats`,
   :mod:`repro.graph`): per-interval keyword co-occurrence graphs,
   chi-square + correlation pruning, biconnected-component clusters.
2. **Stable clusters** (:mod:`repro.core`): the temporal cluster
   graph and the BFS / DFS / TA / normalized / streaming solvers for
   the kl-stable and normalized stable cluster problems.

Supporting packages: :mod:`repro.text` (tokenize/stopwords/Porter),
:mod:`repro.vocab` (keyword interning — the pipeline computes on
integer ids end-to-end and decodes to strings at the rendering edge),
:mod:`repro.extsort` (external merge sort), :mod:`repro.storage`
(disk dicts, state-store backends, record logs, I/O accounting, the
compact varint node-state codec), :mod:`repro.affinity`
(cluster overlap measures and threshold similarity join),
:mod:`repro.datagen` (synthetic blogosphere and cluster graphs),
:mod:`repro.baselines` (cut clustering, KwikCluster),
:mod:`repro.pipeline` (end-to-end batch driver) and
:mod:`repro.streaming` (per-interval document ingestion into
incrementally maintained top-k with bounded state).
"""

__version__ = "1.0.0"

from repro.core import (
    ClusterGraph,
    Path,
    bfs_stable_clusters,
    build_cluster_graph,
    dfs_stable_clusters,
    normalized_stable_clusters,
    ta_stable_clusters,
)
from repro.cooccur import KeywordGraph
from repro.graph import KeywordCluster, extract_clusters
from repro.vocab import FrozenVocabulary, Vocabulary

__all__ = [
    "ClusterGraph",
    "FrozenVocabulary",
    "KeywordCluster",
    "KeywordGraph",
    "Path",
    "Vocabulary",
    "__version__",
    "bfs_stable_clusters",
    "build_cluster_graph",
    "dfs_stable_clusters",
    "extract_clusters",
    "normalized_stable_clusters",
    "ta_stable_clusters",
]
