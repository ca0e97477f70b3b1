"""Seeded input generators: the same seed gives the same inputs.

Four input families, one per workload.  The program under test only
ever sees what these produce (an XML file, lists of documents, lists
of clusters, request bytes); every generator also says what it
planted, so the workloads can check the program's outputs.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.paths import Path
from repro.datagen.blogosphere import BlogosphereGenerator
from repro.datagen.events import Event, EventSchedule, drifting_event
from repro.datagen.vocab import ZipfVocabulary
from repro.graph.clusters import KeywordCluster
from repro.text.documents import Document

ZIPF_EXPONENT = 1.1
FIRST_YEAR = 1984


class ZipfSampler:
    """Zipf-distributed draws over a fixed item list.

    Cumulative weights are built once, so a draw costs a bisection
    rather than the pass over every weight that
    ``random.choices(weights=...)`` makes per call."""

    def __init__(self, items: Sequence[str], rng: random.Random,
                 exponent: float = ZIPF_EXPONENT) -> None:
        self.items = items
        self._rng = rng
        self._cum = list(itertools.accumulate(
            1.0 / (rank ** exponent)
            for rank in range(1, len(items) + 1)))

    def draw(self) -> str:
        """One item."""
        at = bisect.bisect(self._cum,
                           self._rng.random() * self._cum[-1])
        return self.items[min(at, len(self.items) - 1)]

    def sample(self, count: int) -> List[str]:
        """*count* items, with replacement."""
        return [self.draw() for _ in range(count)]


# ----------------------------------------------------------------------
# batch_corpus: a DBLP-shaped XML file
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Topic:
    """One planted research topic: its words and active intervals."""

    name: str
    words: Tuple[str, ...]
    intervals: Tuple[int, ...]
    kind: str


@dataclass
class DblpPlan:
    """What :func:`write_dblp_xml` planted in the file it wrote."""

    path: str
    accepted: int
    repaired: int
    skipped: int
    malformed: int
    topics: List[Topic]


def _interval_sizes(records: int, intervals: int) -> List[int]:
    """Records per year: tripling over the span, three burst years.

    The bursts sit at fixed quarters of the span, not at seeded
    years: the largest interval sets peak memory and much of the
    co-occurrence time, and it should not move with the seed."""
    shape = [1.0 + 2.0 * i / max(1, intervals - 1)
             for i in range(intervals)]
    for quarter in (1, 2, 3):
        shape[quarter * intervals // 4] *= 1.6
    total = sum(shape)
    return [max(1, int(records * part / total)) for part in shape]


def plant_topics(rng: random.Random, words: Sequence[str],
                 count: int, intervals: int) -> List[Topic]:
    """*count* topics of six words that persist, gap, or burst."""
    topics = []
    for n in range(count):
        kind = ("persist", "gap", "burst")[n % 3]
        if kind == "persist":
            span = rng.randint(4, min(8, intervals))
            start = rng.randrange(0, intervals - span + 1)
            active = tuple(range(start, start + span))
        elif kind == "gap":
            span = min(rng.randint(5, 7), intervals)
            start = rng.randrange(0, intervals - span + 1)
            active = tuple(range(start, start + span, 2))
        else:
            active = (rng.randrange(intervals),)
        topics.append(Topic(f"topic{n}",
                            tuple(words[6 * n:6 * n + 6]),
                            active, kind))
    return topics


def write_dblp_xml(path: str, seed: int, records: int,
                   intervals: int, vocabulary: int,
                   topics: int) -> DblpPlan:
    """Write a seeded DBLP-shaped publication file to *path*.

    Titles are 6-14 words from a Zipf vocabulary; a planted topic
    puts most of its six words into a share of the titles of each
    year it is active.  The file carries what the real dump does
    (SNIPPETS.md snippet 1): undeclared ``&uuml;``-style entities in
    author names, inline markup in titles, ``<www>`` homepage
    records, records in no particular year order, and a fixed number
    of records with no title, an empty title, or no year."""
    rng = random.Random(seed)
    words = ZipfVocabulary(vocabulary + 6 * topics,
                           exponent=ZIPF_EXPONENT, seed=seed).words
    background = ZipfSampler(words[:vocabulary], rng)
    planted = plant_topics(rng, words[vocabulary:], topics, intervals)

    rows: List[Tuple[int, List[str]]] = []
    sizes = _interval_sizes(records, intervals)
    for interval, size in enumerate(sizes):
        made = 0
        for topic in planted:
            if interval not in topic.intervals:
                continue
            for _ in range(max(8, round(0.04 * size))):
                mentioned = [w for w in topic.words
                             if rng.random() < 0.85] \
                    or list(topic.words[:2])
                title = mentioned + background.sample(
                    max(2, rng.randint(6, 14) - len(mentioned)))
                rng.shuffle(title)
                rows.append((interval, title))
                made += 1
        for _ in range(max(0, size - made)):
            rows.append((interval,
                         background.sample(rng.randint(6, 14))))
    rng.shuffle(rows)

    plan = DblpPlan(path=path, accepted=len(rows), repaired=0,
                    skipped=max(1, records // 100),
                    malformed=max(3, records // 200),
                    topics=planted)
    extras = ["www"] * plan.skipped + ["bad"] * plan.malformed
    every = max(1, len(rows) // len(extras))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('<?xml version="1.0" encoding="UTF-8"?>\n<dblp>\n')
        for n, (interval, title) in enumerate(rows):
            if n % every == 0 and extras:
                fh.write(_extra_record(extras.pop(), n, interval))
            author = f"Author {n % 997}"
            if n % 11 == 0:
                author = f"J&uuml;rgen M&ouml;ller {n % 997}"
                plan.repaired += 2
            if n % 7 == 0:
                title = [f"<i>{title[0]}</i>"] + title[1:] \
                    + ["H<sub>2</sub>O"]
            fh.write(
                f'<article key="journals/synth/r{n}" '
                f'mdate="{FIRST_YEAR + interval}-01-01">'
                f"<author>{author}</author>"
                f"<title>{' '.join(title)}.</title>"
                f"<year>{FIRST_YEAR + interval}</year>"
                f"<journal>Synth</journal></article>\n")
        while extras:
            fh.write(_extra_record(extras.pop(), len(rows), 0))
        fh.write("</dblp>\n")
    return plan


def _extra_record(kind: str, n: int, interval: int) -> str:
    """A ``<www>`` record, or one of three malformed publications."""
    if kind == "www":
        return (f'<www key="homepages/h{n}"><author>Author {n}'
                f"</author><title>Home Page</title></www>\n")
    year = f"<year>{FIRST_YEAR + interval}</year>"
    body = (year, f"<title>  </title>{year}",
            "<title>Undated report</title>")[n % 3]
    return (f'<inproceedings key="conf/synth/bad{n}">'
            f"<author>Author {n}</author>{body}</inproceedings>\n")


# ----------------------------------------------------------------------
# stream_live: blog-shaped posts, one interval at a time
# ----------------------------------------------------------------------


class PostStream:
    """Blog-shaped posts, generated in interval order on demand.

    ``buffer(n)`` generates ahead (set-up); ``next_interval()`` hands
    out the oldest buffered interval or generates the next one.  The
    event schedule covers *horizon* intervals (a run stops on its
    time budget long before that) with one new event every four, so
    every stretch of the stream carries about the same load whatever
    the seed; which shape an event takes, how long it lasts and how
    many posts it draws are the seed's."""

    def __init__(self, seed: int, vocabulary: int, background: int,
                 horizon: int) -> None:
        rng = random.Random(seed)
        schedule = EventSchedule()
        for n in range(horizon // 4):
            words = [f"ev{n}w{i}" for i in range(6)]
            start = 4 * n + rng.randrange(4)
            posts = rng.randint(20, 30)
            shape = n % 4
            if shape == 0:
                schedule.add(Event.burst(f"e{n}", words, start, posts))
            elif shape == 1:
                schedule.add(Event.with_gaps(
                    f"e{n}", words,
                    range(start, start + rng.randint(5, 9), 2), posts))
            elif shape == 2:
                schedule.extend(drifting_event(
                    f"e{n}", words[:3], words[3:],
                    [f"ev{n}x{i}" for i in range(3)], start,
                    rng.randint(2, 4), rng.randint(2, 4), posts))
            else:
                schedule.add(Event.persistent(
                    f"e{n}", words, start, rng.randint(3, 10), posts))
        self.schedule = schedule
        self._generator = BlogosphereGenerator(
            ZipfVocabulary(vocabulary, seed=seed), schedule,
            background_posts=background, seed=seed)
        self._buffered: List[List[Document]] = []
        self._next = 0

    def buffer(self, count: int) -> None:
        """Generate *count* more intervals ahead of their use."""
        for _ in range(count):
            self._buffered.append(
                self._generator.generate_interval(self._next))
            self._next += 1

    def next_interval(self) -> List[Document]:
        """The next interval's posts, in stream order."""
        if not self._buffered:
            self.buffer(1)
        return self._buffered.pop(0)


# ----------------------------------------------------------------------
# graph_solve: cluster-level inputs, no documents
# ----------------------------------------------------------------------


def _chain_edges(rng: random.Random, keywords: Sequence[str]
                 ) -> Tuple[Tuple[str, str, float], ...]:
    return tuple((keywords[i], keywords[i + 1],
                  round(rng.uniform(0.2, 0.9), 3))
                 for i in range(len(keywords) - 1))


def cluster_stream(seed: int, intervals: int, per_interval: int,
                   pool: int, size: int = 8
                   ) -> List[List[KeywordCluster]]:
    """A drifting-topic cluster stream.

    Every other cluster of an interval continues a lineage: it is
    the lineage's cluster of the previous interval with one to three
    of its keywords replaced, so stable paths of every length exist
    and follow the drift.  The rest are fresh draws from the pool,
    which share an edge only by chance.  Clusters are listed in a
    shuffled order."""
    rng = random.Random(seed)
    names = [f"kw{rank}" for rank in range(pool)]
    stream: List[List[KeywordCluster]] = []
    previous: List[List[str]] = []
    for interval in range(intervals):
        current: List[List[str]] = []
        for n in range(per_interval):
            if previous and n % 2 == 0:
                kept = rng.sample(previous[n],
                                  size - rng.randint(1, 3))
                fresh = rng.sample(names, size)
                keywords = (kept + [w for w in fresh
                                    if w not in kept])[:size]
            else:
                keywords = rng.sample(names, size)
            current.append(sorted(keywords))
        previous = current
        listed = list(current)
        rng.shuffle(listed)
        stream.append([
            KeywordCluster(frozenset(keywords),
                           edges=_chain_edges(rng, keywords),
                           interval=interval)
            for keywords in listed])
    return stream


# ----------------------------------------------------------------------
# serve_http: an index worth of clusters, and a request schedule
# ----------------------------------------------------------------------


def serving_clusters(seed: int, intervals: int, per_interval: int,
                     pool: int
                     ) -> Tuple[List[List[KeywordCluster]], List[Path]]:
    """Clusters over a Zipf keyword pool plus a fixed top-k.

    Low-rank keywords sit in many clusters of every interval, so
    their postings are long; the tail keywords make most
    ``(interval, keyword)`` keys distinct."""
    rng = random.Random(seed)
    sampler = ZipfSampler([f"kw{rank}" for rank in range(pool)], rng)
    index: List[List[KeywordCluster]] = []
    for interval in range(intervals):
        clusters = []
        for _ in range(per_interval):
            keywords = sorted(set(sampler.sample(rng.randint(4, 9))))
            while len(keywords) < 3:
                keywords = sorted(set(keywords + sampler.sample(2)))
            clusters.append(KeywordCluster(
                frozenset(keywords),
                edges=_chain_edges(rng, keywords), interval=interval))
        index.append(clusters)
    paths = sorted(
        (Path(weight=round(rng.uniform(1, 3), 3),
              nodes=tuple((t, rng.randrange(per_interval))
                          for t in range(start, start + 4)))
         for start in rng.sample(range(intervals - 3),
                                 min(5, intervals - 3))),
        reverse=True)
    return index, paths


@dataclass(frozen=True)
class Request:
    """One scheduled HTTP request."""

    route: str
    params: Tuple[Tuple[str, str], ...]

    @property
    def target(self) -> str:
        """The request target (path plus query string)."""
        query = "&".join(f"{k}={v}" for k, v in self.params)
        return f"{self.route}?{query}" if query else self.route

    @property
    def wire(self) -> bytes:
        """The bytes a keep-alive HTTP/1.1 client sends."""
        return (f"GET {self.target} HTTP/1.1\r\n"
                f"Host: bench\r\n\r\n").encode("ascii")


def request_schedule(seed: int, count: int, pool: int,
                     intervals: int) -> List[Request]:
    """*count* requests: 60 % refine, 30 % lookup, 10 % paths.

    Keywords are Zipf over the pool, intervals uniform."""
    rng = random.Random(seed)
    sampler = ZipfSampler([f"kw{rank}" for rank in range(pool)], rng)
    schedule = []
    for _ in range(count):
        roll = rng.random()
        keyword = ("keyword", sampler.draw())
        interval = ("interval", str(rng.randrange(intervals)))
        if roll < 0.6:
            schedule.append(Request("/refine", (keyword, interval)))
        elif roll < 0.9:
            schedule.append(Request("/lookup", (keyword, interval)))
        else:
            schedule.append(Request("/paths", (keyword,)))
    return schedule


# ----------------------------------------------------------------------
# Digests (the harness test pins seed -> bytes)
# ----------------------------------------------------------------------


def digest_of(parts) -> str:
    """sha256 over the ``repr`` of every item of *parts*."""
    sha = hashlib.sha256()
    for part in parts:
        sha.update(repr(part).encode("utf-8"))
    return sha.hexdigest()


def cluster_digest(stream: Sequence[Sequence[KeywordCluster]]) -> str:
    """Digest of a cluster stream's tokens and edges."""
    return digest_of((c.interval, c.tokens, c.token_edges)
                     for clusters in stream for c in clusters)


def document_digest(intervals: Sequence[Sequence[Document]]) -> str:
    """Digest of a post stream's documents."""
    return digest_of((d.doc_id, d.interval, d.text)
                     for docs in intervals for d in docs)


def file_digest(path: str) -> str:
    """sha256 of a file's bytes."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def topic_stems(topics: Sequence[Topic], stem) -> Dict[str, Topic]:
    """Stemmed topic word -> the topic that planted it."""
    return {stem(word): topic for topic in topics
            for word in topic.words}
