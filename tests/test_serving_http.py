"""Tests for the concurrent HTTP serving tier (repro.serving).

The load-bearing contract: every HTTP answer is byte-identical to
the in-process :class:`~repro.service.ClusterQueryService` payload —
pinned here across both paper problems and against a live streamed
index — plus the serving machinery itself: single-flight batching,
admission control (429 + Retry-After), the read-write lock, error
paths, the hand-written request parser's wire behaviour on raw
sockets, and the CLI ``serve`` subcommand end to end.
"""

import email.utils
import http.client
import json
import re
import socket
import struct
import subprocess
import sys
import threading
import time
from urllib.parse import parse_qs, urlsplit

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.pipeline import find_stable_clusters
from repro.service import ClusterQueryService
from repro.serving import (
    ClusterServer,
    RWLock,
    SingleFlight,
    encode_payload,
    lookup_payload,
    paths_payload,
    refine_payload,
)
from repro.serving.server import split_target
from repro.streaming import StreamingDocumentPipeline
from repro.text.documents import Document, IntervalCorpus


def _corpus(m=4):
    docs = []
    doc = 0
    for interval in range(m):
        for _ in range(22):
            docs.append(Document(doc_id=f"e{doc}", interval=interval,
                                 text="beckham galaxy madrid soccer"))
            doc += 1
        for i in range(6):
            docs.append(Document(doc_id=f"b{doc}", interval=interval,
                                 text=f"noise{i} filler{interval} "
                                      f"chatter{doc}"))
            doc += 1
    corpus = IntervalCorpus()
    corpus.extend(docs)
    return corpus


def _get(url: str, path: str):
    """One GET: returns (status, body bytes, headers dict)."""
    host, port = url.split("//")[1].split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return (response.status, response.read(),
                dict(response.getheaders()))
    finally:
        conn.close()


@pytest.fixture(scope="module", params=["kl", "normalized"])
def built_index(request, tmp_path_factory):
    """A persisted index per paper problem (both must serve)."""
    index_dir = str(tmp_path_factory.mktemp("serving")
                    / f"index-{request.param}")
    find_stable_clusters(_corpus(), l=2, k=3, gap=1,
                         problem=request.param, index_dir=index_dir)
    return index_dir


class TestSingleFlight:
    def test_sequential_calls_all_lead(self):
        flight = SingleFlight()
        assert flight.do("k", lambda: 1) == 1
        assert flight.do("k", lambda: 2) == 2
        assert flight.stats() == (2, 2, 0, 0)

    def test_concurrent_same_key_coalesces(self):
        """Deterministic coalescing: the leader blocks on an event
        until the waiter is known to have joined the flight."""
        flight = SingleFlight()
        leader_entered = threading.Event()
        release_leader = threading.Event()
        results = []

        def compute():
            leader_entered.set()
            assert release_leader.wait(timeout=10)
            return "answer"

        def leader():
            results.append(flight.do("hot", compute))

        def waiter():
            # Never calls compute(): would block forever on the
            # unset event if it did.
            results.append(flight.do(
                "hot", lambda: pytest.fail("waiter computed")))

        lead = threading.Thread(target=leader)
        lead.start()
        assert leader_entered.wait(timeout=10)
        wait = threading.Thread(target=waiter)
        wait.start()
        # The waiter has joined once it is counted as coalesced.
        deadline = time.time() + 10
        while flight.stats()[2] < 1:
            assert time.time() < deadline, "waiter never coalesced"
            time.sleep(0.001)
        release_leader.set()
        lead.join(timeout=10)
        wait.join(timeout=10)
        assert results == ["answer", "answer"]
        assert flight.stats() == (2, 1, 1, 0)

    def test_different_keys_do_not_coalesce(self):
        flight = SingleFlight()
        entered = threading.Event()
        release = threading.Event()

        def slow():
            entered.set()
            release.wait(timeout=10)
            return "slow"

        lead = threading.Thread(
            target=lambda: flight.do("a", slow))
        lead.start()
        assert entered.wait(timeout=10)
        assert flight.do("b", lambda: "fast") == "fast"
        release.set()
        lead.join(timeout=10)
        assert flight.stats() == (2, 2, 0, 0)

    def test_leader_error_propagates_to_waiters(self):
        flight = SingleFlight()
        entered = threading.Event()
        release = threading.Event()
        outcomes = []

        def boom():
            entered.set()
            release.wait(timeout=10)
            raise ValueError("index on fire")

        def leader():
            try:
                flight.do("k", boom)
            except ValueError as exc:
                outcomes.append(("leader", str(exc)))

        def waiter():
            try:
                flight.do("k", lambda: pytest.fail("computed"))
            except ValueError as exc:
                outcomes.append(("waiter", str(exc)))

        lead = threading.Thread(target=leader)
        lead.start()
        assert entered.wait(timeout=10)
        wait = threading.Thread(target=waiter)
        wait.start()
        deadline = time.time() + 10
        while flight.stats()[2] < 1:
            assert time.time() < deadline
            time.sleep(0.001)
        release.set()
        lead.join(timeout=10)
        wait.join(timeout=10)
        assert sorted(outcomes) == [("leader", "index on fire"),
                                    ("waiter", "index on fire")]
        assert flight.stats()[3] == 1  # one error, counted once

    def test_key_leaves_table_after_completion(self):
        flight = SingleFlight()
        flight.do("k", lambda: 1)
        assert flight._inflight == {}


class TestRWLock:
    def test_readers_share(self):
        lock = RWLock()
        lock.acquire_read()
        lock.acquire_read()
        lock.release_read()
        lock.release_read()

    def test_writer_excludes_readers(self):
        lock = RWLock()
        order = []
        with lock.write_locked():
            reader = threading.Thread(
                target=lambda: (lock.acquire_read(),
                                order.append("read"),
                                lock.release_read()))
            reader.start()
            time.sleep(0.05)
            assert order == []  # reader blocked by the writer
            order.append("write")
        reader.join(timeout=10)
        assert order == ["write", "read"]

    def test_writer_preference_over_new_readers(self):
        """A waiting writer is not starved: readers arriving after
        it queue behind the swap."""
        lock = RWLock()
        order = []
        lock.acquire_read()
        writer = threading.Thread(
            target=lambda: (lock.acquire_write(),
                            order.append("write"),
                            lock.release_write()))
        writer.start()
        deadline = time.time() + 10
        while not lock._writers_waiting:
            assert time.time() < deadline
            time.sleep(0.001)
        late_reader = threading.Thread(
            target=lambda: (lock.acquire_read(),
                            order.append("read"),
                            lock.release_read()))
        late_reader.start()
        time.sleep(0.05)
        assert order == []  # both queued behind the first reader
        lock.release_read()
        writer.join(timeout=10)
        late_reader.join(timeout=10)
        assert order == ["write", "read"]


class TestHttpByteIdentity:
    def test_endpoints_match_in_process(self, built_index):
        """refine/lookup/paths over HTTP == in-process payloads,
        byte for byte, for both paper problems."""
        with ClusterServer(built_index).start() as server, \
                ClusterQueryService(built_index) as service:
            probes = [
                ("/refine?keyword=beckham",
                 lambda: refine_payload(service, "beckham")),
                ("/refine?keyword=beckham&interval=0&top=2",
                 lambda: refine_payload(service, "beckham", 0, 2)),
                ("/refine?keyword=nosuchword",
                 lambda: refine_payload(service, "nosuchword")),
                ("/lookup?keyword=madrid",
                 lambda: lookup_payload(service, "madrid")),
                ("/lookup?keyword=madrid&interval=1",
                 lambda: lookup_payload(service, "madrid", 1)),
                ("/paths", lambda: paths_payload(service)),
                ("/paths?keyword=beckham",
                 lambda: paths_payload(service, "beckham")),
            ]
            for path, build in probes:
                status, body, _ = _get(server.url, path)
                assert status == 200, (path, status, body)
                assert body == encode_payload(build()), path

    def test_batching_off_serves_identical_bytes(self, built_index):
        with ClusterServer(built_index, batching=False).start() \
                as server, \
                ClusterQueryService(built_index) as service:
            status, body, _ = _get(server.url,
                                   "/refine?keyword=beckham")
            assert status == 200
            assert body == encode_payload(
                refine_payload(service, "beckham"))
            assert server.server_stats()["singleflight"]["calls"] \
                == 0

    def test_live_streamed_index(self, tmp_path):
        """A server tailing a live index serves the new intervals
        once refresh lands — and stays byte-identical to a fresh
        in-process service at every step."""
        corpus = _corpus(m=3)
        index_dir = str(tmp_path / "live")
        with StreamingDocumentPipeline(
                l=1, k=2, index_dir=index_dir) as pipeline:
            pipeline.add_documents(corpus.documents(0))
            with ClusterServer(index_dir,
                               refresh_seconds=0.02).start() \
                    as server:
                status, body, _ = _get(server.url,
                                       "/refine?keyword=beckham")
                assert status == 200
                assert json.loads(body)["interval"] == 0
                pipeline.add_documents(corpus.documents(1))
                deadline = time.time() + 10
                while server.service.num_intervals < 2:
                    assert time.time() < deadline, \
                        "refresh thread never tailed the append"
                    time.sleep(0.02)
                status, body, _ = _get(server.url,
                                       "/refine?keyword=beckham")
                assert status == 200
                assert json.loads(body)["interval"] == 1
                with ClusterQueryService(index_dir) as fresh:
                    assert body == encode_payload(
                        refine_payload(fresh, "beckham"))


class TestHttpErrors:
    def test_unknown_route_404(self, built_index):
        with ClusterServer(built_index).start() as server:
            status, body, _ = _get(server.url, "/nope")
            assert status == 404
            assert "/refine" in json.loads(body)["endpoints"]

    def test_missing_keyword_400(self, built_index):
        with ClusterServer(built_index).start() as server:
            status, body, _ = _get(server.url, "/refine")
            assert status == 400
            assert "keyword" in json.loads(body)["error"]

    def test_bad_interval_400(self, built_index):
        with ClusterServer(built_index).start() as server:
            status, body, _ = _get(
                server.url, "/refine?keyword=beckham&interval=x")
            assert status == 400
            assert "integer" in json.loads(body)["error"]

    def test_negative_top_400(self, built_index):
        """A negative ``top`` used to slice suggestions off the end
        (``top=-100``: none left, status 200)."""
        with ClusterServer(built_index).start() as server, \
                ClusterQueryService(built_index) as service:
            for top in ("-1", "-100"):
                status, body, _ = _get(
                    server.url, f"/refine?keyword=beckham&top={top}")
                assert status == 400
                assert json.loads(body)["error"] == (
                    f"top= must be a non-negative integer, "
                    f"got {top!r}")
            status, body, _ = _get(
                server.url, "/refine?keyword=beckham&top=0")
            assert status == 200
            assert body == encode_payload(
                refine_payload(service, "beckham", None, 0))

    def test_empty_live_index_400(self, tmp_path):
        index_dir = str(tmp_path / "live")
        pipeline = StreamingDocumentPipeline(l=1, k=2,
                                             index_dir=index_dir)
        try:
            with ClusterServer(index_dir,
                               refresh_seconds=0).start() as server:
                status, body, _ = _get(server.url,
                                       "/refine?keyword=beckham")
                assert status == 400
                assert "no intervals" in json.loads(body)["error"]
        finally:
            pipeline.close()

    def test_stats_endpoint_counters(self, built_index):
        with ClusterServer(built_index).start() as server:
            _get(server.url, "/refine?keyword=beckham")
            _get(server.url, "/refine?keyword=beckham")
            status, body, _ = _get(server.url, "/stats")
            assert status == 200
            payload = json.loads(body)
            assert payload["server"]["requests"] == 3
            # Both refines build a payload (index_reads), but the
            # second is answered from the shared hot cache.
            assert payload["server"]["index_reads"] == 2
            assert payload["service"]["refiner_hits"] == 1


class TestAdmissionControl:
    def test_saturated_server_429_with_retry_after(self,
                                                   built_index):
        with ClusterServer(built_index, max_inflight=2).start() \
                as server:
            # Deterministic saturation: take every admission slot
            # by hand, then knock.
            assert server._inflight.acquire(blocking=False)
            assert server._inflight.acquire(blocking=False)
            try:
                status, body, headers = _get(
                    server.url, "/refine?keyword=beckham")
                assert status == 429
                assert headers["Retry-After"] == "1"
                assert "saturated" in json.loads(body)["error"]
            finally:
                server._release()
                server._release()
            status, _, _ = _get(server.url,
                                "/refine?keyword=beckham")
            assert status == 200
            assert server.server_stats()["rejected"] == 1

    def test_stats_served_even_when_saturated(self, built_index):
        """Monitoring stays reachable while queries are shed."""
        with ClusterServer(built_index, max_inflight=1).start() \
                as server:
            assert server._inflight.acquire(blocking=False)
            try:
                status, _, _ = _get(server.url, "/stats")
            finally:
                server._release()
            assert status == 429  # /stats is admitted like the rest

    def test_budget_split_sizes_the_server(self, built_index):
        from repro.engine import split_serving_budget
        budget = 2 * 1024 * 1024
        hot, clusters, inflight = split_serving_budget(budget)
        with ClusterServer(built_index,
                           memory_budget=budget) as server:
            assert server.max_inflight == inflight
            assert server.service._hot.capacity == hot

    def test_max_inflight_must_be_positive(self, built_index):
        with pytest.raises(ValueError, match="max_inflight"):
            ClusterServer(built_index, max_inflight=0)


# ----------------------------------------------------------------------
# The hand-written request parser, on raw sockets
# ----------------------------------------------------------------------


@pytest.fixture(scope="class")
def served(tmp_path_factory):
    """One started server and an in-process service on its index."""
    index_dir = str(tmp_path_factory.mktemp("wire") / "index")
    find_stable_clusters(_corpus(), l=2, k=3, gap=1,
                         index_dir=index_dir)
    with ClusterServer(index_dir).start() as server, \
            ClusterQueryService(index_dir) as service:
        yield server, service


def _connect(server):
    sock = socket.create_connection((server.host, server.port),
                                    timeout=30)
    return sock, sock.makefile("rb")


def _read_response(stream):
    """One response off *stream*: (status line, header pairs, body).

    Asserts the framing on the way: exactly one ``Content-Length``,
    and the body is that many bytes."""
    status_line = stream.readline()
    headers = []
    while True:
        line = stream.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers.append((name, value.strip()))
    length = [int(v) for n, v in headers if n == "Content-Length"]
    assert len(length) == 1, headers
    return status_line, headers, stream.read(length[0])


def _exchange(server, request):
    """Send *request* on a fresh connection; return the one answer
    and whether the server closed the connection after it."""
    sock, stream = _connect(server)
    try:
        sock.sendall(request)
        status_line, headers, body = _read_response(stream)
        sock.settimeout(0.3)
        try:
            closed = stream.read(1) == b""
        except (TimeoutError, ConnectionError):
            closed = False
        return status_line, headers, body, closed
    finally:
        stream.close()
        sock.close()


def _drain(server, request):
    """Send *request*, half-close, and read to the server's close."""
    sock, stream = _connect(server)
    try:
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)
        return stream.read()
    finally:
        stream.close()
        sock.close()


class TestWireConformance:
    def test_keep_alive_reuse_and_response_shape(self, served):
        server, service = served
        sock, stream = _connect(server)
        try:
            for target, expected in (
                    ("/refine?keyword=beckham&interval=0&top=2",
                     refine_payload(service, "beckham", 0, 2)),
                    ("/lookup?keyword=madrid&interval=1",
                     lookup_payload(service, "madrid", 1)),
                    ("/paths?keyword=beckham",
                     paths_payload(service, "beckham")),
                    ("/paths/", paths_payload(service))):
                sock.sendall(f"GET {target} HTTP/1.1\r\n"
                             f"Host: t\r\n\r\n".encode("ascii"))
                status_line, headers, body = _read_response(stream)
                assert status_line == b"HTTP/1.1 200 OK\r\n"
                assert [name for name, _ in headers] == [
                    "Server", "Date", "Content-Type",
                    "Content-Length"]
                assert dict(headers)["Content-Type"] == \
                    "application/json"
                assert dict(headers)["Server"].startswith(
                    "repro-serving/1 Python/")
                sent = email.utils.parsedate_to_datetime(
                    dict(headers)["Date"]).timestamp()
                assert abs(sent - time.time()) < 5
                assert body == encode_payload(expected), target
        finally:
            stream.close()
            sock.close()

    def test_two_pipelined_requests_in_one_send(self, served):
        server, service = served
        sock, stream = _connect(server)
        try:
            sock.sendall(
                b"GET /refine?keyword=beckham HTTP/1.1\r\n\r\n"
                b"GET /lookup?keyword=madrid HTTP/1.1\r\n"
                b"Host: t\r\nAccept: */*\r\n\r\n")
            _, _, first = _read_response(stream)
            _, _, second = _read_response(stream)
        finally:
            stream.close()
            sock.close()
        assert first == encode_payload(
            refine_payload(service, "beckham"))
        assert second == encode_payload(
            lookup_payload(service, "madrid"))

    @pytest.mark.parametrize("request_head, closes", [
        (b"GET /paths HTTP/1.1\r\n\r\n", False),
        (b"GET /paths HTTP/1.1\r\nConnection: close\r\n\r\n", True),
        (b"GET /paths HTTP/1.1\r\nconnection:  Close \r\n\r\n", True),
        (b"GET /paths HTTP/1.1\r\nConnection: close\r\n"
         b"Connection: keep-alive\r\n\r\n", True),
        (b"GET /paths HTTP/1.0\r\n\r\n", True),
        (b"GET /paths HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
         False),
        (b"GET /paths HTTP/1.1\n\n", False),
    ])
    def test_connection_persistence(self, served, request_head,
                                    closes):
        server, service = served
        status_line, _, body, closed = _exchange(server,
                                                 request_head)
        assert status_line == b"HTTP/1.1 200 OK\r\n"
        assert body == encode_payload(paths_payload(service))
        assert closed == closes

    def test_http09_answers_the_bare_body(self, served):
        server, service = served
        answer = _drain(server, b"GET /lookup?keyword=madrid\r\n\r\n")
        assert answer == encode_payload(
            lookup_payload(service, "madrid"))

    @pytest.mark.parametrize("request_bytes, status, framed", [
        (b"GET /" + b"a" * 70000 + b" HTTP/1.1\r\n\r\n", 414, True),
        (b"GET /paths HTTP/1.1\r\n"
         + b"".join(b"X-%d: v\r\n" % n for n in range(150))
         + b"\r\n", 431, True),
        (b"GET /paths HTTP/1.1\r\nX-Big: " + b"v" * 70000
         + b"\r\n\r\n", 431, True),
        (b"POST /paths HTTP/1.1\r\nContent-Length: 0\r\n\r\n", 501,
         True),
        (b"HEAD /paths HTTP/1.1\r\n\r\n", 501, True),
        # Refused before the request's version is accepted, so the
        # stdlib answers these in HTTP/0.9 style: the body alone.
        (b"GET /paths HTTP/2.0\r\n\r\n", 505, False),
        (b"GET /paths HTTP/1.1 extra\r\n\r\n", 400, False),
        (b"\x16\x03\x01 garbage\r\n\r\n", 400, False),
        (b"GET /paths FTP/1.1\r\n\r\n", 400, False),
    ])
    def test_refusals_stay_the_stdlib_s(self, served, request_bytes,
                                        status, framed):
        """Whatever is not a well-formed ``GET target HTTP/1.x`` is
        answered by ``BaseHTTPRequestHandler`` itself: its status,
        its HTML body, ``Connection: close``."""
        server, _ = served
        answer = _drain(server, request_bytes)
        head, _, body = answer.partition(b"\r\n\r\n") if framed \
            else (b"", b"", answer)
        if framed:
            assert head.startswith(b"HTTP/1.1 %d " % status)
            assert b"\r\nConnection: close" in head
        if request_bytes.startswith(b"HEAD"):
            assert body == b""
        else:
            assert b"Error code: %d" % status in body

    def test_unparsable_target_is_a_json_400(self, served):
        """A target ``urlsplit`` rejects is the client's error: a 400
        with the usual JSON body, and the connection stays usable."""
        server, service = served
        sock, stream = _connect(server)
        try:
            sock.sendall(b"GET http://[x HTTP/1.1\r\n\r\n")
            status_line, _, body = _read_response(stream)
            assert status_line == b"HTTP/1.1 400 Bad Request\r\n"
            assert body == encode_payload(
                {"error": "Invalid IPv6 URL"})
            sock.sendall(b"GET /paths HTTP/1.1\r\n\r\n")
            _, _, body = _read_response(stream)
            assert body == encode_payload(paths_payload(service))
        finally:
            stream.close()
            sock.close()

    @pytest.mark.parametrize("target", [
        b"http://[::1", b"https://[::1/refine", b"http://[x/paths?q=1"])
    def test_every_unparsable_authority_is_a_400(self, served, target):
        server, _ = served
        sock, stream = _connect(server)
        try:
            sock.sendall(b"GET " + target + b" HTTP/1.1\r\n\r\n")
            status_line, _, body = _read_response(stream)
            assert status_line == b"HTTP/1.1 400 Bad Request\r\n"
            assert json.loads(body) == {"error": "Invalid IPv6 URL"}
        finally:
            stream.close()
            sock.close()

    def test_hundredth_header_line_is_the_limit(self, served):
        """The stdlib's count: 99 headers and the blank line pass,
        one more header does not."""
        server, _ = served
        for count, status in ((99, 200), (100, 431)):
            request = (
                b"GET /paths HTTP/1.1\r\n"
                + b"".join(b"X-%d: v\r\n" % n for n in range(count))
                + b"\r\n")
            assert _drain(server, request).startswith(
                b"HTTP/1.1 %d " % status)

    def test_escaped_and_repeated_parameters(self, served):
        server, service = served
        _, _, body, _ = _exchange(
            server,
            b"GET /refine?keyword=nosuch&keyword=beck%68am"
            b"&interval=&top=+2&junk HTTP/1.1\r\n\r\n")
        assert body == encode_payload(
            refine_payload(service, "beckham", None, 2))
        _, _, body, _ = _exchange(
            server,
            b"GET /lookup?keyword=real+madrid%20cf HTTP/1.1\r\n\r\n")
        assert json.loads(body)["keyword"] == "real madrid cf"

    def test_reset_mid_response_is_quiet_and_counted(self, served,
                                                     capfd):
        """A client that resets under pipelined answers used to make
        the server print two chained tracebacks per connection."""
        server, _ = served
        before = server.server_stats()["disconnects"]
        sock = socket.create_connection((server.host, server.port))
        sock.sendall(b"GET /paths HTTP/1.1\r\nHost: t\r\n\r\n" * 50)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))
        sock.close()  # RST, not FIN
        deadline = time.time() + 10
        while server.server_stats()["disconnects"] == before:
            assert time.time() < deadline, "reset never noticed"
            time.sleep(0.01)
        status, body, _ = _get(server.url, "/stats")
        assert status == 200
        assert json.loads(body)["server"]["disconnects"] == before + 1
        assert "Traceback" not in capfd.readouterr().err


def _reference_split(target):
    """``(route, params)`` the way the handler used to get them."""
    parsed = urlsplit(target)
    return (parsed.path.rstrip("/") or "/",
            {key: values[-1]
             for key, values in parse_qs(parsed.query).items()})


# What a request target can hold once the request line has been split
# on whitespace, weighted towards the characters that mean something.
_TARGET_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from("ab=&+%?#/:;0123456789AFaf\u00e9"),
        st.characters(blacklist_categories=("Cs", "Z", "Cc"))),
    max_size=40)


class TestSplitTarget:
    @given(query=_TARGET_TEXT)
    def test_query_parses_as_parse_qs_did(self, query):
        target = "/refine?" + query
        assert split_target(target) == _reference_split(target)

    @given(target=_TARGET_TEXT.filter(
        lambda text: text.split() == [text]))
    def test_any_target_splits_as_urlsplit_did(self, target):
        try:
            expected = _reference_split(target)
        except ValueError:
            with pytest.raises(ValueError):
                split_target(target)
        else:
            assert split_target(target) == expected


class TestServerLifecycle:
    def test_start_after_close_raises(self, built_index):
        server = ClusterServer(built_index)
        server.close()
        server.close()  # idempotent
        with pytest.raises(RuntimeError, match="used after close"):
            server.start()

    def test_close_closes_owned_service(self, built_index):
        server = ClusterServer(built_index).start()
        service = server.service
        server.close()
        with pytest.raises(RuntimeError, match="used after close"):
            service.refine("beckham")

    def test_borrowed_service_left_open(self, built_index):
        with ClusterQueryService(built_index) as service:
            server = ClusterServer(service).start()
            server.close()
            assert service.refine("beckham") is not None

    def test_cli_serve_subprocess_round_trip(self, built_index):
        """The `serve` subcommand end to end: ephemeral port,
        banner URL, byte-identical answer, clean shutdown."""
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             built_index, "--port", "0", "--max-seconds", "60"],
            stdout=subprocess.PIPE, text=True)
        try:
            banner = process.stdout.readline()
            match = re.search(r"at (http://[\d.]+:\d+)", banner)
            assert match, banner
            status, body, _ = _get(match.group(1),
                                   "/refine?keyword=beckham")
            assert status == 200
            with ClusterQueryService(built_index) as service:
                assert body == encode_payload(
                    refine_payload(service, "beckham"))
        finally:
            process.terminate()
            process.wait(timeout=10)

    def test_close_of_an_idle_server_is_prompt(self, built_index):
        """close() waits for the accept loop's next shutdown check,
        not for a half-second poll."""
        for _ in range(10):
            server = ClusterServer(built_index).start()
            time.sleep(0.01)
            started = time.monotonic()
            server.close()
            assert time.monotonic() - started < 0.2
            assert not server._serve_thread.is_alive()

    def test_close_with_idle_keepalive_stops_every_thread(self,
                                                          tmp_path):
        """close() over a live, refreshing index while a keep-alive
        connection sits idle: it returns promptly, and the refresh
        and serve threads are gone when it does."""
        index_dir = str(tmp_path / "live")
        with StreamingDocumentPipeline(
                l=1, k=2, index_dir=index_dir) as pipeline:
            pipeline.add_documents(_corpus(m=1).documents(0))
            server = ClusterServer(index_dir,
                                   refresh_seconds=0.01).start()
            conn = http.client.HTTPConnection(server.host, server.port,
                                              timeout=30)
            try:
                conn.request("GET", "/refine?keyword=beckham")
                assert conn.getresponse().read()
                time.sleep(0.05)  # a few refresh polls
                started = time.monotonic()
                server.close()
                assert time.monotonic() - started < 3
                assert not server._refresh_thread.is_alive()
                assert not server._serve_thread.is_alive()
            finally:
                conn.close()

    def test_cli_serve_exits_promptly_on_sigterm(self, tmp_path):
        """SIGTERM to `serve --poll` over a live index, while a
        keep-alive connection is open and idle: the process exits
        cleanly in well under the old two 5 s join timeouts."""
        index_dir = str(tmp_path / "live")
        with StreamingDocumentPipeline(
                l=1, k=2, index_dir=index_dir) as pipeline:
            pipeline.add_documents(_corpus(m=1).documents(0))
            process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 index_dir, "--port", "0", "--poll", "0.01"],
                stdout=subprocess.PIPE, text=True)
            conn = None
            try:
                banner = process.stdout.readline()
                match = re.search(r"at http://([\d.]+):(\d+)", banner)
                assert match, banner
                conn = http.client.HTTPConnection(
                    match.group(1), int(match.group(2)), timeout=30)
                conn.request("GET", "/refine?keyword=beckham")
                assert conn.getresponse().status == 200
                time.sleep(0.05)  # a few refresh polls
                started = time.monotonic()
                process.terminate()
                assert process.wait(timeout=10) == 0
                assert time.monotonic() - started < 3
            finally:
                if conn is not None:
                    conn.close()
                if process.poll() is None:
                    process.kill()
                    process.wait()
