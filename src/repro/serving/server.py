"""Concurrent HTTP serving of a persisted cluster index.

:class:`ClusterServer` fronts one thread-safe
:class:`~repro.service.ClusterQueryService` with a stdlib
:class:`~http.server.ThreadingHTTPServer` speaking JSON over HTTP —
the "heavy traffic from millions of users" path of the paper's
Section-1 application, reduced to machinery this repository can
measure.  Four GET endpoints mirror the in-process API:

* ``/refine?keyword=K[&interval=N][&top=T]`` — refinement
  suggestions (Section 1), rendered exactly as ``query refine``;
* ``/lookup?keyword=K[&interval=N]`` — the cluster a keyword falls
  into;
* ``/paths[?keyword=K]`` — the run's stable paths, rendered from the
  index;
* ``/stats`` — serving counters (cache hit rates, admission,
  single-flight batching) for monitoring and the load benchmark.

Answers are **byte-identical** to the in-process service: every
endpoint's body is :func:`encode_payload` over a payload built by the
same module-level functions a direct caller would use, so the
round-trip tests can pin HTTP bytes against in-process bytes.

The perf machinery under load:

* **admission control** — a ``--memory-budget`` splits into the two
  read caches plus an in-flight request bound
  (:func:`repro.engine.planner.split_serving_budget`); requests past
  the bound get ``429`` with ``Retry-After`` instead of queueing
  unboundedly;
* **single-flight batching** — concurrent requests for the same
  keyword/interval coalesce into one index read
  (:class:`~repro.serving.batching.SingleFlight`);
* **live tailing** — a background thread ``refresh()``-es a streaming
  index on a poll cadence; the service's read-write lock means the
  segment swap waits only for in-flight answers, never blocking the
  steady query load for the whole scan.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from email.utils import formatdate
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple, Union
from urllib.parse import unquote, urlsplit

from repro.engine.planner import split_serving_budget
from repro.search.refinement import render_refinement
from repro.service import ClusterQueryService
from repro.serving.batching import SingleFlight
from repro.text.stemmer import stem

DEFAULT_TOP = 8
DEFAULT_REFRESH_SECONDS = 0.5
RETRY_AFTER_SECONDS = 1
# How often the accept loop looks for a shutdown() request; close()
# waits up to this long for it, and an idle server wakes this often.
SHUTDOWN_POLL_SECONDS = 0.05

ROUTES = ("/refine", "/lookup", "/paths", "/stats")

# The stdlib's bounds on one header line and on the header count
# (http.client._MAXLINE / _MAXHEADERS), kept for the hand parser.
MAX_HEADER_LINE = 65536
MAX_HEADERS = 100


# ----------------------------------------------------------------------
# Payloads (shared by the HTTP handler and the in-process tests)
# ----------------------------------------------------------------------


def encode_payload(payload: Dict[str, Any]) -> bytes:
    """Canonical JSON bytes for *payload* (sorted keys + newline).

    Both the HTTP handler and the byte-identity tests encode through
    this one function, so "the same answer" is checkable on the exact
    bytes a client receives."""
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def refine_payload(service: ClusterQueryService, keyword: str,
                   interval: Optional[int] = None,
                   top: int = DEFAULT_TOP) -> Dict[str, Any]:
    """The ``/refine`` answer: suggestions for one keyword.

    ``rendered`` is the exact :func:`render_refinement` string the
    CLI prints, so HTTP clients see the same text as ``query
    refine``."""
    if interval is None:
        interval = service.latest_interval
    result = service.refine(keyword, interval)
    payload: Dict[str, Any] = {
        "endpoint": "refine",
        "keyword": keyword,
        "interval": interval,
        "found": result is not None,
    }
    if result is None:
        payload.update(stem=stem(keyword.lower()), rendered=None,
                       strongest=None, suggestions=[])
    else:
        payload.update(
            stem=result.query_stem,
            rendered=render_refinement(result, max_suggestions=top),
            strongest=result.strongest,
            suggestions=[[kw, rho]
                         for kw, rho in result.suggestions[:top]])
    return payload


def lookup_payload(service: ClusterQueryService, keyword: str,
                   interval: Optional[int] = None) -> Dict[str, Any]:
    """The ``/lookup`` answer: the cluster one keyword falls into."""
    if interval is None:
        interval = service.latest_interval
    cluster = service.lookup(keyword, interval)
    payload: Dict[str, Any] = {
        "endpoint": "lookup",
        "keyword": keyword,
        "interval": interval,
        "found": cluster is not None,
    }
    if cluster is None:
        payload.update(keywords=[], edges=[])
    else:
        payload.update(
            keywords=sorted(cluster.keywords),
            edges=[[u, v, rho] for u, v, rho in cluster.edges])
    return payload


def paths_payload(service: ClusterQueryService,
                  keyword: Optional[str] = None) -> Dict[str, Any]:
    """The ``/paths`` answer: stable paths, optionally filtered."""
    paths = (service.paths_for(keyword) if keyword
             else service.stable_paths())
    return {
        "endpoint": "paths",
        "keyword": keyword,
        "count": len(paths),
        "paths": [{
            "weight": path.weight,
            "nodes": [[interval, idx]
                      for interval, idx in path.nodes],
            "rendered": service.render_path(path),
        } for path in paths],
    }


# ----------------------------------------------------------------------
# The HTTP layer
# ----------------------------------------------------------------------


def split_target(target: str) -> Tuple[str, Dict[str, str]]:
    """A request target as ``(route, params)``.

    What ``urlsplit`` + ``parse_qs`` gave the handler — the path
    without a trailing slash; ``%xx`` and ``+`` decoded, blank values
    dropped, the last value of a repeated name winning — without
    building their intermediate objects.  An origin-form target
    (``/path?query``) has no scheme, authority or fragment for
    ``urlsplit`` to find, so it is split at the first ``?``; any
    other form still goes through ``urlsplit``."""
    if target.startswith("/") and not target.startswith("//") \
            and "#" not in target:
        path, _, query = target.partition("?")
    else:
        parsed = urlsplit(target)
        path, query = parsed.path, parsed.query
    params = {}
    for field in query.split("&"):
        name, _, value = field.partition("=")
        if value:
            params[unquote(name.replace("+", " "))] = \
                unquote(value.replace("+", " "))
    return path.rstrip("/") or "/", params


class _ThreadingServer(ThreadingHTTPServer):
    """ThreadingHTTPServer wired back to its ClusterServer."""

    daemon_threads = True
    allow_reuse_address = True
    # socketserver's default listen backlog is 5; a load spike of
    # concurrent connects would overflow it and stall clients on
    # SYN retransmits for whole seconds.
    request_queue_size = 128
    cluster_server: "ClusterServer"
    # (second, its HTTP date), shared by all connections.
    _date: Tuple[int, str] = (0, "")

    def http_date(self) -> str:
        """The ``Date:`` header value, formatted once per second."""
        now = int(time.time())
        second, text = self._date
        if second != now:
            text = formatdate(now, usegmt=True)
            self._date = (now, text)
        return text


class _Handler(BaseHTTPRequestHandler):
    """One GET request: admit, dispatch, answer JSON.

    The request line and headers of a well-formed ``GET target
    HTTP/1.0|1.1`` are read by hand and the answer leaves as one
    write; every other request line takes the stdlib's
    ``parse_request``, so its 400/501/505 answers stay the
    stdlib's."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serving/1"
    # Unbuffered: an answer is one write of status line + headers +
    # body, so a vanished client fails that write, where it is
    # caught.  Nagle is disabled so the write is not held for the
    # client's delayed ACK — otherwise every keep-alive request
    # stalls ~40ms on the Nagle/delayed-ACK interaction.
    wbufsize = 0
    disable_nagle_algorithm = True

    # Quiet by default: the load benchmark would otherwise spray one
    # stderr line per request.
    def log_message(self, format: str, *args: Any) -> None:
        """Suppress per-request stderr logging."""

    def handle_one_request(self) -> None:
        """One request; a client that went away ends the connection
        quietly and is counted, not reported as a server error."""
        try:
            super().handle_one_request()
        except ConnectionError:
            self.close_connection = True
            self.server.cluster_server._count(  # type: ignore
                "disconnects")

    def parse_request(self) -> bool:
        """Parse the request line and headers of ``self.raw_requestline``.

        Honours what a GET needs of the headers: ``Connection:
        close|keep-alive`` (the first such header; an HTTP/1.0
        request closes unless it asks to keep alive) and the
        stdlib's bounds on header line length and count (431).  A
        GET carries no body, so ``Expect`` is not answered, and
        folded or colon-less header lines are skipped."""
        requestline = str(self.raw_requestline, "iso-8859-1")
        words = requestline.split()
        if len(words) != 3 or words[0] != "GET" \
                or words[2] not in ("HTTP/1.1", "HTTP/1.0"):
            return super().parse_request()
        self.command, path, self.request_version = words
        if path.startswith("//"):  # as the stdlib: not an authority
            path = "/" + path.lstrip("/")
        self.path = path
        self.requestline = requestline.rstrip("\r\n")
        close = words[2] == "HTTP/1.0"
        connection = None
        readline = self.rfile.readline
        for _ in range(MAX_HEADERS):
            line = readline(MAX_HEADER_LINE + 1)
            if len(line) > MAX_HEADER_LINE:
                self.send_error(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                    "Line too long",
                    f"got more than {MAX_HEADER_LINE} bytes when "
                    f"reading header line")
                return False
            if line in (b"\r\n", b"\n", b""):
                if connection == b"close":
                    close = True
                elif connection == b"keep-alive":
                    close = False
                self.close_connection = close
                return True
            if connection is None \
                    and line[:11].lower() == b"connection:":
                connection = line[11:].strip().lower()
        self.send_error(
            HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
            "Too many headers",
            f"got more than {MAX_HEADERS} headers")
        return False

    def _respond(self, status: int, payload: Dict[str, Any],
                 retry_after: Optional[int] = None) -> None:
        body = encode_payload(payload)
        if self.request_version == "HTTP/0.9":  # no status, no headers
            self.wfile.write(body)
            return
        date = self.server.http_date()  # type: ignore[attr-defined]
        head = (f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
                f"Server: {self.version_string()}\r\n"
                f"Date: {date}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n")
        if retry_after is not None:
            head += f"Retry-After: {retry_after}\r\n"
        self.wfile.write((head + "\r\n").encode("latin-1") + body)

    def do_GET(self) -> None:
        """Route one request through admission to its endpoint."""
        server = self.server.cluster_server  # type: ignore[attr-defined]
        try:
            route, params = split_target(self.path)
        except ValueError as exc:  # e.g. an unparsable absolute URL
            self._respond(400, {"error": str(exc)})
            return
        if route not in ROUTES:
            self._respond(404, {"error": f"no such endpoint: {route}",
                                "endpoints": list(ROUTES)})
            return
        if not server._admit():
            self._respond(
                429,
                {"error": "server saturated: "
                          f"{server.max_inflight} requests in flight",
                 "retry_after": RETRY_AFTER_SECONDS},
                retry_after=RETRY_AFTER_SECONDS)
            return
        try:
            try:
                status, payload = server.answer(route, params)
            except Exception as exc:  # noqa: BLE001 — serve, don't die
                server._count("errors")
                status, payload = 500, {
                    "error": f"{type(exc).__name__}: {exc}"}
            self._respond(status, payload)
        finally:
            server._release()


class ClusterServer:
    """A concurrent JSON-over-HTTP server over one cluster index.

    *index* is an index directory (the service — and its reader — are
    opened and owned, closed with the server) or an already-built
    :class:`~repro.service.ClusterQueryService` (borrowed, left open).
    ``memory_budget`` (bytes) splits into the hot-keyword cache, the
    decoded-cluster cache, and the admission bound via
    :func:`repro.engine.planner.split_serving_budget`; ``cache_size``
    / ``cluster_cache_size`` / ``max_inflight`` override individual
    pieces.  ``batching=False`` disables single-flight coalescing
    (the load benchmark's baseline).  ``refresh_seconds`` is the live
    tailing cadence (0 disables it; irrelevant once the index is
    complete).  ``port=0`` binds an ephemeral port — read
    :attr:`port` after :meth:`start`.
    """

    def __init__(self, index: Union[str, ClusterQueryService],
                 host: str = "127.0.0.1", port: int = 0, *,
                 memory_budget: Optional[int] = None,
                 cache_size: Optional[int] = None,
                 cluster_cache_size: Optional[int] = None,
                 max_inflight: Optional[int] = None,
                 batching: bool = True,
                 refresh_seconds: float = DEFAULT_REFRESH_SECONDS
                 ) -> None:
        hot, clusters, admit = split_serving_budget(memory_budget)
        if cache_size is not None:
            hot = cache_size
        if cluster_cache_size is not None:
            clusters = cluster_cache_size
        if max_inflight is not None:
            admit = max_inflight
        if admit < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {admit}")
        self._owns_service = isinstance(index, str)
        if isinstance(index, str):
            self.service = ClusterQueryService(
                index, cache_size=hot, cluster_cache_size=clusters)
        else:
            self.service = index
        self._host = host
        self._port = port
        self.max_inflight = admit
        self.batching = batching
        self.flight = SingleFlight()
        self.refresh_seconds = refresh_seconds
        self._inflight = threading.Semaphore(admit)
        self._counters = {"requests": 0, "rejected": 0, "errors": 0,
                          "index_reads": 0, "refreshes": 0,
                          "disconnects": 0}
        self._counter_lock = threading.Lock()
        self._httpd: Optional[_ThreadingServer] = None
        self._serve_thread: Optional[threading.Thread] = None
        self._refresh_thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "ClusterServer":
        """Bind the socket and start serving on background threads.

        Returns self so ``with ClusterServer(...).start() as s:``
        reads naturally."""
        if self._closed:
            raise RuntimeError(
                f"{type(self).__name__} used after close()")
        if self._httpd is not None:
            return self
        self._httpd = _ThreadingServer((self._host, self._port),
                                       _Handler)
        self._httpd.cluster_server = self
        # The server's threads (and the connection threads they
        # start) inherit a mask that blocks SIGTERM/SIGINT, so the
        # kernel hands those signals to the caller's thread, where
        # Python runs its handlers; otherwise a signal taken by a
        # server thread leaves the main thread asleep.
        masked = {signal.SIGTERM, signal.SIGINT}
        previous = signal.pthread_sigmask(signal.SIG_BLOCK, masked)
        try:
            self._serve_thread = threading.Thread(
                target=self._httpd.serve_forever,
                args=(SHUTDOWN_POLL_SECONDS,),
                name="repro-serving", daemon=True)
            self._serve_thread.start()
            if self.refresh_seconds > 0 and not self.service.complete:
                self._refresh_thread = threading.Thread(
                    target=self._refresh_loop,
                    name="repro-serving-refresh", daemon=True)
                self._refresh_thread.start()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, previous)
        return self

    @property
    def host(self) -> str:
        """The bound host."""
        return self._host

    @property
    def port(self) -> int:
        """The bound port (the real one once started with port=0)."""
        if self._httpd is not None:
            return self._httpd.server_address[1]
        return self._port

    @property
    def url(self) -> str:
        """Base URL clients should hit."""
        return f"http://{self.host}:{self.port}"

    def _refresh_loop(self) -> None:
        """Tail the live index until it finalizes or the server stops.

        Each poll takes the service's write lock only for the actual
        segment swap; in-flight queries drain first, queued ones see
        the new intervals."""
        while not self._stop.wait(self.refresh_seconds):
            try:
                if self.service.refresh():
                    self._count("refreshes")
                if self.service.complete:
                    return
            except RuntimeError:
                return  # service closed under us: shutting down

    def close(self) -> None:
        """Stop serving and close what this server owns (idempotent).

        One fixed order, each step waited for: the refresh thread
        stops (it finishes any refresh in progress), ``shutdown()``
        returns once the accept loop has exited (within
        ``SHUTDOWN_POLL_SECONDS``), ``server_close()``
        closes the listening socket, then the service closes.  Idle
        keep-alive connections are daemon threads and hold nothing,
        so none of the steps waits on a client."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        if self._refresh_thread is not None:
            self._refresh_thread.join()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._serve_thread.join()
        if self._owns_service:
            self.service.close()

    def __enter__(self) -> "ClusterServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------

    def _admit(self) -> bool:
        """Try to take an admission slot; False means saturated."""
        if self._inflight.acquire(blocking=False):
            self._count("requests")
            return True
        self._count("rejected")
        return False

    def _release(self) -> None:
        self._inflight.release()

    def _count(self, name: str, by: int = 1) -> None:
        with self._counter_lock:
            self._counters[name] += by

    def answer(self, route: str,
               params: Dict[str, str]) -> Tuple[int, Dict[str, Any]]:
        """Answer one admitted request: ``(status, payload)``.

        Query endpoints go through single-flight batching when
        enabled; parameter problems (missing keyword, non-integer
        interval, negative ``top``, an empty live index) come back
        as 400 payloads."""
        try:
            if route == "/stats":
                return 200, self.stats_payload()
            interval = self._int_param(params, "interval")
            if route == "/paths":
                keyword = params.get("keyword")
                key: Tuple[Any, ...] = ("paths", keyword)
                return 200, self._read(
                    key, lambda: paths_payload(self.service, keyword))
            keyword = params.get("keyword")
            if not keyword:
                return 400, {"error": f"{route} needs a "
                                      f"keyword= parameter"}
            if route == "/refine":
                top = self._int_param(params, "top", DEFAULT_TOP)
                if top < 0:
                    # A negative slice bound would silently drop
                    # suggestions from the end instead.
                    raise ValueError(
                        f"top= must be a non-negative integer, got "
                        f"{params['top']!r}")
                key = ("refine", keyword, interval, top)
                return 200, self._read(
                    key, lambda: refine_payload(
                        self.service, keyword, interval, top))
            key = ("lookup", keyword, interval)
            return 200, self._read(
                key, lambda: lookup_payload(
                    self.service, keyword, interval))
        except ValueError as exc:
            # Bad parameters or an empty live index: the client's
            # problem (or simply "not yet"), not a server failure.
            return 400, {"error": str(exc)}

    @staticmethod
    def _int_param(params: Dict[str, str], name: str,
                   default: Optional[int] = None) -> Optional[int]:
        raw = params.get(name)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ValueError(
                f"{name}= must be an integer, got {raw!r}") from None

    def _read(self, key: Tuple[Any, ...], build) -> Dict[str, Any]:
        """One index read: single-flighted when batching is on."""

        def counted() -> Dict[str, Any]:
            self._count("index_reads")
            return build()

        if self.batching:
            return self.flight.do(key, counted)
        return counted()

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def server_stats(self) -> Dict[str, Any]:
        """The server-side counters (requests, admission, batching)."""
        calls, leaders, coalesced, errors = self.flight.stats()
        with self._counter_lock:
            counters = dict(self._counters)
        counters.update(
            max_inflight=self.max_inflight,
            batching=int(self.batching),
            singleflight={"calls": calls, "leaders": leaders,
                          "coalesced": coalesced, "errors": errors})
        return counters

    def stats_payload(self) -> Dict[str, Any]:
        """The ``/stats`` answer: service + server counters."""
        return {
            "endpoint": "stats",
            "service": self.service.stats(),
            "server": self.server_stats(),
        }

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            "serving" if self._httpd is not None else "unstarted")
        return (f"ClusterServer({self.url!r}, {state}, "
                f"max_inflight={self.max_inflight}, "
                f"batching={self.batching})")


__all__ = [
    "ClusterServer",
    "DEFAULT_TOP",
    "ROUTES",
    "encode_payload",
    "lookup_payload",
    "paths_payload",
    "refine_payload",
]
