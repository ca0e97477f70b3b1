"""The HTTP side of ``serve_http``: a server subprocess and a load
generator with keep-alive connections and pre-built request bytes.

Open loop: request *i* is due at ``start + i / rate`` whatever the
server does, and its latency runs from that due time — so a stall
charges every request it delays, not just the one it hit.  Closed
loop: each connection sends its next request when the previous one
completes.
"""

from __future__ import annotations

import contextlib
import json
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from e2ebench.harness import child_env
from e2ebench.spans import Tracer, spanned

SAMPLE_EVERY = 50
STOP_TIMEOUT = 20.0


def split_cpus() -> Tuple[Optional[int], Optional[int]]:
    """``(generator cpu, server cpu)``, or Nones on a single core.

    Left to the scheduler, generator and server sometimes share a
    core and sometimes do not, and a whole run stays in whichever
    mode it started in: the open-loop median sat at 0.37 ms or at
    0.41 ms, never between.  Pinning each to a core of its own keeps
    every run in the second mode."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return cpus[0], cpus[-1]


@contextlib.contextmanager
def pinned(cpu: Optional[int]) -> Iterator[None]:
    """Run the calling thread, and the threads it starts, on *cpu*."""
    if cpu is None:
        yield
        return
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def due_times(count: int, rate: float) -> List[float]:
    """Offsets from the start at which an open loop's requests are
    due: evenly spaced, independent of any response."""
    return [n / rate for n in range(count)]


class Connection:
    """One keep-alive HTTP/1.1 connection speaking raw bytes."""

    def __init__(self, address: Tuple[str, int]) -> None:
        self.sock = socket.create_connection(address, timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP,
                             socket.TCP_NODELAY, 1)
        self._buffer = b""

    def roundtrip(self, wire: bytes) -> Tuple[int, bytes]:
        """Send one request; return ``(status, body)``."""
        self.sock.sendall(wire)
        data = self._buffer
        while b"\r\n\r\n" not in data:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            data += chunk
        head, _, rest = data.partition(b"\r\n\r\n")
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(rest) < length:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed mid-body")
            rest += chunk
        self._buffer = rest[length:]
        return int(head[9:12]), rest[:length]

    def close(self) -> None:
        """Close the socket."""
        self.sock.close()


class Server:
    """A ``python -m repro.cli serve DIR --port 0`` subprocess."""

    def __init__(self, index_dir: str, cwd: str,
                 extra: Sequence[str] = (),
                 cpu: Optional[int] = None) -> None:
        env = child_env()
        # The subprocess must get CPython's JSON accelerator too:
        # check the interpreter it will run, in its environment.
        probe = subprocess.run(
            [sys.executable, "-c",
             "import json.encoder, sys; "
             "sys.exit(json.encoder.c_make_encoder is None)"],
            env=env, cwd=cwd)
        if probe.returncode:
            raise SystemExit("e2e benchmark: the server subprocess "
                             "would run without json's C accelerator")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", index_dir,
             "--port", "0", *extra],
            env=env, cwd=cwd, stdout=subprocess.PIPE, text=True)
        if cpu is not None:
            # Before it starts a thread: threads inherit the mask.
            os.sched_setaffinity(self.process.pid, {cpu})
        try:
            banner = self.process.stdout.readline()
            url = banner.rsplit(" at ", 1)[1].strip()
            host, port = url[len("http://"):].split(":")
            self.address = (host, int(port))
            probe_connection = Connection(self.address)
            status, _ = probe_connection.roundtrip(
                b"GET /stats HTTP/1.1\r\nHost: bench\r\n\r\n")
            probe_connection.close()
            if status != 200:
                raise RuntimeError(f"/stats answered {status}")
        except (IndexError, OSError, RuntimeError) as exc:
            self.close()
            raise SystemExit(
                f"e2e benchmark: server did not start: {exc}")

    def stats(self) -> Dict:
        """The server's ``/stats`` payload."""
        connection = Connection(self.address)
        try:
            _, body = connection.roundtrip(
                b"GET /stats HTTP/1.1\r\nHost: bench\r\n\r\n")
        finally:
            connection.close()
        return json.loads(body)

    def peak_rss_mb(self) -> float:
        """The server process's high-water resident set (VmHWM)."""
        with open(f"/proc/{self.process.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def close(self) -> None:
        """Stop the server and wait until it has ended."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


@dataclass
class LoopResult:
    """What one load phase observed (warm-up already discarded)."""

    latencies: List[float] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)
    sent: int = 0
    failed: int = 0
    # From the end of the warm-up to the last counted answer.
    seconds: float = 0.0
    # (request index, body) for one response in SAMPLE_EVERY.
    sampled: List[Tuple[int, bytes]] = field(default_factory=list)

    def merge(self, other: "LoopResult") -> None:
        """Fold another connection's observations into this one."""
        self.latencies += other.latencies
        self.lateness += other.lateness
        self.sent += other.sent
        self.failed += other.failed
        self.seconds = max(self.seconds, other.seconds)
        self.sampled += other.sampled


def _drive(address: Tuple[str, int], wires: Sequence[bytes],
           indices: Sequence[int], start: float,
           due: Optional[Sequence[float]], warmup: float,
           stop: float, tracer: Optional[Tracer],
           out: LoopResult) -> None:
    """One connection's share of a phase.

    With *due* (open loop) request ``indices[n]`` waits for
    ``start + due[n]``; without (closed loop) it goes as soon as the
    previous one is answered.  Stops at *stop* (seconds from
    *start*)."""
    connection = Connection(address)
    try:
        for n, index in enumerate(indices):
            now = time.perf_counter()
            # Seconds into the phase at which this request is due.
            offset = due[n] if due is not None else now - start
            if offset >= stop:
                break
            target = start + offset
            if target > now:
                time.sleep(target - now)
            sent_at = time.perf_counter()
            try:
                with spanned(tracer, "loadgen.request", op=index):
                    status, body = connection.roundtrip(
                        wires[index % len(wires)])
            except (OSError, ValueError):
                status, body = 0, b""
                connection.close()
                connection = Connection(address)
            done = time.perf_counter()
            if offset < warmup:
                continue
            out.sent += 1
            out.seconds = done - start - warmup
            out.failed += status != 200
            out.latencies.append(done - target)
            out.lateness.append(sent_at - target)
            if index % SAMPLE_EVERY == 0 and status == 200:
                out.sampled.append((index % len(wires), body))
    finally:
        connection.close()


def run_phase(address: Tuple[str, int], wires: Sequence[bytes],
              seconds: float, warmup: float, connections: int,
              rate: Optional[float] = None, offset: int = 0,
              tracer: Optional[Tracer] = None,
              cpu: Optional[int] = None) -> LoopResult:
    """One load phase over *connections* keep-alive connections.

    ``rate`` (requests/s, all connections together) makes it an open
    loop; ``None`` a closed loop.  The first *warmup* seconds are
    run but not counted.  *offset* starts the request schedule
    there, so successive phases ask different questions.  *cpu*
    pins the generator's threads."""
    total = warmup + seconds
    if rate is not None:
        count = int(total * rate)
        offsets = due_times(count, rate)
    else:
        count = 10_000_000
        offsets = None
    results = [LoopResult() for _ in range(connections)]
    start = time.perf_counter() + 0.05
    threads = []
    for c in range(connections):
        indices = range(offset + c, offset + count, connections)
        due = offsets[c::connections] if offsets is not None else None
        threads.append(threading.Thread(
            target=_drive, args=(address, wires, indices, start, due,
                                 warmup, total, tracer, results[c])))
    with pinned(cpu):
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    merged = LoopResult()
    for result in results:
        merged.merge(result)
    return merged
