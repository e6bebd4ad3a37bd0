"""The rows of a trace CSV's body, and the worker process that formats a share of them.

``rows`` is the one formatter: the text of consecutive rounds of a trace's
per-agent and per-round blocks, given as Python float lists, every value as
``repr``.  The writer's process calls it on its share of the rounds, and the
worker calls it on the rest, so the bytes are the same by construction.

Run as a script, this module is the worker: it reads requests on stdin and
answers each on stdout until EOF, ignoring SIGINT.  It runs by file path
under ``python -I -S``, so it imports only the standard library, never NumPy
or the rest of the package.  A request is five native int64 (rounds, n,
per-agent width, per-round width, first round), then the rounds' per-agent
block, (rounds, n, per-agent width), and per-round block, (rounds, per-round
width), as native float64.  The reply is a native int64 byte count, then
that many bytes of rows.

``sent`` is the writer's side.  Each process has at most one worker, started
on first use and kept for every later write; a lock taken without waiting
guards it, and a process that did not start the worker (a forked child)
never uses it, but starts its own.  The worker is killed and reaped when the
caller raises while it holds a share, when it is found dead, and at exit.
"""

import atexit
import contextlib
import os
import struct
import sys
import threading

BLOCK = 2**16
_REQUEST = struct.Struct("=5q")  # rounds, n, per-agent width, per-round width, first round
_COUNT = struct.Struct("=q")


def rows(first: int, agents, rounds):
    """The CSV rows of consecutive rounds from round ``first``, as ASCII
    blocks of whole rounds of about ``BLOCK`` bytes.

    ``agents`` gives each round's per-agent values (one list of floats per
    agent) and ``rounds`` its per-round values, which end every agent row of
    the round.  Each row is the round, the agent, then the values as ``repr``.
    """
    block, size = [], 0
    for t, (agent_rows, tail) in enumerate(zip(agents, rounds), start=first):
        tail = ",".join(map(repr, tail))
        block.append("".join([
            f"{t},{i},{','.join(map(repr, row))},{tail}\n"
            for i, row in enumerate(agent_rows)
        ]))
        size += len(block[-1])
        if size >= BLOCK:
            yield "".join(block).encode()
            block, size = [], 0
    if block:
        yield "".join(block).encode()


class _Worker:
    """A worker process, and the pid of the process that started it."""

    def __init__(self):
        import subprocess  # here, so neither importing the package nor the worker loads it

        self.owner = os.getpid()
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )

    def close_pipes(self) -> None:
        for pipe in (self.proc.stdin, self.proc.stdout):
            with contextlib.suppress(OSError):  # a pipe to a dead worker may fail to flush
                pipe.close()

    def stop(self) -> None:
        """Kill and reap the worker, if this process started it; close the pipes."""
        if self.owner == os.getpid():
            self.proc.kill()
            self.proc.wait()
        self.close_pipes()


_lock = threading.Lock()
_worker: _Worker | None = None


def _drop() -> None:
    global _worker
    worker, _worker = _worker, None
    if worker is not None:
        worker.stop()


atexit.register(_drop)


def _own_worker() -> _Worker:
    """This process's worker, started if it has none."""
    global _worker
    if _worker is not None and _worker.owner != os.getpid():
        _worker.close_pipes()  # the copies a fork left this process; the worker is its parent's
        _worker = None
    if _worker is None:
        _worker = _Worker()
    return _worker


class Reply:
    """The worker's answer to a request in flight."""

    def __init__(self, worker: _Worker):
        self._out = worker.proc.stdout

    def copy_into(self, fh) -> bool:
        """Append the reply's rows to the binary file ``fh`` in ``BLOCK``-byte
        chunks.  If the reply is short (the worker died), truncate ``fh`` back
        to where it was, drop the worker and return False."""
        mark = fh.tell()
        head = self._out.read(_COUNT.size)
        left = _COUNT.unpack(head)[0] if len(head) == _COUNT.size else -1
        while left > 0 and (chunk := self._out.read(min(BLOCK, left))):
            fh.write(chunk)
            left -= len(chunk)
        if left == 0:
            return True
        fh.seek(mark)
        fh.truncate()
        _drop()
        return False


@contextlib.contextmanager
def sent(per_agent, per_round, first: int):
    """Send rounds ``first``.. of the two blocks, C-contiguous float64 arrays
    of shapes (rounds, n, per-agent width) and (rounds, per-round width), to
    this process's worker; yield a ``Reply``, or None when no worker takes
    them: another thread holds it, or it could not be started or was found
    dead (then dropped, so the next call starts a new one).  If the caller
    raises while a request is in flight, interrupts included, the worker is
    killed and reaped first.
    """
    if not _lock.acquire(blocking=False):
        yield None
        return
    try:
        try:
            worker = _own_worker()
            stdin = worker.proc.stdin
            stdin.write(_REQUEST.pack(*per_agent.shape, per_round.shape[1], first))
            stdin.write(memoryview(per_agent).cast("B"))
            stdin.write(memoryview(per_round).cast("B"))
            stdin.flush()
            reply = Reply(worker)
        except OSError:  # the worker could not be started, or has died
            _drop()
            reply = None
        except BaseException:
            _drop()
            raise
        try:
            yield reply
        except BaseException:
            _drop()
            raise
    finally:
        _lock.release()


def _floats(stdin, shape: list[int]):
    """The next prod(shape) native float64 of ``stdin`` as nested lists, or None at EOF."""
    size = 8
    for extent in shape:
        size *= extent
    data = stdin.read(size)
    return memoryview(data).cast("d", shape).tolist() if len(data) == size else None


def serve(stdin, stdout) -> None:
    """Answer requests from ``stdin`` on ``stdout`` until EOF."""
    while len(head := stdin.read(_REQUEST.size)) == _REQUEST.size:
        rounds, n, agent_width, round_width, first = _REQUEST.unpack(head)
        agents = _floats(stdin, [rounds, n, agent_width])
        per_round = _floats(stdin, [rounds, round_width])
        if agents is None or per_round is None:
            return
        text = b"".join(rows(first, agents, per_round))
        stdout.write(_COUNT.pack(len(text)))
        stdout.write(text)
        stdout.flush()


if __name__ == "__main__":
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    serve(sys.stdin.buffer, sys.stdout.buffer)
