"""The bulk trace writer against the per-field writer it replaced, and the
trace record beside it.

``reference_body`` is the former ``harness.write_trace`` body: one
``csv.writer`` row per (round, agent), every value through
``repr(float(v))``.  It stays here as the reference, the way
tests/test_algorithms.py keeps the per-agent loops of the batched engine.
``reference_record`` is the record's layout written out field by field.  The
reader is checked against the writer: a written trace reads back from its
record bit for bit, NaN signs and payloads included, with its CSV deleted,
edited or not; the CSV parses to the record's values, and a re-score is the
score of the trace in memory.  ``TestFailedWrite`` checks that a failure
leaves no file, and no process while the worker holds the body's second
half.  ``TestSplitWriter`` checks the writer that shares every body of more
than one round with its ``csvrows`` worker: the same bytes as
``reference_body``, ``reference_record`` and one process, for two rounds,
the ``remark1-synthetic`` preset and a wide trace (one round stays here),
from two threads at once, past a worker that was killed, stopped or
interrupted, and in a forked child; and no file or process left after a
failure on either side or in the record, or after the interpreter exits.
``TestWorkerProtocol`` checks the worker's side of the protocol and a short
reply in this process.  ``TestRecord`` checks what the reader refuses: a
record of any other size (one of the older layout included, at every
shape), a missing one or a directory in its place, each named, and a
sidecar that would size a read alone.  ``TestConcurrentReads`` checks that
reads share no state: threads agree, warnings pass through, and the writer
shares a body with its worker right after a read.
"""

import ast
import contextlib
import csv
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dffr import cli, csvrows, harness, metrics
from dffr.errors import DffrError, MalformedTrace
from dffr.trace import Trace


def reference_body(trace: Trace, rhos: list[float]) -> str:
    fmt = harness._fmt
    gaps = trace.gaps
    series = {rho: metrics.dffr_series(trace, rho) for rho in rhos}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(harness.trace_columns(trace.d, rhos))
    for row in range(trace.T):
        t = row + 1
        for i in range(trace.n):
            out = [str(t), str(i)]
            out += [fmt(v) for v in trace.x[row, i]]
            out += [fmt(v) for v in trace.z[row, i]]
            out += [
                fmt(trace.eps_norm[row, i]),
                fmt(trace.g_norm[row, i]),
                fmt(trace.loss_self[row, i]),
                fmt(trace.loss_global[row, i]),
            ]
            out += [fmt(v) for v in trace.x_star[row]]
            out += [fmt(trace.f_star[row]), fmt(gaps[row])]
            out += [fmt(series[rho][row]) for rho in rhos]
            writer.writerow(out)
    return buf.getvalue()


def reference_record(trace: Trace, rhos: list[float]) -> bytes:
    """The per-agent block, then the per-round block, as little-endian float64."""
    per_agent = [trace.x, trace.z, *(getattr(trace, name)[..., None]
                                     for name in ("eps_norm", "g_norm", "loss_self", "loss_global"))]
    per_round = [trace.x_star, trace.f_star, trace.gaps, *(metrics.dffr_series(trace, rho) for rho in rhos)]
    return np.concatenate(per_agent, axis=2).astype("<f8").tobytes() + np.column_stack(per_round).astype("<f8").tobytes()


# Values whose shortest repr takes each of Python's forms: signed zero, the
# switch to exponent notation at 1e-4 and 1e16, subnormals and the extremes.
EDGE_VALUES = [
    0.0, -0.0, 1e-05, 9.999e-05, 0.0001, 0.1, 1.0, -1.5, 123456.789,
    9999999999999998.0, 1e16, -1e16, 1e22, 5e-324, -5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 1e-300, 3.0000000000000004,
]

values = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e3, 1e3),
)


@st.composite
def traces(draw):
    T = draw(st.integers(1, 4))
    n = draw(st.sampled_from([1, 3]))
    d = draw(st.sampled_from([1, 3]))

    def arr(*shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(values, min_size=size, max_size=size)), dtype=float).reshape(shape)

    return Trace(
        algorithm="hand",
        seed=draw(st.integers(0, 9)),
        config={},
        x=arr(T, n, d),
        z=arr(T, n, d),
        eps_norm=arr(T, n),
        loss_self=arr(T, n),
        loss_global=arr(T, n),
        x_star=arr(T, d),
        f_star=arr(T),
        g_norm=arr(T, n),
        final_eps_norm=arr(n),
    )


rho_lists = st.lists(st.sampled_from([0.5, 0.9, 0.95, 0.99, 0.9875, 1e-05]), max_size=3)


@settings(max_examples=150, deadline=None)
@given(traces(), rho_lists)
def test_body_matches_per_field_writer(trace, rhos):
    with np.errstate(all="ignore"), tempfile.TemporaryDirectory() as tmp:
        csv_path, meta_path, body_path = harness.write_trace(trace, rhos, Path(tmp) / "hand")
        text = reference_body(trace, rhos)
        assert csv_path.read_bytes() == text.encode()
        meta = json.loads(meta_path.read_text())
        assert body_path.read_bytes() == reference_record(trace, rhos)
    assert meta["columns"] == harness.trace_columns(trace.d, rhos)
    assert (meta["T"], meta["n"], meta["d"]) == (trace.T, trace.n, trace.d)


def _nan(bits: int) -> float:
    return float(np.array([bits], dtype=np.uint64).view(float)[0])


# Every NaN form (quiet, negative, with a payload, signalling), both
# infinities, signed zeros and subnormals: the record gives each back bit for bit.
WILD_VALUES = [
    np.nan, _nan(0xFFF8000000000000), _nan(0x7FF8000000000123), _nan(0x7FF0000000000001),
    np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e-310, -1.5,
]


@st.composite
def wild_traces(draw):
    """Traces of one to four rounds, d = 0 included, whose values are drawn
    from ``WILD_VALUES`` or any float."""
    T = draw(st.integers(1, 4))
    n = draw(st.sampled_from([1, 3]))
    d = draw(st.sampled_from([0, 1, 3]))
    wild = st.one_of(st.sampled_from(WILD_VALUES), st.floats())

    def arr(*shape, elements=wild):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(elements, min_size=size, max_size=size)), dtype=float).reshape(shape)

    return Trace(
        algorithm="hand",
        seed=0,
        config={},
        x=arr(T, n, d),
        z=arr(T, n, d),
        eps_norm=arr(T, n),
        loss_self=arr(T, n),
        loss_global=arr(T, n),
        x_star=arr(T, d),
        f_star=arr(T),
        g_norm=arr(T, n),
        final_eps_norm=arr(n, elements=values),  # the sidecar holds finite numbers only
    )


def _every_array(base, rhos) -> tuple[dict, list[np.ndarray]]:
    """The sidecar and every array that read_trace gives back: the trace's,
    then the stored columns."""
    meta, trace, stored = harness.read_trace(base)
    arrays = [getattr(trace, f.name) for f in fields(Trace)]
    return meta, [a for a in arrays if isinstance(a, np.ndarray)] + [stored[float(rho)] for rho in rhos]


def assert_identical(got: list[np.ndarray], want: list[np.ndarray]):
    """The same shapes and the same bits, NaNs included."""
    for a, b in zip(got, want, strict=True):
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(max_examples=150, deadline=None)
@given(wild_traces(), rho_lists)
def test_read_gives_back_what_write_wrote(trace, rhos):
    """Every array, stored columns included, and the sidecar's fields come
    back bit for bit: nothing canonicalizes a NaN."""
    with np.errstate(all="ignore"), tempfile.TemporaryDirectory() as tmp:
        harness.write_trace(trace, rhos, Path(tmp) / "hand")
        _, got = _every_array(Path(tmp) / "hand", rhos)
        _, again, _ = harness.read_trace(Path(tmp) / "hand")
        series = [metrics.dffr_series(trace, rho) for rho in rhos]
    arrays = [getattr(trace, f.name) for f in fields(Trace)]
    assert_identical(got, [a for a in arrays if isinstance(a, np.ndarray)] + series)
    assert (again.algorithm, again.seed, again.config) == (trace.algorithm, trace.seed, trace.config)


@settings(max_examples=100, deadline=None)
@given(traces(), rho_lists)
def test_the_csv_is_the_records_text(trace, rhos):
    """Parsed back, every CSV row is its round and agent, that agent's
    per-agent values, then the round's per-round values, bit for bit as the
    record holds them."""
    with np.errstate(all="ignore"), tempfile.TemporaryDirectory() as tmp:
        csv_path, _, body_path = harness.write_trace(trace, rhos, Path(tmp) / "hand")
        parsed = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
        record = np.frombuffer(body_path.read_bytes(), dtype="<f8").astype(float)
    T, n = trace.T, trace.n
    agent_width, round_width = harness._widths(trace.d, rhos)
    per_agent = record[:T * n * agent_width].reshape(T, n, agent_width)
    per_round = record[T * n * agent_width:].reshape(T, round_width)
    grid = np.stack(np.meshgrid(np.arange(1.0, T + 1), np.arange(float(n)), indexing="ij"), axis=2)
    rows = np.concatenate([grid, per_agent, np.broadcast_to(per_round[:, None], (T, n, round_width))], axis=2)
    assert_identical([parsed], [rows.reshape(T * n, -1)])


def _as_text(entry: dict) -> str:
    """A summary entry as JSON text, so NaN compares equal to NaN."""
    return json.dumps(entry, sort_keys=True)


@settings(max_examples=60, deadline=None)
@given(traces(), rho_lists)
def test_a_rescore_is_the_score_of_the_written_trace(trace, rhos):
    """recompute_metrics gives the entry that scoring the trace in memory
    gives, at the stored rhos and at one that was not stored; each stored
    column matches its recomputation exactly (or both hold a NaN)."""
    asked = [*rhos, 0.75]
    with np.errstate(all="ignore"), warnings.catch_warnings(), tempfile.TemporaryDirectory() as tmp:
        warnings.simplefilter("ignore")
        harness.write_trace(trace, rhos, Path(tmp) / "hand")
        entry = harness.recompute_metrics(Path(tmp) / "hand", asked)
        want, _ = harness._seed_summary(trace, asked)
    delta = entry.pop("stored_dffr_max_delta")
    assert _as_text(entry) == _as_text(want)
    assert sorted(delta) == sorted({repr(float(rho)) for rho in rhos})
    assert all(v == 0.0 or np.isnan(v) for v in delta.values())


def test_a_trace_rescores_from_its_record_alone(tmp_path):
    """read_trace never opens the CSV: with it deleted, or a directory in its
    place, the trace reads and re-scores as before."""
    base, rhos = tmp_path / "hand", [0.9, 0.5]
    csv_path, *_ = harness.write_trace(_small_trace(), [0.9], base)
    meta, arrays = _every_array(base, [0.9])
    entry = harness.recompute_metrics(base, rhos)
    for spoil in (csv_path.unlink, csv_path.mkdir):
        spoil()
        again, again_arrays = _every_array(base, [0.9])
        assert again == meta
        assert_identical(again_arrays, arrays)
        assert harness.recompute_metrics(base, rhos) == entry
    assert cli.main(["metrics", "--trace", str(base), "--rho", "0.9"]) == 0


def _edit_a_digit(data: bytes) -> bytes:
    """The last digit of x_0 on the first body row changed, at the same length."""
    start = data.index(b"\n") + 1
    k = start
    for _ in range(3):  # past t and agent, to the comma after x_0
        k = data.index(b",", k) + 1
    k -= 2
    assert chr(data[k]).isdigit()
    return data[:k] + (b"2" if data[k] == ord("1") else b"1") + data[k + 1:]


@pytest.mark.parametrize(
    "spoil",
    [
        _edit_a_digit,
        lambda data: data[:data.rindex(b"\n", 0, -1) + 1],
        lambda data: data[:-2] + b"x\n",
        lambda data: b"\xff" + data,
        lambda data: data.replace(b"eps_norm", b"eps", 1),
        lambda data: b"",
    ],
    ids=["digit-edited", "last-row-dropped", "non-numeric", "not-utf8", "header-changed", "emptied"],
)
def test_an_edit_to_the_csv_is_not_seen(tmp_path, spoil):
    """The CSV is a rendering of the record: an edit to it, whatever it is,
    changes neither what reads back nor the re-score."""
    base, rhos = tmp_path / "hand", [0.9, 0.5]
    csv_path, *_ = harness.write_trace(_small_trace(), [0.9], base)
    meta, arrays = _every_array(base, [0.9])
    entry = harness.recompute_metrics(base, rhos)
    csv_path.write_bytes(spoil(csv_path.read_bytes()))
    again, again_arrays = _every_array(base, [0.9])
    assert again == meta
    assert_identical(again_arrays, arrays)
    assert harness.recompute_metrics(base, rhos) == entry


def test_a_trace_without_coordinates_rescores(tmp_path):
    """A d = 0 trace reads back, so it re-scores too: with no coordinate to
    disagree on, the agents agree from round 1."""
    T, n = 3, 2
    trace = Trace(
        algorithm="hand", seed=0, config={}, x=np.empty((T, n, 0)), z=np.empty((T, n, 0)),
        eps_norm=np.zeros((T, n)), loss_self=np.ones((T, n)), loss_global=np.ones((T, n)),
        x_star=np.empty((T, 0)), f_star=np.ones(T), g_norm=np.zeros((T, n)),
    )
    base = tmp_path / "flat"
    harness.write_trace(trace, [0.9], base)
    assert harness.recompute_metrics(base, [0.9])["consensus_time"] == 1
    assert cli.main(["metrics", "--trace", str(base), "--rho", "0.9"]) == 0


def _small_trace() -> Trace:
    rng = np.random.default_rng(3)
    T, n, d = 6, 3, 2
    return Trace(
        algorithm="hand",
        seed=0,
        config={},
        x=rng.standard_normal((T, n, d)),
        z=rng.standard_normal((T, n, d)),
        eps_norm=rng.random((T, n)),
        loss_self=rng.random((T, n)),
        loss_global=rng.random((T, n)) + 1.0,
        x_star=rng.standard_normal((T, d)),
        f_star=rng.random(T),
        g_norm=rng.random((T, n)),
    )


def _repr_failing_after(calls: int):
    """A stand-in for ``repr`` that raises once it has formatted ``calls`` values."""
    seen = []

    def failing_repr(v):
        seen.append(v)
        if len(seen) > calls:
            raise RuntimeError("injected formatting failure")
        return repr(v)

    return failing_repr


@pytest.fixture
def new_worker():
    """A worker started by the test's first write, and none left after it."""
    csvrows._drop()
    yield
    csvrows._drop()  # a stopped or killed worker goes with its test


def assert_worker_killed(shares):
    """The one write held the worker, which was killed and reaped, and no process is left."""
    assert [taken for *_, taken in shares] == [True]
    assert csvrows._worker is None
    assert_no_child()


@pytest.mark.usefixtures("new_worker")
class TestFailedWrite:
    """A write that fails partway leaves none of the three files, and no
    process: the worker holds rounds 4..6 of _small_trace while this process
    fails, and is killed and reaped."""

    # A round of _small_trace formats 29 values; this process's half is rounds
    # 1..3, so the failure comes in round 3, with rows in the CSV.
    FAIL_AFTER = 60

    def test_failure_while_formatting_the_body(self, tmp_path, monkeypatch, shares):
        monkeypatch.setattr(csvrows, "repr", _repr_failing_after(self.FAIL_AFTER), raising=False)
        with pytest.raises(RuntimeError, match="injected formatting failure"):
            harness.write_trace(_small_trace(), [0.9], tmp_path / "hand")
        assert list(tmp_path.iterdir()) == []
        assert_worker_killed(shares)

    def test_failed_rewrite_leaves_no_stale_sidecar(self, tmp_path, monkeypatch):
        harness.write_trace(_small_trace(), [0.9], tmp_path / "hand")
        monkeypatch.setattr(csvrows, "repr", _repr_failing_after(self.FAIL_AFTER), raising=False)
        with pytest.raises(RuntimeError, match="injected formatting failure"):
            harness.write_trace(_small_trace(), [0.9], tmp_path / "hand")
        assert list(tmp_path.iterdir()) == []
        assert csvrows._worker is None
        assert_no_child()

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_failure_while_writing_the_record(self, tmp_path, monkeypatch, shares, error):
        """The record fails after its per-agent block, before the CSV is opened."""
        monkeypatch.setattr(harness.np, "ascontiguousarray", _second_block_failing(error))
        with pytest.raises(error, match="injected record failure"):
            harness.write_trace(_small_trace(), [0.9], tmp_path / "hand")
        assert list(tmp_path.iterdir()) == []
        assert_worker_killed(shares)

    def test_failure_while_writing_the_sidecar(self, tmp_path, monkeypatch, shares):
        def failing_dumps(*args, **kwargs):
            raise RuntimeError("injected sidecar failure")

        monkeypatch.setattr(harness.json, "dumps", failing_dumps)
        with pytest.raises(RuntimeError, match="injected sidecar failure"):
            harness.write_trace(_small_trace(), [0.9], tmp_path / "hand")
        assert list(tmp_path.iterdir()) == []
        assert_worker_killed(shares)


def _second_block_failing(error: type):
    """A stand-in for ``np.ascontiguousarray`` that gives back the record's
    first block, then raises ``error`` on the second."""
    real = np.ascontiguousarray
    calls = []

    def failing(block, *args, **kwargs):
        calls.append(1)
        if len(calls) > 1:
            raise error("injected record failure")
        return real(block, *args, **kwargs)

    return failing


# The split writer's hand trace: each half's rows are more than one
# csvrows.BLOCK of text, so the worker's reply comes in several chunks.
WIDE_N, WIDE_D, WIDE_T = 4, 3, 206
SENTINEL = 0.123456789
STALL, STALL_SECONDS = 0.987654321, 20.0


def _wide_trace(sentinel_row: int | None = None, T: int = WIDE_T, n: int = WIDE_N) -> Trace:
    """``EDGE_VALUES`` in the last round of the first half and the first round
    of the second, and ``SENTINEL`` at 0-based row ``sentinel_row`` if given."""
    rng = np.random.default_rng(5)
    d = WIDE_D
    trace = Trace(
        algorithm="hand",
        seed=0,
        config={},
        x=rng.standard_normal((T, n, d)),
        z=rng.standard_normal((T, n, d)) * 1e5,
        eps_norm=rng.random((T, n)),
        loss_self=rng.random((T, n)) * 1e-6,
        loss_global=rng.random((T, n)) + 1.0,
        x_star=rng.standard_normal((T, d)),
        f_star=rng.random(T),
        g_norm=rng.random((T, n)),
    )
    edge = np.array(EDGE_VALUES)
    for row in (T // 2 - 1, T // 2):
        trace.x[row] = np.resize(edge, (n, d))
        trace.z[row] = np.resize(edge[::-1], (n, d))
        trace.loss_global[row] = edge[:n]
        trace.x_star[row] = edge[-d:]
    if sentinel_row is not None:
        trace.eps_norm[sentinel_row, 1] = SENTINEL
    return trace


@pytest.fixture
def shares(monkeypatch):
    """The requests of the code under test: (first round, rounds, taken by a
    worker) for each call of ``csvrows.sent``."""
    calls = []
    real = csvrows.sent

    @contextlib.contextmanager
    def counted(per_agent, per_round, first):
        with real(per_agent, per_round, first) as reply:
            calls.append((first, len(per_agent), reply is not None))
            yield reply

    monkeypatch.setattr(csvrows, "sent", counted)
    return calls


def _children() -> set[int] | None:
    """The pids of this process's children, or None where /proc does not list them."""
    tasks = Path(f"/proc/{os.getpid()}/task")
    try:
        return {int(pid) for task in tasks.iterdir() for pid in (task / "children").read_text().split()}
    except OSError:
        return None


def assert_no_child():
    """No child process is left but this process's live worker."""
    worker = csvrows._worker
    live = set() if worker is None else {worker.proc.pid}
    if worker is not None:
        assert worker.owner == os.getpid() and worker.proc.poll() is None
    if (children := _children()) is not None:
        assert children == live
    if live:
        assert os.waitpid(-1, os.WNOHANG) == (0, 0)
    else:
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def assert_gone(pid: int):
    """No process has pid ``pid``: it exited and was reaped."""
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


# The CPUs this process may use, taken before any test: the writer starts a
# worker and must leave the caller's CPUs as they were.
CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


def assert_cpus_unchanged():
    assert (os.sched_getaffinity(0) if CPUS is not None else None) == CPUS


def _failing_on_sentinel(error: type):
    """A stand-in for ``repr`` that raises ``error`` on ``SENTINEL`` only."""

    def failing_repr(v):
        if v == SENTINEL:
            raise error("injected formatting failure")
        return repr(v)

    return failing_repr


def _killing_on_sentinel(pid: int):
    """A stand-in for ``repr`` that kills process ``pid`` when it formats ``SENTINEL``."""

    def killing_repr(v):
        if v == SENTINEL:
            os.kill(pid, signal.SIGKILL)
        return repr(v)

    return killing_repr


def _worker_pid() -> int:
    assert csvrows._worker is not None
    return csvrows._worker.proc.pid


def _kill_unseen(pid: int):
    """Kill the worker ``pid`` and wait until it has died, leaving it for its owner to reap."""
    os.kill(pid, signal.SIGKILL)
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)


@pytest.mark.usefixtures("new_worker")
class TestSplitWriter:
    """The body shared with the worker process: the same bytes, and no file
    or process left behind.  ``csvrows.repr`` stand-ins reach only this
    process's rounds, so the worker's failures are made by signals."""

    def test_split_body_is_the_reference_body(self, tmp_path, shares):
        trace = _wide_trace()
        csv_path, *_ = harness.write_trace(trace, [0.9, 1e-05], tmp_path / "hand")
        assert shares == [(WIDE_T // 2 + 1, WIDE_T - WIDE_T // 2, True)]
        assert csv_path.read_bytes() == reference_body(trace, [0.9, 1e-05]).encode()
        assert_no_child()

    def test_split_record_is_the_reference_record(self, tmp_path, shares):
        trace = _wide_trace()
        *_, body_path = harness.write_trace(trace, [0.9, 1e-05], tmp_path / "hand")
        assert [taken for *_, taken in shares] == [True]
        assert body_path.read_bytes() == reference_record(trace, [0.9, 1e-05])
        assert_no_child()

    @pytest.mark.parametrize("name", ["one-round", "two-rounds", "remark1-synthetic"])
    def test_a_body_is_shared_unless_it_has_one_round(self, tmp_path, shares, name):
        """The smallest bodies, and the benchmark's smallest: the
        ``remark1-synthetic`` preset's 729 rounds of one agent."""
        if name == "remark1-synthetic":
            trace = harness.run_seeds(harness.preset(name))[0]
        else:
            trace = _wide_trace(T=1 if name == "one-round" else 2)
        csv_path, _, body_path = harness.write_trace(trace, [0.9], tmp_path / "hand")
        T = trace.T
        assert shares == ([(T // 2 + 1, T - T // 2, True)] if T > 1 else [])
        assert csv_path.read_bytes() == reference_body(trace, [0.9]).encode()
        assert body_path.read_bytes() == reference_record(trace, [0.9])
        assert_no_child()

    def test_every_later_write_uses_the_same_worker(self, tmp_path, shares):
        trace = _wide_trace()
        pids = []
        for k in range(3):
            csv_path, *_ = harness.write_trace(trace, [0.9], tmp_path / f"hand{k}")
            assert csv_path.read_bytes() == reference_body(trace, [0.9]).encode()
            pids.append(_worker_pid())
        assert len(set(pids)) == 1
        assert [taken for *_, taken in shares] == [True] * 3
        assert_no_child()

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_failure_while_writing_the_record_kills_and_reaps_the_worker(self, tmp_path, monkeypatch, shares, error):
        """The worker holds its rounds while the record is written, so a
        record that fails kills and reaps it, and leaves no file."""
        trace = _wide_trace()
        harness.write_trace(trace, [0.9], tmp_path / "first")
        pid = _worker_pid()
        monkeypatch.setattr(harness.np, "ascontiguousarray", _second_block_failing(error))
        with pytest.raises(error, match="injected record failure"):
            harness.write_trace(trace, [0.9], tmp_path / "hand")
        assert [taken for *_, taken in shares] == [True, True]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["first.body", "first.csv", "first.meta.json"]
        assert csvrows._worker is None
        assert_gone(pid)
        assert_no_child()
        assert_cpus_unchanged()

    def test_one_process_writes_the_same_bytes(self, tmp_path, shares):
        """With the worker held, this process formats every round."""
        trace = _wide_trace()
        split, _, split_copy = harness.write_trace(trace, [0.9], tmp_path / "split")
        with csvrows._lock:
            serial, _, serial_copy = harness.write_trace(trace, [0.9], tmp_path / "serial")
        assert [taken for *_, taken in shares] == [True, False]
        assert serial.read_bytes() == split.read_bytes()
        assert serial_copy.read_bytes() == split_copy.read_bytes()

    def test_two_threads_writing_at_once_give_the_reference_body(self, tmp_path, shares):
        """One thread holds the worker, and the other formats its rounds alone."""
        traces = [_wide_trace(), _wide_trace(sentinel_row=WIDE_T - 2)]
        start = threading.Barrier(2)
        written = {k: [] for k in range(2)}

        def writes(k):
            start.wait(timeout=10.0)
            for m in range(4):
                written[k].append(harness.write_trace(traces[k], [0.9], tmp_path / f"t{k}-{m}")[0])

        threads = [threading.Thread(target=writes, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        for k, trace in enumerate(traces):
            want = reference_body(trace, [0.9]).encode()
            assert [path.read_bytes() == want for path in written[k]] == [True] * 4
        assert len(shares) == 8 and any(taken for *_, taken in shares)
        assert_no_child()

    def test_a_worker_killed_between_writes_is_replaced(self, tmp_path, shares):
        trace = _wide_trace()
        harness.write_trace(trace, [0.9], tmp_path / "first")
        dead = _worker_pid()
        _kill_unseen(dead)
        csv_path, *_ = harness.write_trace(trace, [0.9], tmp_path / "hand")
        assert csv_path.read_bytes() == reference_body(trace, [0.9]).encode()
        assert_gone(dead)  # found dead, and reaped
        csv_path, *_ = harness.write_trace(trace, [0.9], tmp_path / "next")
        assert csv_path.read_bytes() == reference_body(trace, [0.9]).encode()
        assert _worker_pid() != dead
        assert shares[-1][-1] is True
        assert_no_child()

    def test_a_worker_that_dies_holding_the_rounds_is_dropped(self, tmp_path, monkeypatch, shares):
        """The worker is stopped, then killed while this process formats its
        own rounds, so its reply is short: this process formats the rest."""
        trace = _wide_trace(sentinel_row=1)
        harness.write_trace(trace, [0.9], tmp_path / "first")
        pid = _worker_pid()
        os.kill(pid, signal.SIGSTOP)
        monkeypatch.setattr(csvrows, "repr", _killing_on_sentinel(pid), raising=False)
        csv_path, *_ = harness.write_trace(trace, [0.9], tmp_path / "hand")
        assert shares[-1][-1] is True
        assert csv_path.read_bytes() == reference_body(trace, [0.9]).encode()
        assert csvrows._worker is None
        assert_gone(pid)
        assert_no_child()

    def test_an_error_in_the_workers_rounds_is_raised_here(self, tmp_path, monkeypatch, shares):
        """With its worker dead, this process formats the worker's rounds, so a
        real error in them is raised here, and no file is left."""
        trace = _wide_trace(sentinel_row=WIDE_T - 2)
        harness.write_trace(trace, [0.9], tmp_path / "first")
        pid = _worker_pid()
        _kill_unseen(pid)
        monkeypatch.setattr(csvrows, "repr", _failing_on_sentinel(RuntimeError), raising=False)
        with pytest.raises(RuntimeError, match="injected formatting failure"):
            harness.write_trace(trace, [0.9], tmp_path / "hand")
        assert not list(tmp_path.glob("hand*"))
        assert_gone(pid)
        assert_no_child()

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_failure_in_this_half_kills_and_reaps_the_worker(self, tmp_path, monkeypatch, shares, error):
        """The worker is stopped, and only continued after ``STALL_SECONDS``, so
        a worker that is waited for, not killed, holds the failed write that long."""
        trace = _wide_trace(sentinel_row=1)
        harness.write_trace(trace, [0.9], tmp_path / "first")
        pid = _worker_pid()
        os.kill(pid, signal.SIGSTOP)
        resume = threading.Timer(STALL_SECONDS, lambda: os.kill(pid, signal.SIGCONT))
        resume.start()
        monkeypatch.setattr(csvrows, "repr", _failing_on_sentinel(error), raising=False)
        start = time.monotonic()
        try:
            with pytest.raises(error, match="injected formatting failure"):
                harness.write_trace(trace, [0.9], tmp_path / "hand")
            assert time.monotonic() - start < STALL_SECONDS
        finally:
            resume.cancel()
        assert shares[-1][-1] is True
        assert not list(tmp_path.glob("hand*"))
        assert csvrows._worker is None
        assert_gone(pid)
        assert_no_child()
        assert_cpus_unchanged()

    def test_the_worker_ignores_sigint_and_exits_on_eof(self, tmp_path):
        trace = _wide_trace()
        harness.write_trace(trace, [0.9], tmp_path / "first")
        pid = _worker_pid()
        os.kill(pid, signal.SIGINT)
        csv_path, *_ = harness.write_trace(trace, [0.9], tmp_path / "hand")
        assert csv_path.read_bytes() == reference_body(trace, [0.9]).encode()
        assert _worker_pid() == pid
        proc = csvrows._worker.proc
        proc.stdin.close()
        assert proc.wait(timeout=10.0) == 0

    def test_a_process_that_writes_leaves_no_process_behind(self, tmp_path):
        """The exit handler reaps the worker: after the writing interpreter
        exits, the worker's pid names no process, not even a zombie."""
        script = textwrap.dedent(f"""
            import numpy as np
            from dffr import csvrows, harness
            from dffr.trace import Trace
            trace = Trace.from_gap_sequence(np.arange(4096.0))
            harness.write_trace(trace, [0.9], {str(tmp_path / "hand")!r})
            print(csvrows._worker.proc.pid)
        """)
        pid = int(_python(script))
        assert (tmp_path / "hand.csv").read_bytes() == reference_body(
            Trace.from_gap_sequence(np.arange(4096.0)), [0.9]
        ).encode()
        assert_gone(pid)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork here")
    def test_a_forked_child_writes_through_its_own_worker(self, tmp_path):
        """A child forked after a write starts its own worker; the parent's
        keeps running and takes the parent's next write."""
        script = textwrap.dedent(f"""
            import os, sys, warnings
            import numpy as np
            from dffr import csvrows, harness
            from dffr.trace import Trace
            trace = Trace.from_gap_sequence(np.arange(4096.0))
            out = {str(tmp_path)!r}
            harness.write_trace(trace, [0.9], out + "/parent-1")
            parent_worker = csvrows._worker.proc.pid
            child = os.fork()
            if child == 0:
                harness.write_trace(trace, [0.9], out + "/child")
                print(csvrows._worker.proc.pid, csvrows._worker.owner == os.getpid(), flush=True)
                sys.exit(0)
            assert os.waitpid(child, 0)[1] == 0
            assert csvrows._worker.proc.poll() is None
            harness.write_trace(trace, [0.9], out + "/parent-2")
            print(parent_worker, csvrows._worker.proc.pid)
        """)
        child_line, parent_line = _python(script).splitlines()
        child_worker, owned = child_line.split()
        parent_worker, parent_worker_later = parent_line.split()
        assert owned == "True"
        assert child_worker not in (parent_worker, parent_worker_later)
        assert parent_worker == parent_worker_later
        want = reference_body(Trace.from_gap_sequence(np.arange(4096.0)), [0.9]).encode()
        for name in ("parent-1", "child", "parent-2"):
            assert (tmp_path / f"{name}.csv").read_bytes() == want
        assert_gone(int(child_worker))
        assert_gone(int(parent_worker))


def _python(script: str) -> str:
    """The standard output of ``script`` run by a new interpreter with the package on its path."""
    path = [str(SRC), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


SRC = Path(csvrows.__file__).resolve().parents[1]


def _request(per_agent: np.ndarray, per_round: np.ndarray, first: int) -> bytes:
    return csvrows._REQUEST.pack(*per_agent.shape, per_round.shape[1], first) + per_agent.tobytes() + per_round.tobytes()


class TestWorkerProtocol:
    """The worker's side of the protocol, and a short reply, in this process."""

    def test_serve_answers_each_request_with_its_rows(self):
        rng = np.random.default_rng(9)
        blocks = [(rng.standard_normal((3, 2, 4)), rng.standard_normal((3, 5)), 7),
                  (np.array(EDGE_VALUES[:8]).reshape(1, 2, 4), np.array([EDGE_VALUES[8:13]]), 1)]
        out = io.BytesIO()
        csvrows.serve(io.BytesIO(b"".join(_request(*block) for block in blocks)), out)
        want = b""
        for per_agent, per_round, first in blocks:
            text = b"".join(csvrows.rows(first, per_agent.tolist(), per_round.tolist()))
            want += csvrows._COUNT.pack(len(text)) + text
        assert out.getvalue() == want

    def test_a_truncated_request_gets_no_reply(self):
        request = _request(np.ones((2, 1, 4)), np.ones((2, 3)), 1)
        for cut in (3, csvrows._REQUEST.size + 8, len(request) - 1):
            out = io.BytesIO()
            csvrows.serve(io.BytesIO(request[:cut]), out)
            assert out.getvalue() == b""

    @pytest.mark.parametrize("reply", [b"", b"\0" * 5, csvrows._COUNT.pack(100) + b"x" * 99],
                             ids=["empty", "count-cut", "rows-cut"])
    def test_a_short_reply_leaves_the_file_as_it_was(self, tmp_path, reply):
        path = tmp_path / "out"
        with path.open("wb") as fh:
            fh.write(b"header\n")
            worker = SimpleNamespace(proc=SimpleNamespace(stdout=io.BytesIO(reply)))
            assert csvrows.Reply(worker).copy_into(fh) is False
            fh.write(b"rest\n")
        assert path.read_bytes() == b"header\nrest\n"

    def test_the_worker_imports_only_the_standard_library(self):
        tree = ast.parse(Path(csvrows.__file__).read_text())
        imported = {alias.name.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module != "__future__"}
        assert not any(isinstance(node, ast.ImportFrom) and node.level for node in ast.walk(tree))
        assert imported <= sys.stdlib_module_names


def _read_error(base) -> tuple[type, str]:
    with pytest.raises(DffrError) as info:
        harness.read_trace(base)
    return type(info.value), str(info.value)


# The record bytes of one round of _small_trace with one rho: 8 * (3 * 8 + 5).
SMALL_ROUND = 232


def _record_with_another_rho(path: Path) -> None:
    """The record at ``path`` replaced by that of the same trace written with a second rho."""
    *_, other = harness.write_trace(_small_trace(), [0.9, 0.5], path.parent / "other")
    path.write_bytes(other.read_bytes())


class TestRecord:
    """What the reader refuses in the record: each is a MalformedTrace naming it."""

    # _small_trace with one rho: T = 6, n = 3, d = 2, so 8 * 6 * (3 * 8 + 5) bytes.
    SIZE = 1392

    @pytest.fixture
    def base(self, tmp_path):
        harness.write_trace(_small_trace(), [0.9], tmp_path / "hand")
        return tmp_path / "hand"

    def test_a_record_of_the_older_layout_is_refused_with_both_sizes(self, base):
        """The older record held the rows np.loadtxt parsed from the CSV, the t
        and agent columns and every repeated per-round cell included, then the
        CSV's SHA-256: 8*T*(2n + (n - 1)*P) + 32 bytes more than the record,
        with P = d + 2 + len(rhos) values per round."""
        csv_bytes = base.with_suffix(".csv").read_bytes()
        rows = np.loadtxt(io.BytesIO(csv_bytes), delimiter=",", skiprows=1, ndmin=2)
        old = rows.astype("<f8").tobytes() + hashlib.sha256(csv_bytes).digest()
        T, n, P = 6, 3, 5
        assert len(old) - self.SIZE == 8 * T * (2 * n + (n - 1) * P) + 32
        base.with_suffix(".body").write_bytes(old)
        assert _read_error(base) == (
            MalformedTrace, f"{base}.body: {len(old)} bytes, the sidecar's T, n, d and rhos imply {self.SIZE}"
        )

    @pytest.mark.parametrize(
        "T, n, d, rhos",
        [(1, 1, 0, []), (3, 1, 1, [0.9]), (2, 4, 0, [0.9, 0.5, 1e-05])],
        ids=["one-agent-no-coordinates", "one-agent", "no-coordinates"],
    )
    def test_the_older_layout_never_has_the_records_size(self, tmp_path, T, n, d, rhos):
        """At one agent and at d = 0, where the older record's repeated cells
        vanish, its t and agent columns and digest still make it longer."""
        rng = np.random.default_rng(11)
        trace = Trace(
            algorithm="hand", seed=0, config={}, x=rng.random((T, n, d)), z=rng.random((T, n, d)),
            eps_norm=rng.random((T, n)), loss_self=rng.random((T, n)), loss_global=rng.random((T, n)),
            x_star=rng.random((T, d)), f_star=rng.random(T), g_norm=rng.random((T, n)),
        )
        base = tmp_path / "hand"
        harness.write_trace(trace, rhos, base)
        size = base.with_suffix(".body").stat().st_size
        csv_bytes = base.with_suffix(".csv").read_bytes()
        rows = np.loadtxt(io.BytesIO(csv_bytes), delimiter=",", skiprows=1, ndmin=2)
        old = rows.astype("<f8").tobytes() + hashlib.sha256(csv_bytes).digest()
        P = d + 2 + len(rhos)
        assert len(old) - size == 8 * T * (2 * n + (n - 1) * P) + 32
        base.with_suffix(".body").write_bytes(old)
        assert _read_error(base) == (
            MalformedTrace, f"{base}.body: {len(old)} bytes, the sidecar's T, n, d and rhos imply {size}"
        )

    @pytest.mark.parametrize("n", [1, WIDE_N])
    def test_one_round_is_read_from_its_record(self, tmp_path, shares, n):
        trace = _wide_trace(T=1, n=n)
        harness.write_trace(trace, [0.9, 1e-05], tmp_path / "hand")
        _, arrays = _every_array(tmp_path / "hand", [0.9, 1e-05])
        assert shares == []
        arrays_of_trace = [getattr(trace, f.name) for f in fields(Trace)]
        series = [metrics.dffr_series(trace, rho) for rho in (0.9, 1e-05)]
        assert_identical(arrays, [a for a in arrays_of_trace if isinstance(a, np.ndarray)] + series)

    @pytest.mark.parametrize(
        "spoil, why",
        [
            (lambda path: path.unlink(), "No such file or directory"),
            (lambda path: path.unlink() or path.mkdir(), "Is a directory"),
            (lambda path: path.write_bytes(path.read_bytes()[:-8]),
             f"{SIZE - 8} bytes, the sidecar's T, n, d and rhos imply {SIZE}"),
            (lambda path: path.write_bytes(path.read_bytes() + b"\0"),
             f"{SIZE + 1} bytes, the sidecar's T, n, d and rhos imply {SIZE}"),
            (lambda path: path.write_bytes(path.read_bytes()[:-SMALL_ROUND]),
             f"{SIZE - SMALL_ROUND} bytes, the sidecar's T, n, d and rhos imply {SIZE}"),
            (lambda path: path.write_bytes(path.read_bytes() + path.read_bytes()[-SMALL_ROUND:]),
             f"{SIZE + SMALL_ROUND} bytes, the sidecar's T, n, d and rhos imply {SIZE}"),
            (_record_with_another_rho, f"{SIZE + 8 * 6} bytes, the sidecar's T, n, d and rhos imply {SIZE}"),
            (lambda path: path.write_bytes(b""), f"0 bytes, the sidecar's T, n, d and rhos imply {SIZE}"),
        ],
        ids=["missing", "directory", "one-value-short", "one-byte-longer", "one-round-short",
             "one-round-longer", "written-with-another-rho", "empty"],
    )
    def test_a_record_that_cannot_be_read_is_named(self, base, spoil, why):
        spoil(base.with_suffix(".body"))
        assert _read_error(base) == (MalformedTrace, f"{base}.body: {why}")
        with pytest.raises(MalformedTrace, match="^" + str(base)):
            harness.recompute_metrics(base, [0.9])

    def test_a_sidecar_cannot_size_the_read_alone(self, base):
        """A sidecar that claims 10**9 agent-rounds beside the small record is
        refused on the record's size, before any buffer is made."""
        meta_path = base.with_suffix(".meta.json")
        meta = json.loads(meta_path.read_text())
        meta.update(T=10**6, n=1000, final_eps_norm=[0.0] * 1000)
        meta_path.write_text(json.dumps(meta))
        tracemalloc.start()
        try:
            error = _read_error(base)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = 8 * 10**6 * (1000 * 8 + 5)
        assert error == (MalformedTrace, f"{base}.body: {self.SIZE} bytes, the sidecar's T, n, d and rhos imply {size}")
        assert peak < 2**20


class TestConcurrentReads:
    """The reader starts no thread and touches no process-wide state: reads
    in several threads agree, a re-score warns as the score does, and the
    writer shares the body with its worker right after one."""

    @pytest.fixture(scope="class")
    def wide(self, tmp_path_factory) -> Path:
        """The wide trace's shape, with values that score without a warning."""
        rng = np.random.default_rng(7)
        T, n, d = WIDE_T, WIDE_N, WIDE_D
        trace = Trace(
            algorithm="hand", seed=0, config={}, x=rng.standard_normal((T, n, d)),
            z=rng.standard_normal((T, n, d)), eps_norm=rng.random((T, n)), loss_self=rng.random((T, n)),
            loss_global=rng.random((T, n)) + 1.0, x_star=rng.standard_normal((T, d)), f_star=rng.random(T),
            g_norm=rng.random((T, n)),
        )
        base = tmp_path_factory.mktemp("wide") / "hand"
        harness.write_trace(trace, [0.9, 1e-05], base)
        return base

    def test_reads_in_several_threads_agree(self, wide):
        expected = harness.recompute_metrics(wide, [0.9, 0.5])
        got = []

        def reads():
            for _ in range(10):
                got.append(harness.recompute_metrics(wide, [0.9, 0.5]))

        readers = [threading.Thread(target=reads) for _ in range(3)]
        for reader in readers:
            reader.start()
        for reader in readers:
            reader.join(timeout=60)
        assert not any(reader.is_alive() for reader in readers)
        assert got == [expected] * 30

    def test_a_rescore_warns_as_the_score_does(self, tmp_path):
        over = _small_trace()
        over.loss_global[:] = 1e308  # the mean over agents overflows
        with np.errstate(all="ignore"):
            harness.write_trace(over, [0.9], tmp_path / "over")
        with warnings.catch_warnings(record=True) as scored:
            warnings.simplefilter("always")
            harness._seed_summary(over, [0.9])
        with warnings.catch_warnings(record=True) as rescored:
            warnings.simplefilter("always")
            harness.recompute_metrics(tmp_path / "over", [0.9])
        scored, rescored = [str(w.message) for w in scored], [str(w.message) for w in rescored]
        assert "overflow encountered in reduce" in scored
        # then the stored column's comparison, inf - inf, warns on its own
        assert rescored == [*scored, "invalid value encountered in subtract"]

    def test_the_writer_can_split_right_after_a_rescore(self, wide, tmp_path, shares):
        harness.recompute_metrics(wide, [0.9])
        trace = _wide_trace()
        csv_path, *_ = harness.write_trace(trace, [0.9], tmp_path / "hand")
        assert [taken for *_, taken in shares] == [True]
        assert csv_path.read_bytes() == reference_body(trace, [0.9]).encode()
