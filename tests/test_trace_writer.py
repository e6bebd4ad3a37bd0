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
score of the trace in memory.  ``TestSplitWriter`` checks the two-process
writer on a trace above ``harness.SPLIT_MIN_VALUES``: the same bytes as
``reference_body``, ``reference_record`` and one process, and no file or
child process left after a failure on either side or in the record.
``TestRecord`` checks what the reader refuses: a record of any other size
(one of the older layout included, at every shape), a missing one or a
directory in its place, each named, and a sidecar that would size a read
alone.  ``TestConcurrentReads`` checks that reads share no state: threads
agree, warnings pass through, and the writer may fork after a read.
"""

import csv
import hashlib
import io
import json
import os
import tempfile
import threading
import time
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dffr import cli, harness, metrics
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


class TestFailedWrite:
    """A write that fails partway leaves none of the three files."""

    # The header formats one value and a round of _small_trace 29; two rounds come
    # before the failure, so the CSV exists and holds rows when it fails.
    FAIL_AFTER = 60

    def test_failure_while_formatting_the_body(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "repr", _repr_failing_after(self.FAIL_AFTER), raising=False)
        with pytest.raises(RuntimeError, match="injected formatting failure"):
            harness.write_trace(_small_trace(), [0.9], tmp_path / "hand")
        assert list(tmp_path.iterdir()) == []

    def test_failed_rewrite_leaves_no_stale_sidecar(self, tmp_path, monkeypatch):
        harness.write_trace(_small_trace(), [0.9], tmp_path / "hand")
        monkeypatch.setattr(harness, "repr", _repr_failing_after(self.FAIL_AFTER), raising=False)
        with pytest.raises(RuntimeError, match="injected formatting failure"):
            harness.write_trace(_small_trace(), [0.9], tmp_path / "hand")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_failure_while_writing_the_record(self, tmp_path, monkeypatch, error):
        """The record fails after its per-agent block, before the CSV is opened."""
        monkeypatch.setattr(harness.np, "ascontiguousarray", _second_block_failing(error))
        with pytest.raises(error, match="injected record failure"):
            harness.write_trace(_small_trace(), [0.9], tmp_path / "hand")
        assert list(tmp_path.iterdir()) == []

    def test_failure_while_writing_the_sidecar(self, tmp_path, monkeypatch):
        def failing_dumps(*args, **kwargs):
            raise RuntimeError("injected sidecar failure")

        monkeypatch.setattr(harness.json, "dumps", failing_dumps)
        with pytest.raises(RuntimeError, match="injected sidecar failure"):
            harness.write_trace(_small_trace(), [0.9], tmp_path / "hand")
        assert list(tmp_path.iterdir()) == []


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


# The split writer's hand trace: its per-agent block, WIDE_T * n * (2d + 4)
# values, just reaches harness.SPLIT_MIN_VALUES.
WIDE_N, WIDE_D = 4, 3
WIDE_BLOCK = WIDE_N * (2 * WIDE_D + 4)
WIDE_T = -(-harness.SPLIT_MIN_VALUES // WIDE_BLOCK) + 1
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
def forks(monkeypatch):
    """The forks of the code under test, counted."""
    calls = []
    real = os.fork

    def counted():
        calls.append(1)
        return real()

    monkeypatch.setattr(harness.os, "fork", counted)
    return calls


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# The CPUs this process may use, taken before any test: the writer forks a
# child and must leave the caller's CPUs as they were.
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


def _stalling_repr(inner):
    """A stand-in for ``repr`` that sleeps ``STALL_SECONDS`` on ``STALL``, then
    formats every value with ``inner``."""

    def stalling_repr(v):
        if v == STALL:
            time.sleep(STALL_SECONDS)
        return inner(v)

    return stalling_repr


class TestSplitWriter:
    """The two-process writer: the same bytes, and no file or child left behind."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)

    def test_split_body_is_the_reference_body(self, tmp_path, forks):
        assert WIDE_T * WIDE_BLOCK >= harness.SPLIT_MIN_VALUES
        trace = _wide_trace()
        csv_path, *_ = harness.write_trace(trace, [0.9, 1e-05], tmp_path / "hand")
        assert forks == [1]
        assert csv_path.read_bytes() == reference_body(trace, [0.9, 1e-05]).encode()
        assert_no_child()

    def test_split_record_is_the_reference_record(self, tmp_path, forks):
        trace = _wide_trace()
        *_, body_path = harness.write_trace(trace, [0.9, 1e-05], tmp_path / "hand")
        assert forks == [1]
        assert body_path.read_bytes() == reference_record(trace, [0.9, 1e-05])
        assert_no_child()

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_failure_while_writing_the_record_forks_no_child(self, tmp_path, monkeypatch, forks, error):
        """The record is written before the CSV is split, so a record that
        fails leaves no child to kill, and no file."""
        monkeypatch.setattr(harness.np, "ascontiguousarray", _second_block_failing(error))
        with pytest.raises(error, match="injected record failure"):
            harness.write_trace(_wide_trace(), [0.9], tmp_path / "hand")
        assert forks == []
        assert list(tmp_path.iterdir()) == []
        assert_no_child()
        assert_cpus_unchanged()

    @pytest.mark.parametrize("disable", ["threshold", "one_cpu", "another_thread"])
    def test_one_process_writes_the_same_bytes(self, tmp_path, monkeypatch, forks, disable):
        trace = _wide_trace()
        split, _, split_copy = harness.write_trace(trace, [0.9], tmp_path / "split")
        if disable == "threshold":
            monkeypatch.setattr(harness, "SPLIT_MIN_VALUES", WIDE_T * WIDE_BLOCK + 1)
        elif disable == "one_cpu":
            monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(10.0,))
        if disable == "another_thread":
            other.start()
        try:
            serial, _, serial_copy = harness.write_trace(trace, [0.9], tmp_path / "serial")
        finally:
            release.set()
        if disable == "another_thread":
            other.join(timeout=10.0)
            assert not other.is_alive()
        assert forks == [1]
        assert serial.read_bytes() == split.read_bytes()
        assert serial_copy.read_bytes() == split_copy.read_bytes()  # written during the wait, or after

    def test_failure_in_the_childs_half_is_raised_here(self, tmp_path, monkeypatch, forks):
        trace = _wide_trace(sentinel_row=WIDE_T - 2)
        monkeypatch.setattr(harness, "repr", _failing_on_sentinel(RuntimeError), raising=False)
        with pytest.raises(RuntimeError, match="injected formatting failure"):
            harness.write_trace(trace, [0.9], tmp_path / "hand")
        assert forks == [1]
        assert list(tmp_path.iterdir()) == []
        assert_no_child()

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_failure_in_this_half_kills_and_reaps_the_child(self, tmp_path, monkeypatch, forks, error):
        """The child stalls in its half, so a child that is waited for, not
        killed, holds the failed write for ``STALL_SECONDS``."""
        trace = _wide_trace(sentinel_row=1)
        trace.eps_norm[WIDE_T - 2, 1] = STALL
        monkeypatch.setattr(harness, "repr", _stalling_repr(_failing_on_sentinel(error)), raising=False)
        start = time.monotonic()
        with pytest.raises(error, match="injected formatting failure"):
            harness.write_trace(trace, [0.9], tmp_path / "hand")
        assert time.monotonic() - start < STALL_SECONDS
        assert forks == [1]
        assert list(tmp_path.iterdir()) == []
        assert_no_child()
        assert_cpus_unchanged()

    def test_fork_warning_of_a_threaded_process_is_filtered(self, tmp_path, monkeypatch):
        """Python 3.12+ warns on fork while another OS thread exists; this
        stand-in fork gives that warning on any version."""
        real = os.fork

        def warning_fork():
            warnings.warn(
                "This process (pid=1) is multi-threaded, use of fork() may lead to deadlocks in the child.",
                DeprecationWarning,
                stacklevel=2,
            )
            return real()

        monkeypatch.setattr(harness.os, "fork", warning_fork)
        trace = _wide_trace()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            csv_path, *_ = harness.write_trace(trace, [0.9], tmp_path / "hand")
        assert csv_path.read_bytes() == reference_body(trace, [0.9]).encode()


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
    def test_one_round_is_read_from_its_record(self, tmp_path, forks, n):
        trace = _wide_trace(T=1, n=n)
        harness.write_trace(trace, [0.9, 1e-05], tmp_path / "hand")
        _, arrays = _every_array(tmp_path / "hand", [0.9, 1e-05])
        assert forks == []
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
    writer may fork right after one."""

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

    @pytest.mark.skipif(not hasattr(os, "fork") or harness._usable_cpus() < 2, reason="the writer cannot split here")
    def test_the_writer_can_split_right_after_a_rescore(self, wide):
        harness.recompute_metrics(wide, [0.9])
        assert harness._can_split()
