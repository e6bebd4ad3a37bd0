"""The bulk trace writer against the per-field writer it replaced.

``reference_body`` is the former ``harness.write_trace`` body: one
``csv.writer`` row per (round, agent), every value through
``repr(float(v))``.  It stays here as the reference, the way
tests/test_algorithms.py keeps the per-agent loops of the batched engine.
The reader is checked against the writer: a written trace reads back bit for
bit, in one process and split between two.  ``TestSplitWriter`` checks the
two-process writer on a trace above ``harness.SPLIT_MIN_VALUES``: the same
bytes as ``reference_body`` and as one process, and no file or child process
left after a failure on either side.  ``TestSplitReader`` checks the
two-process reader on a trace above ``harness.READ_SPLIT_MIN_VALUES``: the
same bits and the same errors as one process, and no child process left.
"""

import csv
import io
import json
import os
import shutil
import tempfile
import threading
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dffr import harness, metrics
from dffr.errors import DffrError, MalformedTrace, SchemaVersionMismatch
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
        csv_path, meta_path = harness.write_trace(trace, rhos, Path(tmp) / "hand")
        assert csv_path.read_bytes() == reference_body(trace, rhos).encode()
        meta = json.loads(meta_path.read_text())
    assert meta["columns"] == harness.trace_columns(trace.d, rhos)
    assert (meta["T"], meta["n"], meta["d"]) == (trace.T, trace.n, trace.d)


def assert_same_bits(got, want):
    """Equal bit for bit, so -0.0 is not 0.0; a NaN's sign and payload are not written."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


@settings(max_examples=150, deadline=None)
@given(traces(), rho_lists)
def test_read_gives_back_what_write_wrote(trace, rhos):
    check_round_trip(trace, rhos)


@settings(max_examples=150, deadline=None)
@given(traces(), rho_lists)
def test_split_read_gives_back_what_write_wrote(trace, rhos):
    """The same round trip with every body of two or more rounds read by two processes."""
    real, forks = os.fork, []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "READ_SPLIT_MIN_VALUES", 0)
        patch.setattr(harness, "_usable_cpus", lambda: 2)
        patch.setattr(harness.os, "fork", lambda: forks.append(1) or real())
        check_round_trip(trace, rhos)
    assert len(forks) == (trace.T >= 2)


def check_round_trip(trace, rhos):
    with np.errstate(all="ignore"), tempfile.TemporaryDirectory() as tmp:
        harness.write_trace(trace, rhos, Path(tmp) / "hand")
        _, again, stored = harness.read_trace(Path(tmp) / "hand")
        series = {rho: metrics.dffr_series(trace, rho) for rho in rhos}
    for f in fields(Trace):
        want = getattr(trace, f.name)
        if isinstance(want, np.ndarray):
            assert_same_bits(getattr(again, f.name), want)
        else:
            assert getattr(again, f.name) == want, f.name
    assert sorted(stored) == sorted(set(rhos))
    for rho in rhos:
        assert_same_bits(stored[rho], series[rho])


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
    """A write that fails partway leaves neither the CSV nor the sidecar."""

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

    def test_failure_while_writing_the_sidecar(self, tmp_path, monkeypatch):
        def failing_dumps(*args, **kwargs):
            raise RuntimeError("injected sidecar failure")

        monkeypatch.setattr(harness.json, "dumps", failing_dumps)
        with pytest.raises(RuntimeError, match="injected sidecar failure"):
            harness.write_trace(_small_trace(), [0.9], tmp_path / "hand")
        assert list(tmp_path.iterdir()) == []


# The split writer's hand trace: its per-agent block, WIDE_T * n * (2d + 4)
# values, just reaches harness.SPLIT_MIN_VALUES.
WIDE_N, WIDE_D = 4, 3
WIDE_BLOCK = WIDE_N * (2 * WIDE_D + 4)
WIDE_T = -(-harness.SPLIT_MIN_VALUES // WIDE_BLOCK) + 1
SENTINEL = 0.123456789


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


# The CPUs this process may use, taken before any test: the fork helper places
# its child and must leave them as they were.
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


class TestSplitWriter:
    """The two-process writer: the same bytes, and no file or child left behind."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)

    def test_split_body_is_the_reference_body(self, tmp_path, forks):
        assert WIDE_T * WIDE_BLOCK >= harness.SPLIT_MIN_VALUES
        trace = _wide_trace()
        csv_path, _ = harness.write_trace(trace, [0.9, 1e-05], tmp_path / "hand")
        assert forks == [1]
        assert csv_path.read_bytes() == reference_body(trace, [0.9, 1e-05]).encode()
        assert_no_child()

    @pytest.mark.parametrize("disable", ["threshold", "one_cpu", "another_thread"])
    def test_one_process_writes_the_same_bytes(self, tmp_path, monkeypatch, forks, disable):
        trace = _wide_trace()
        split, _ = harness.write_trace(trace, [0.9], tmp_path / "split")
        if disable == "threshold":
            monkeypatch.setattr(harness, "SPLIT_MIN_VALUES", WIDE_T * WIDE_BLOCK + 1)
        elif disable == "one_cpu":
            monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(10.0,))
        if disable == "another_thread":
            other.start()
        try:
            serial, _ = harness.write_trace(trace, [0.9], tmp_path / "serial")
        finally:
            release.set()
        if disable == "another_thread":
            other.join(timeout=10.0)
            assert not other.is_alive()
        assert forks == [1]
        assert serial.read_bytes() == split.read_bytes()

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
        trace = _wide_trace(sentinel_row=1)
        monkeypatch.setattr(harness, "repr", _failing_on_sentinel(error), raising=False)
        with pytest.raises(error, match="injected formatting failure"):
            harness.write_trace(trace, [0.9], tmp_path / "hand")
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
            csv_path, _ = harness.write_trace(trace, [0.9], tmp_path / "hand")
        assert csv_path.read_bytes() == reference_body(trace, [0.9]).encode()


# The split reader's hand trace: _wide_trace over READ_T rounds, whose body,
# READ_T * n rows by READ_WIDTH columns, just reaches harness.READ_SPLIT_MIN_VALUES.
READ_RHOS = [0.9, 1e-05]
READ_WIDTH = len(harness.trace_columns(WIDE_D, READ_RHOS))
READ_T = -(-harness.READ_SPLIT_MIN_VALUES // (WIDE_N * READ_WIDTH)) + 1
READ_SPLIT_ROW = READ_T // 2 * WIDE_N  # the child's first body row


def _read_arrays(base) -> list[np.ndarray]:
    """Every array that read_trace gives back: the trace's, then the stored columns."""
    _, trace, stored = harness.read_trace(base)
    arrays = [getattr(trace, f.name) for f in fields(Trace)]
    return [a for a in arrays if isinstance(a, np.ndarray)] + [stored[rho] for rho in READ_RHOS]


def _read_error(base) -> tuple[type, str]:
    with pytest.raises(DffrError) as info:
        harness.read_trace(base)
    return type(info.value), str(info.value)


def _with_field(line: str, k: int, value: str) -> str:
    fields_ = line.rstrip("\n").split(",")
    fields_[k] = value
    return ",".join(fields_) + "\n"


class TestSplitReader:
    """The two-process reader: the same arrays and errors, and no child left behind."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)

    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        """The wide trace and its base path, written once; tests change copies."""
        trace = _wide_trace(T=READ_T)
        base = tmp_path_factory.mktemp("wide") / "hand"
        harness.write_trace(trace, READ_RHOS, base)
        return trace, base

    @staticmethod
    def copy_with(base: Path, tmp_path: Path, edit) -> Path:
        """A copy of the trace pair whose CSV lines (header first) pass through ``edit``."""
        lines = base.with_suffix(".csv").read_text().splitlines(keepends=True)
        copy = tmp_path / "copy"
        copy.with_suffix(".csv").write_text("".join(edit(lines)))
        shutil.copyfile(base.with_suffix(".meta.json"), copy.with_suffix(".meta.json"))
        return copy

    @staticmethod
    def one_process(monkeypatch):
        monkeypatch.setattr(harness, "READ_SPLIT_MIN_VALUES", READ_T * WIDE_N * READ_WIDTH + 1)

    @pytest.mark.parametrize("disable", ["threshold", "one_cpu"])
    def test_split_read_is_the_one_process_read(self, written, monkeypatch, forks, disable):
        trace, base = written
        assert READ_T * WIDE_N * READ_WIDTH >= harness.READ_SPLIT_MIN_VALUES
        real, parses = harness._load_rows, []
        monkeypatch.setattr(harness, "_load_rows", lambda fh, max_rows=None: parses.append(max_rows) or real(fh, max_rows))
        split = _read_arrays(base)
        assert forks == [1]
        assert parses == [READ_SPLIT_ROW]  # this process's half, and no second parse
        assert_no_child()
        if disable == "threshold":
            self.one_process(monkeypatch)
        else:
            monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
        assert_cpus_unchanged()
        serial = _read_arrays(base)
        assert forks == [1]
        for got, want in zip(split, serial, strict=True):
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert_same_bits(split[0], trace.x)

    @pytest.mark.parametrize(
        "line", [READ_SPLIT_ROW + 3, 2], ids=["childs-half", "this-half"]
    )
    def test_non_number_gives_the_one_process_error(self, written, tmp_path, monkeypatch, forks, line):
        copy = self.copy_with(
            written[1], tmp_path, lambda lines: [*lines[:line - 1], _with_field(lines[line - 1], 4, "abc"), *lines[line:]]
        )
        split = _read_error(copy)
        assert forks == [1]
        assert_no_child()
        self.one_process(monkeypatch)
        assert _read_error(copy) == split
        assert split == (MalformedTrace, f"{copy}.csv: line {line}: {harness.trace_columns(WIDE_D, READ_RHOS)[4]} "
                         "is not a number: 'abc'")

    @pytest.mark.parametrize(
        "edit, rows",
        [
            (lambda lines: lines[:-1], READ_T * WIDE_N - 1),
            (lambda lines: [*lines[:3], *lines[4:]], READ_T * WIDE_N - 1),
            (lambda lines: [*lines, lines[-1]], READ_T * WIDE_N + 1),
            (lambda lines: lines[:READ_SPLIT_ROW + 2], READ_SPLIT_ROW + 1),  # it would broadcast
        ],
        ids=["last-row-missing", "row-missing-in-this-half", "row-extra", "one-row-in-childs-half"],
    )
    def test_wrong_row_count_gives_the_one_process_error(self, written, tmp_path, monkeypatch, forks, edit, rows):
        copy = self.copy_with(written[1], tmp_path, edit)
        split = _read_error(copy)
        assert forks == [1]
        assert_no_child()
        self.one_process(monkeypatch)
        assert _read_error(copy) == split
        expected = READ_T * WIDE_N
        assert split == (
            SchemaVersionMismatch,
            f"{copy}.csv: line {min(rows, expected) + 2}: trace has {rows} rows, expected T*n = {expected}",
        )

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_failure_in_this_half_kills_and_reaps_the_child(self, written, monkeypatch, forks, error):
        real = harness._load_rows

        def failing(fh, max_rows=None):
            if max_rows is not None:  # this process's half; the child parses to the end
                raise error("injected parse failure")
            return real(fh, max_rows)

        monkeypatch.setattr(harness, "_load_rows", failing)
        with pytest.raises(error, match="injected parse failure"):
            harness.read_trace(written[1])
        assert forks == [1]
        assert_no_child()
        assert_cpus_unchanged()

    @pytest.mark.parametrize("n", [1, WIDE_N])
    def test_one_round_is_read_in_one_process(self, tmp_path, monkeypatch, forks, n):
        monkeypatch.setattr(harness, "READ_SPLIT_MIN_VALUES", 0)
        trace = _wide_trace(T=1, n=n)
        harness.write_trace(trace, READ_RHOS, tmp_path / "hand")
        assert_same_bits(_read_arrays(tmp_path / "hand")[0], trace.x)
        assert forks == []

    def test_sidecar_cannot_size_the_buffer_alone(self, written, tmp_path, forks):
        """A sidecar that claims 10**9 rows beside a small CSV gets the row-count
        error, without a split that would map 10**9 rows of floats."""
        copy = self.copy_with(written[1], tmp_path, lambda lines: lines)
        meta_path = copy.with_suffix(".meta.json")
        meta = json.loads(meta_path.read_text())
        meta.update(T=10**6, n=1000, final_eps_norm=[0.0] * 1000)
        meta_path.write_text(json.dumps(meta))
        rows = READ_T * WIDE_N
        assert _read_error(copy) == (
            SchemaVersionMismatch,
            f"{copy}.csv: line {rows + 2}: trace has {rows} rows, expected T*n = {10**9}",
        )
        assert forks == []
