"""The bulk trace writer against the per-field writer it replaced.

``reference_body`` is the former ``harness.write_trace`` body: one
``csv.writer`` row per (round, agent), every value through
``repr(float(v))``.  It stays here as the reference, the way
tests/test_algorithms.py keeps the per-agent loops of the batched engine.
The reader is checked against the writer: a written trace reads back bit for
bit.  ``TestSplitWriter`` checks the two-process writer on a trace above
``harness.SPLIT_MIN_VALUES``: the same bytes as ``reference_body`` and as one
process, and no file or child process left after a failure on either side.
"""

import csv
import io
import json
import os
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


def _wide_trace(sentinel_row: int | None = None) -> Trace:
    """``EDGE_VALUES`` in the last round of the first half and the first round
    of the second, and ``SENTINEL`` at 0-based row ``sentinel_row`` if given."""
    rng = np.random.default_rng(5)
    T, n, d = WIDE_T, WIDE_N, WIDE_D
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

    @pytest.fixture
    def forks(self, monkeypatch):
        """The writer's forks, counted."""
        calls = []
        real = os.fork

        def counted():
            calls.append(1)
            return real()

        monkeypatch.setattr(harness.os, "fork", counted)
        return calls

    @staticmethod
    def assert_no_child():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_split_body_is_the_reference_body(self, tmp_path, forks):
        assert WIDE_T * WIDE_BLOCK >= harness.SPLIT_MIN_VALUES
        trace = _wide_trace()
        csv_path, _ = harness.write_trace(trace, [0.9, 1e-05], tmp_path / "hand")
        assert forks == [1]
        assert csv_path.read_bytes() == reference_body(trace, [0.9, 1e-05]).encode()
        self.assert_no_child()

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
        self.assert_no_child()

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_failure_in_this_half_kills_and_reaps_the_child(self, tmp_path, monkeypatch, forks, error):
        trace = _wide_trace(sentinel_row=1)
        monkeypatch.setattr(harness, "repr", _failing_on_sentinel(error), raising=False)
        with pytest.raises(error, match="injected formatting failure"):
            harness.write_trace(trace, [0.9], tmp_path / "hand")
        assert forks == [1]
        assert list(tmp_path.iterdir()) == []
        self.assert_no_child()

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
