"""The bulk trace writer against the per-field writer it replaced, and the
binary copy of the body beside it.

``reference_body`` is the former ``harness.write_trace`` body: one
``csv.writer`` row per (round, agent), every value through
``repr(float(v))``.  It stays here as the reference, the way
tests/test_algorithms.py keeps the per-agent loops of the batched engine.
The reader is checked against the writer: a written trace reads back bit for
bit, from the binary copy and from the parsed text alike.  ``TestSplitWriter``
checks the two-process writer on a trace above ``harness.SPLIT_MIN_VALUES``:
the same bytes as ``reference_body`` and as one process, and no file or child
process left after a failure on either side.  ``TestCopyFallback`` and
``TestParseBesideAStaleCopy`` check that a copy which is not the CSV's own is
never used: the read parses the text, with the same arrays and the same
errors.  ``TestVerifiedWhileScored`` checks the reader that hashes the CSV on
a helper thread while the copy is scored: what a stale copy gave (entry, error
or warning) never escapes, and no thread outlives a call.
"""

import csv
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
import threading
import time
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dffr import cli, harness, metrics
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
        csv_path, meta_path, body_path = harness.write_trace(trace, rhos, Path(tmp) / "hand")
        text = reference_body(trace, rhos)
        assert csv_path.read_bytes() == text.encode()
        meta = json.loads(meta_path.read_text())
        # The copy: the parsed body as little-endian float64, then the CSV's SHA-256.
        parsed = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
        assert body_path.read_bytes() == parsed.astype("<f8").tobytes() + hashlib.sha256(text.encode()).digest()
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


def _nan(bits: int) -> float:
    return float(np.array([bits], dtype=np.uint64).view(float)[0])


# Every NaN form (quiet, negative, with a payload, signalling), both
# infinities, signed zeros and subnormals: the copy must hold for each what
# the text parses to.
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


@pytest.fixture
def parses(monkeypatch):
    """The text parses of the code under test, counted."""
    calls = []
    real = harness._load_rows
    monkeypatch.setattr(harness, "_load_rows", lambda fh: calls.append(1) or real(fh))
    return calls


@settings(max_examples=150, deadline=None)
@given(wild_traces(), rho_lists)
def test_copy_reads_as_the_parsed_text(trace, rhos):
    """A read from the binary copy gives every array, stored columns included,
    bit for bit as the parse of the CSV does once the copy is deleted."""
    calls = []
    real = harness._load_rows
    with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"), tempfile.TemporaryDirectory() as tmp:
        patch.setattr(harness, "_load_rows", lambda fh: calls.append(1) or real(fh))
        base = Path(tmp) / "hand"
        *_, body_path = harness.write_trace(trace, rhos, base)
        meta, copy = _every_array(base, rhos)
        assert calls == []
        body_path.unlink()
        again, parsed = _every_array(base, rhos)
        assert calls == [1]
    assert meta == again
    assert_identical(copy, parsed)


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

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_failure_while_writing_the_copy(self, tmp_path, monkeypatch, error):
        monkeypatch.setattr(harness, "_write_copy", _copy_failing(error))
        with pytest.raises(error, match="injected copy failure"):
            harness.write_trace(_small_trace(), [0.9], tmp_path / "hand")
        assert list(tmp_path.iterdir()) == []


def _copy_failing(error: type):
    """A stand-in for ``harness._write_copy`` that writes one value, then raises."""

    def failing(out, per_agent, per_round):
        out.write(np.zeros(1).tobytes())
        raise error("injected copy failure")

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
    def test_failure_while_writing_the_copy_kills_and_reaps_the_child(self, tmp_path, monkeypatch, forks, error):
        """The child stalls in its half, as in the test below, so the failed
        write returns before the stall ends only if the child is killed."""
        trace = _wide_trace()
        trace.eps_norm[WIDE_T - 2, 1] = STALL
        monkeypatch.setattr(harness, "repr", _stalling_repr(repr), raising=False)
        monkeypatch.setattr(harness, "_write_copy", _copy_failing(error))
        start = time.monotonic()
        with pytest.raises(error, match="injected copy failure"):
            harness.write_trace(trace, [0.9], tmp_path / "hand")
        assert time.monotonic() - start < STALL_SECONDS
        assert forks == [1]
        assert list(tmp_path.iterdir()) == []
        assert_no_child()
        assert_cpus_unchanged()

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


READ_RHOS = [0.9, 1e-05]
READ_ROWS = WIDE_T * WIDE_N
MID_ROW = WIDE_T // 2 * WIDE_N  # the first body row of the second half of the rounds


def _with_field(line: str, k: int, value: str) -> str:
    fields_ = line.rstrip("\n").split(",")
    fields_[k] = value
    return ",".join(fields_) + "\n"


def _read_error(base) -> tuple[type, str]:
    with pytest.raises(DffrError) as info:
        harness.read_trace(base)
    return type(info.value), str(info.value)


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """The wide trace and its base path, written once (split, where this
    machine allows it); tests change copies."""
    trace = _wide_trace()
    base = tmp_path_factory.mktemp("wide") / "hand"
    harness.write_trace(trace, READ_RHOS, base)
    return trace, base


def copy_with(base: Path, tmp_path: Path, edit=None) -> Path:
    """A copy of the three files, the binary copy unchanged; the CSV lines
    (header first) pass through ``edit`` if it is given."""
    copy = tmp_path / "copy"
    for suffix in (".csv", ".meta.json", ".body"):
        shutil.copyfile(base.with_suffix(suffix), copy.with_suffix(suffix))
    if edit is not None:
        lines = base.with_suffix(".csv").read_text().splitlines(keepends=True)
        copy.with_suffix(".csv").write_text("".join(edit(lines)))
    return copy


class TestCopyFallback:
    """The binary copy is read only while it is this CSV's copy; in every
    other case the text is parsed, and the arrays are the parse's."""

    def test_copy_is_read_without_a_parse(self, written, tmp_path, parses):
        trace, base = written
        copy = copy_with(base, tmp_path)
        _, arrays = _every_array(copy, READ_RHOS)
        assert parses == []
        copy.with_suffix(".body").unlink()
        assert_identical(arrays, _every_array(copy, READ_RHOS)[1])
        assert parses == [1]
        assert_same_bits(arrays[0], trace.x)

    @staticmethod
    def edit_a_digit(copy: Path) -> None:
        """One digit of x_0 on line 5 changed, at the same length."""
        data = bytearray(copy.with_suffix(".csv").read_bytes())
        line_start = [i + 1 for i, b in enumerate(data) if b == ord("\n")][3]
        k = line_start
        for _ in range(3):  # past t and agent, to the comma after x_0
            k = data.index(b",", k) + 1
        k -= 2  # the last character of x_0
        assert chr(data[k]).isdigit()
        data[k] = ord("1") if data[k] != ord("1") else ord("2")
        copy.with_suffix(".csv").write_bytes(bytes(data))

    @staticmethod
    def rewrite_the_csv(copy: Path) -> None:
        """Another trace of the same shape written over the files, with the
        old binary copy put back."""
        old = copy.with_suffix(".body").read_bytes()
        other = _wide_trace()
        other.x *= 2.0
        harness.write_trace(other, READ_RHOS, copy)
        assert copy.with_suffix(".body").stat().st_size == len(old)
        copy.with_suffix(".body").write_bytes(old)

    @staticmethod
    def change_the_copy(how):
        def edit(copy: Path) -> None:
            body = copy.with_suffix(".body")
            body.write_bytes(how(body.read_bytes()))

        return edit

    @pytest.mark.parametrize(
        "stale",
        [
            edit_a_digit,
            change_the_copy(lambda data: data[:-1]),
            change_the_copy(lambda data: data + b"\0"),
            change_the_copy(lambda data: data[:-1] + bytes([data[-1] ^ 1])),
            lambda copy: copy.with_suffix(".body").unlink(),
            rewrite_the_csv,
        ],
        ids=["digit-edited", "copy-truncated", "copy-one-byte-longer", "digest-flipped", "copy-missing", "csv-rewritten"],
    )
    def test_a_copy_that_is_not_the_csvs_is_not_read(self, written, tmp_path, parses, stale):
        copy = copy_with(written[1], tmp_path)
        stale(copy)
        _, got = _every_array(copy, READ_RHOS)
        assert parses == [1]
        copy.with_suffix(".body").unlink(missing_ok=True)
        assert_identical(got, _every_array(copy, READ_RHOS)[1])


class TestParseBesideAStaleCopy:
    """Malformed CSV files beside the binary copy they were written with (their
    edits lie in either half of the rounds): the copy's digest no longer
    matches, so the read parses the text and raises its exact error, as
    without the copy."""

    @staticmethod
    def assert_the_parses_error(copy: Path, parses: list) -> tuple[type, str]:
        error = _read_error(copy)
        assert parses == [1]
        copy.with_suffix(".body").unlink()
        assert _read_error(copy) == error
        return error

    @pytest.mark.parametrize("line", [MID_ROW + 3, 2], ids=["second-half", "first-half"])
    def test_non_number_gives_the_parse_error(self, written, tmp_path, parses, line):
        copy = copy_with(
            written[1], tmp_path, lambda lines: [*lines[:line - 1], _with_field(lines[line - 1], 4, "abc"), *lines[line:]]
        )
        assert self.assert_the_parses_error(copy, parses) == (
            MalformedTrace,
            f"{copy}.csv: line {line}: {harness.trace_columns(WIDE_D, READ_RHOS)[4]} is not a number: 'abc'",
        )

    @pytest.mark.parametrize(
        "edit, rows",
        [
            (lambda lines: lines[:-1], READ_ROWS - 1),
            (lambda lines: [*lines[:3], *lines[4:]], READ_ROWS - 1),
            (lambda lines: [*lines, lines[-1]], READ_ROWS + 1),
            (lambda lines: lines[:MID_ROW + 2], MID_ROW + 1),
        ],
        ids=["last-row-missing", "row-missing-in-first-half", "row-extra", "one-row-in-second-half"],
    )
    def test_wrong_row_count_gives_the_parse_error(self, written, tmp_path, parses, edit, rows):
        copy = copy_with(written[1], tmp_path, edit)
        assert self.assert_the_parses_error(copy, parses) == (
            SchemaVersionMismatch,
            f"{copy}.csv: line {min(rows, READ_ROWS) + 2}: trace has {rows} rows, expected T*n = {READ_ROWS}",
        )

    @pytest.mark.parametrize("n", [1, WIDE_N])
    def test_one_round_is_read_from_its_copy(self, tmp_path, forks, parses, n):
        trace = _wide_trace(T=1, n=n)
        harness.write_trace(trace, READ_RHOS, tmp_path / "hand")
        _, arrays = _every_array(tmp_path / "hand", READ_RHOS)
        assert parses == [] and forks == []
        assert_same_bits(arrays[0], trace.x)
        (tmp_path / "hand.body").unlink()
        assert_identical(arrays, _every_array(tmp_path / "hand", READ_RHOS)[1])

    def test_sidecar_cannot_size_the_buffer_alone(self, written, tmp_path, parses):
        """A sidecar that claims 10**9 rows beside a small CSV and its copy gets
        the row-count error: the copy's size does not match, so nothing is read
        from it and no buffer of 10**9 rows of floats is made."""
        copy = copy_with(written[1], tmp_path)
        meta_path = copy.with_suffix(".meta.json")
        meta = json.loads(meta_path.read_text())
        meta.update(T=10**6, n=1000, final_eps_norm=[0.0] * 1000)
        meta_path.write_text(json.dumps(meta))
        assert self.assert_the_parses_error(copy, parses) == (
            SchemaVersionMismatch,
            f"{copy}.csv: line {READ_ROWS + 2}: trace has {READ_ROWS} rows, expected T*n = {10**9}",
        )


@pytest.fixture
def hashed_on(monkeypatch):
    """The threads the reader hashed the CSV on, listed as it hashes."""
    ran_on = []
    real = harness._hash_csv
    monkeypatch.setattr(harness, "_hash_csv", lambda *args: ran_on.append(threading.current_thread()) or real(*args))
    return ran_on


def _own_copy(base: Path) -> None:
    """Rewrite <base>.body as the copy of the CSV as it stands: its parsed rows
    and its SHA-256."""
    csv_bytes = base.with_suffix(".csv").read_bytes()
    rows = np.loadtxt(io.BytesIO(csv_bytes), delimiter=",", skiprows=1, ndmin=2)
    base.with_suffix(".body").write_bytes(rows.astype("<f8").tobytes() + hashlib.sha256(csv_bytes).digest())


def _parsed_entry(base: Path, tmp_path: Path) -> dict:
    """recompute_metrics of a copy of the files at ``base`` with no binary copy."""
    (tmp_path / "parsed").mkdir(parents=True, exist_ok=True)
    parsed = copy_with(base, tmp_path / "parsed")
    parsed.with_suffix(".body").unlink()
    return harness.recompute_metrics(parsed, READ_RHOS)


def _digit_edited(base: Path, tmp_path: Path) -> Path:
    """A copy of the files at ``base`` whose CSV has one digit edited, beside
    the old binary copy."""
    tmp_path.mkdir()
    stale = copy_with(base, tmp_path)
    TestCopyFallback.edit_a_digit(stale)
    return stale


def _plain_trace() -> Trace:
    """The wide trace's shape with values that score without a warning."""
    rng = np.random.default_rng(7)
    T, n, d = WIDE_T, WIDE_N, WIDE_D
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


@pytest.fixture(scope="module")
def plain(tmp_path_factory) -> Path:
    """The base path of ``_plain_trace``, written once; tests change copies."""
    base = tmp_path_factory.mktemp("plain") / "hand"
    harness.write_trace(_plain_trace(), READ_RHOS, base)
    return base


class TestVerifiedWhileScored:
    """The CSV is hashed while the copy's rows are checked and scored; what the
    copy gave is returned, raised or warned only once the digest matches."""

    def test_a_stale_copy_that_overflows_gives_the_parsed_entry(self, plain, tmp_path, parses, hashed_on):
        over = _plain_trace()
        over.loss_global[:] = 1e308  # the mean over agents overflows
        with np.errstate(all="ignore"):
            harness.write_trace(over, READ_RHOS, tmp_path / "over")
        with warnings.catch_warnings(record=True) as issued:  # scored from its own copy, it warns
            warnings.simplefilter("always")
            harness.recompute_metrics(tmp_path / "over", READ_RHOS)
        assert "overflow encountered in reduce" in [str(w.message) for w in issued]
        assert parses == []
        stale = copy_with(plain, tmp_path)
        shutil.copyfile(tmp_path / "over.body", stale.with_suffix(".body"))
        expected = _parsed_entry(plain, tmp_path)
        parses.clear()
        with warnings.catch_warnings(record=True) as issued:
            warnings.simplefilter("always")
            assert harness.recompute_metrics(stale, READ_RHOS) == expected
        assert issued == []
        assert parses == [1]
        assert [thread is threading.main_thread() for thread in hashed_on] == [False] * 2

    def test_an_error_from_a_stale_copy_is_dropped(self, plain, tmp_path, parses):
        copy = copy_with(plain, tmp_path)
        body = bytearray(copy.with_suffix(".body").read_bytes())
        body[:8] = np.array([7.0], dtype="<f8").tobytes()  # the first row's round, off the grid
        copy.with_suffix(".body").write_bytes(bytes(body))
        TestCopyFallback.edit_a_digit(copy)
        assert harness.recompute_metrics(copy, READ_RHOS) == _parsed_entry(copy, tmp_path)
        assert parses == [1, 1]

    def test_an_error_from_the_csvs_own_copy_is_raised(self, plain, tmp_path, parses):
        copy = copy_with(
            plain, tmp_path, lambda lines: [*lines[:3], _with_field(lines[3], 1, "0"), *lines[4:]]
        )
        _own_copy(copy)
        message = f"{copy}.csv: line 4: expected round 1, agent 2; rows run round-major over (t, agent)"
        for read in (harness.read_trace, lambda base: harness.recompute_metrics(base, READ_RHOS)):
            with pytest.raises(MalformedTrace) as caught:
                read(copy)
            assert str(caught.value) == message
            assert threading.active_count() == 1
        assert parses == []

    def test_no_thread_outlives_a_call(self, plain, tmp_path, hashed_on, monkeypatch):
        copy = copy_with(plain, tmp_path)
        entry = harness.recompute_metrics(copy, READ_RHOS)
        assert threading.active_count() == 1
        assert _parsed_entry(copy, tmp_path) == entry

        def failing(trace, rhos):
            raise ZeroDivisionError("in the seed entry")

        monkeypatch.setattr(harness, "_seed_summary", failing)
        with pytest.raises(ZeroDivisionError, match="^in the seed entry$"):
            harness.recompute_metrics(copy, READ_RHOS)
        assert threading.active_count() == 1
        assert [thread is threading.main_thread() for thread in hashed_on] == [False] * 2

    def test_reads_under_a_short_switch_interval_agree(self, plain, tmp_path):
        """The helper hands the digest over only through its join: with the
        interpreter switching threads every microsecond, every read of the copy
        and of a stale copy gives the entry of the parsed text."""
        copy = copy_with(plain, tmp_path)
        expected = _parsed_entry(copy, tmp_path)
        stale = _digit_edited(plain, tmp_path / "stale")
        stale_expected = _parsed_entry(stale, tmp_path / "stale-parsed")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                assert harness.recompute_metrics(copy, READ_RHOS) == expected
                assert harness.recompute_metrics(stale, READ_RHOS) == stale_expected
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == 1

    def test_reads_in_several_threads_leave_the_warnings_state_as_it_was(self, plain, tmp_path):
        """Each read swaps the process-wide warnings state in and out; reads in
        three threads at once, from a copy and from a stale one (parsed), put
        back what they found."""
        copy = copy_with(plain, tmp_path)
        stale = _digit_edited(plain, tmp_path / "stale")
        before = warnings._showwarnmsg_impl, list(warnings.filters)  # what catch_warnings swaps

        def reads():
            for _ in range(15):
                harness.recompute_metrics(copy, READ_RHOS)
                harness.recompute_metrics(stale, READ_RHOS)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            readers = [threading.Thread(target=reads) for _ in range(3)]
            for reader in readers:
                reader.start()
            for reader in readers:
                reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert (warnings._showwarnmsg_impl, list(warnings.filters)) == before

    @pytest.mark.skipif(not hasattr(os, "fork") or harness._usable_cpus() < 2, reason="the writer cannot split here")
    def test_the_writer_can_split_right_after_a_rescore(self, plain, tmp_path):
        harness.recompute_metrics(copy_with(plain, tmp_path), READ_RHOS)
        assert harness._can_split()
