"""pipeline._fork_map, the one way the package uses more than one process,
and the profile writer that formats long profiles through it: results and
errors in item order whatever the share count, no child left behind, and
the same CSV bytes as the one-process writer."""

import errno
import os
import signal
from unittest import mock

import numpy as np
import pytest

from laneweave import pipeline
from laneweave.core import OffsetSeries
from laneweave.errors import SchemaError
from laneweave.pipeline import FORK_MIN_ROWS, _fork_map, format_profile_csv


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that hangs, instead of hanging the suite, and check
    that it leaves no child process, whatever it raised."""
    def timed_out(signum, frame):
        raise TimeoutError("_fork_map did not return")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def shares(count):
    return mock.patch.object(pipeline, "_worker_count", lambda items: count)


def tagged(item):
    return item * 10, os.getpid()


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("length", [0, 1, 2, 3, 5, 7])
def test_results_come_back_in_item_order(count, length):
    with shares(count):
        results = _fork_map(tagged, range(length))
    assert [value for value, _ in results] == [item * 10 for item in range(length)]
    # the calling process maps the first share, a child each other share
    first_share = length // count
    pids = [pid for _, pid in results]
    assert pids[:first_share] == [os.getpid()] * first_share
    assert os.getpid() not in pids[first_share:]
    assert len(set(pids[first_share:])) <= count - 1


def failing_at(rows):
    def fn(item):
        if item in rows:
            message = f"tour{item}.csv: row {item}, column 'dist_left': cannot parse 'x'"
            raise SchemaError(message, column="dist_left", row=item)
        return item
    return fn


# six items in three shares: [0, 1] in the calling process, [2, 3] and
# [4, 5] in children
@pytest.mark.parametrize(
    "rows, first",
    [
        ({1, 4}, 1),  # the calling process's share and a child's
        ({0, 3, 5}, 0),
        ({3, 5}, 3),  # children only
        ({2, 4}, 2),
        ({5}, 5),
    ],
)
def test_first_error_in_item_order_is_raised(rows, first):
    with shares(3), pytest.raises(SchemaError) as raised:
        _fork_map(failing_at(rows), range(6))
    assert str(raised.value) == f"tour{first}.csv: row {first}, column 'dist_left': cannot parse 'x'"
    assert (raised.value.row, raised.value.column) == (first, "dist_left")


@pytest.mark.parametrize("status", [0, 3])
def test_child_that_exits_without_a_result_raises(status):
    def fn(item):
        if item == 3:
            os._exit(status)
        return item

    with shares(2), pytest.raises(ChildProcessError, match="ended without a result"):
        _fork_map(fn, range(4))


def test_interrupt_in_the_calling_process_reaps_every_child():
    def fn(item):
        if item == 0:
            raise KeyboardInterrupt
        return item

    with shares(3), pytest.raises(KeyboardInterrupt):
        _fork_map(fn, range(6))


def test_error_in_the_calling_process_with_large_child_results_does_not_hang():
    # each child's result is larger than a pipe's 64 KiB buffer, so the
    # channel that hands it back must take it whole without the calling
    # process reading it, as that process raises before reading any
    def fn(item):
        if item == 0:
            raise ValueError("first tour")
        return b"x" * 200_000

    with shares(3), pytest.raises(ValueError, match="first tour"):
        _fork_map(fn, range(3))


def open_fds():
    return set(os.listdir("/proc/self/fd"))


def failing_on_call(real, call):
    """real, except that its call-th call fails as when the host has no
    process or descriptor to spare."""
    calls = []

    def wrapper(*args):
        calls.append(1)
        if len(calls) == call:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return real(*args)
    return wrapper


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("name", ["fork", "memfd_create"])
@pytest.mark.parametrize("call", [1, 2])
def test_shares_that_cannot_fork_are_mapped_in_the_calling_process(name, call):
    before = open_fds()
    with shares(3), mock.patch.object(os, name, failing_on_call(getattr(os, name), call)):
        results = _fork_map(tagged, range(6))
    assert [value for value, _ in results] == [item * 10 for item in range(6)]
    # [0, 1] in the calling process, [2, 3] in a child if the first fork
    # took, and the shares after the failed one in the calling process
    local = [0, 1] + ([2, 3] if call == 1 else []) + [4, 5]
    assert [item for item, (_, pid) in enumerate(results) if pid == os.getpid()] == local
    assert open_fds() == before


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_every_memory_file_is_closed_whatever_the_children_return():
    def exits_at_3(item):
        if item == 3:
            os._exit(0)
        return item

    before = open_fds()
    with shares(3):
        assert _fork_map(tagged, range(6))
        assert open_fds() == before
        # the first child's error stops collection before the second's file
        with pytest.raises(SchemaError):
            _fork_map(failing_at({3, 5}), range(6))
        assert open_fds() == before
        with pytest.raises(ChildProcessError):
            _fork_map(exits_at_3, range(6))
        assert open_fds() == before


@pytest.mark.parametrize("rows, first", [({3, 5}, 3), ({5}, 5), ({1, 5}, 1)])
def test_first_error_in_item_order_when_a_fork_fails(rows, first):
    with shares(3), mock.patch.object(os, "fork", failing_on_call(os.fork, 2)), \
            pytest.raises(SchemaError) as raised:
        _fork_map(failing_at(rows), range(6))
    assert raised.value.row == first


def serial_profile_csv(series):
    """The one-process writer: one line per row, in order."""
    rows = [f"{t!r},{x!r}\n" for t, x in zip(series.times().tolist(), series.values.tolist())]
    return "t,x\n" + "".join(rows)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_profile_text_and_forks_on_any_cpu_count(cpus):
    rng = np.random.default_rng(cpus)
    for rows in (1, 8191, 8192, 8193, 18000):
        values = rng.standard_normal(rows) * 10.0 ** rng.integers(-8, 3, rows)
        values[::97] = -0.0
        series = OffsetSeries(0.2, values)
        # one share per FORK_MIN_ROWS whole rows, at most one per CPU
        expected_forks = min(max(1, rows // FORK_MIN_ROWS), cpus) - 1
        with mock.patch.object(pipeline, "_worker_count", lambda items: min(items, cpus)), \
                mock.patch("os.fork", wraps=os.fork) as fork:
            text = format_profile_csv(series)
        assert text == serial_profile_csv(series), rows
        assert fork.call_count == expected_forks, rows


def test_without_memory_files_nothing_forks(monkeypatch):
    # as off Linux: no os.memfd_create, so one share in the calling process
    monkeypatch.delattr(os, "memfd_create")
    assert pipeline._worker_count(5) == 1
    series = OffsetSeries(0.2, np.random.default_rng(0).standard_normal(18000))
    with mock.patch("os.fork", wraps=os.fork) as fork:
        text = format_profile_csv(series)
    assert text == serial_profile_csv(series)
    assert fork.call_count == 0
