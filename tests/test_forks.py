"""``fork_map`` against the serial loop it stands for: the same results in
item order, the same exception, and no child process left behind."""

import os
import signal
import threading

import pytest

from pdxplain import forks
from pdxplain.forks import fork_map


class TwoArgError(Exception):
    """Pickles, but cannot be rebuilt from its args, like StageError."""

    def __init__(self, stage, cause):
        super().__init__(f"{stage}: {cause}")


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    """Fork whatever this host's CPU count, as inside ``forking()``, and leave no child behind."""
    monkeypatch.setattr(forks, "_cpus", lambda: 2)
    monkeypatch.setattr(forks, "_may_fork", True)
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def raise_at(failing: dict):
    """fn raising ``failing[i]`` at item i and returning (i, pid) elsewhere."""
    def fn(i):
        if i in failing:
            raise failing[i]
        return i, os.getpid()
    return fn


@pytest.mark.parametrize("n", [2, 3, 7, 8])
def test_results_in_item_order_from_two_processes(n):
    out = fork_map(raise_at({}), range(n))
    assert [i for i, _ in out] == list(range(n))
    assert {pid for i, pid in out if i % 2 == 0} == {os.getpid()}
    assert os.getpid() not in {pid for i, pid in out if i % 2}


@pytest.mark.parametrize("index", [0, 1, 2, 3])
def test_failing_item_raises_its_own_type(index):
    with pytest.raises(KeyError, match="boom"):
        fork_map(raise_at({index: KeyError("boom")}), range(5))


@pytest.mark.parametrize("failing, raised", [
    ({1: KeyError("child"), 2: ValueError("parent")}, KeyError),
    ({0: ValueError("parent"), 3: KeyError("child")}, ValueError),
    ({3: KeyError("child"), 4: ValueError("parent"), 5: LookupError("later")}, KeyError),
], ids=["child_first", "parent_first", "later_child_item_skipped"])
def test_lowest_failing_index_wins(failing, raised):
    with pytest.raises(raised):
        fork_map(raise_at(failing), range(6))


def test_exception_that_cannot_be_rebuilt_raises_runtime_error():
    with pytest.raises(RuntimeError, match="TwoArgError: train: bad rows"):
        fork_map(raise_at({1: TwoArgError("train", "bad rows")}), range(3))


@pytest.mark.parametrize("before", [0, 1 << 20], ids=["alone", "after_a_written_result"])
def test_unpicklable_result_raises(before):
    """Also when the child dies with part of its results written to the pipe."""
    with pytest.raises(RuntimeError, match="status 1 "):
        fork_map(lambda i: threading.Lock() if i == 3 else bytes(before), range(4))


def test_child_killed_without_a_result_names_its_status():
    with pytest.raises(RuntimeError, match=f"status {-signal.SIGKILL}"):
        fork_map(lambda i: os.kill(os.getpid(), signal.SIGKILL) if i == 1 else i, range(3))


def test_nested_call_runs_serially():
    out = fork_map(lambda i: fork_map(lambda j: os.getpid(), range(3)), range(4))
    assert all(len(set(pids)) == 1 for pids in out)
    assert len({pid for pids in out for pid in pids}) == 2


@pytest.mark.parametrize("setup, n", [
    (lambda mp: mp.setattr(forks, "_cpus", lambda: 1), 4),
    (lambda mp: mp.delattr(os, "fork"), 4),
    (lambda mp: None, 1),
    (lambda mp: mp.setattr(forks, "_may_fork", False), 4),
], ids=["one_cpu", "no_fork", "one_item", "outside_forking"])
def test_serial_without_a_second_cpu_fork_or_item(monkeypatch, setup, n):
    setup(monkeypatch)
    assert fork_map(lambda i: (i, os.getpid()), range(n)) == [(i, os.getpid()) for i in range(n)]


def test_serial_while_another_thread_runs():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert fork_map(lambda i: os.getpid(), range(4)) == [os.getpid()] * 4
    finally:
        stop.set()
        thread.join()
    assert len(set(fork_map(lambda i: os.getpid(), range(4)))) == 2


def test_forking_is_scoped(monkeypatch):
    monkeypatch.setattr(forks, "_may_fork", False)
    with pytest.raises(KeyError, match="leaves"), forks.forking():
        with pytest.raises(KeyError, match="child"):
            fork_map(raise_at({1: KeyError("child")}), range(4))
        assert len(set(fork_map(lambda i: os.getpid(), range(4)))) == 2  # still forks after a call raised
        raise KeyError("leaves the block")
    assert fork_map(lambda i: os.getpid(), range(4)) == [os.getpid()] * 4
