"""``fork_map(fn, items)`` is ``[fn(x) for x in items]`` with the odd
positions computed in one forked child, which inherits all state built before
the call and pipes its results back pickled. It forks only inside
``forking()``, which the caller that owns the process enters (``run_pipeline``
around each stage), and runs serially elsewhere: with fewer than 2 usable
CPUs, without ``os.fork``, for fewer than 2 items, while another Python thread
runs (a forked child of a threaded process can deadlock on a lock held at the
fork), or inside another ``fork_map``. The child leaves only through
``os._exit``, so no exit handler runs in it, and the parent reaps it before
returning or raising."""

import contextlib
import os
import pickle
import threading

_may_fork = False  # true inside forking(); false while a fork_map computes, in its parent and its child


@contextlib.contextmanager
def forking():
    """Let the fork_map calls made within fork."""
    global _may_fork
    saved, _may_fork = _may_fork, True
    try:
        yield
    finally:
        _may_fork = saved


def _cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _run(fn, items, first: int):
    """(results of items first, first + 2, ..., and None or (index, exception) of the first that raised)."""
    done = []
    for i in range(first, len(items), 2):
        try:
            done.append(fn(items[i]))
        except Exception as exc:
            return done, (i, exc)
    return done, None


def fork_map(fn, items) -> list:
    """A failing item raises as in the serial loop: the lowest index wins, with
    its own type if it survives a pickle round trip, else as a RuntimeError.
    On Python 3.11+ one of its own type from the child notes the child's traceback.
    A child that cannot send its results (one is unpicklable, or it is killed)
    raises a RuntimeError naming its exit status."""
    global _may_fork
    items = list(items)
    if (not _may_fork or len(items) < 2 or not hasattr(os, "fork") or _cpus() < 2
            or threading.active_count() > 1):
        return [fn(x) for x in items]
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no memory or process slot for a child: the serial loop gives the same results
        os.close(r)
        os.close(w)
        return [fn(x) for x in items]
    _may_fork = False
    if pid == 0:
        try:
            os.close(r)
            done, failure = _run(fn, items, 1)
            if failure and hasattr(failure[1], "add_note"):  # Python 3.11+; a pickle drops the traceback
                import traceback

                failure[1].add_note("In fork_map's child:\n" + "".join(traceback.format_exception(failure[1])))
            try:
                pickle.loads(pickle.dumps(failure))
            except Exception:
                failure = failure[0], RuntimeError(f"{type(failure[1]).__name__}: {failure[1]}")
            with os.fdopen(w, "wb") as fh:
                pickle.dump((done, failure), fh)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(w)
    try:
        with os.fdopen(r, "rb") as fh:  # closed before the reap, so a child blocked on a write exits
            mine, failure = _run(fn, items, 0)
            data = fh.read()
    finally:
        _may_fork = True
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0:
        raise RuntimeError(f"fork_map's child exited with status {status} and no result")
    theirs, child_failure = pickle.loads(data)
    if failure or child_failure:
        raise min(f for f in (failure, child_failure) if f)[1]
    out = [None] * len(items)
    out[0::2], out[1::2] = mine, theirs
    return out
