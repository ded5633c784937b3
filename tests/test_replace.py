"""A rename over an existing output file leaves the freeing of the old file
to one background closer (``formats._Closer``): the old file is held by an
``O_PATH`` descriptor across the rename, and at most ``formats._MAX_HELD``
such descriptors are open at once."""

import errno
import json
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from panoroom import formats
from panoroom.formats import read_json, read_pfm, write_json, write_pfm

O_PATH = getattr(os, "O_PATH", 0)

pytestmark = pytest.mark.skipif(
    not (O_PATH and os.path.isdir("/proc/self/fdinfo")),
    reason="needs O_PATH and /proc/self/fdinfo (Linux)",
)


def held():
    """The process's open ``O_PATH`` descriptors."""
    fds = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            with open(f"/proc/self/fdinfo/{fd}") as f:
                info = f.read()
        except FileNotFoundError:  # the listing's own descriptor, closed since
            continue
        flags = int(info.split("flags:")[1].split()[0], 8)
        if flags & O_PATH:
            fds.append(fd)
    return fds


def wait_until(condition, timeout=10.0) -> bool:
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


def drained() -> bool:
    return wait_until(lambda: not held())


def closers() -> int:
    return sum(t.name == "panoroom-closer" for t in threading.enumerate())


def fd_count() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.fixture
def stall(monkeypatch):
    """Swap in a closer whose thread waits for the returned event before it
    closes anything; the event is set at teardown."""
    go = threading.Event()
    closer = formats._Closer()
    run = closer._run

    def stalled_run():
        go.wait()
        run()

    monkeypatch.setattr(closer, "_run", stalled_run)
    monkeypatch.setattr(formats, "_closer", closer)
    yield go
    go.set()


def test_rewrites_leave_the_descriptor_count_as_it_was(tmp_path):
    path = str(tmp_path / "m.pfm")
    write_pfm(np.zeros((2, 4)), path)
    assert drained()
    start = fd_count()
    for i in range(200):
        write_pfm(np.full((2, 4), float(i)), path)
        assert len(held()) <= formats._MAX_HELD
    assert drained()
    assert fd_count() == start
    assert np.array_equal(read_pfm(path), np.full((2, 4), 199.0))


def test_a_stalled_closer_holds_no_more_than_the_bound(tmp_path, stall):
    assert drained()
    path = str(tmp_path / "m.json")
    bound = formats._MAX_HELD
    written = []

    def writer():
        # the first write replaces nothing, the next `bound` each hold a file
        for i in range(bound + 6):
            write_json(i, path)
            written.append(i)

    t = threading.Thread(target=writer, daemon=True)
    t.start()
    try:
        assert wait_until(lambda: len(written) == bound + 1)
        time.sleep(0.2)
        assert len(held()) == bound
        assert len(written) == bound + 1 and t.is_alive()
    finally:
        stall.set()
    t.join(timeout=10)
    assert not t.is_alive()
    assert drained()
    assert read_json(path) == bound + 5


def test_a_failed_replace_holds_nothing_and_leaves_no_temp_file(tmp_path, monkeypatch, stall):
    assert drained()
    start = fd_count()
    paths = [str(tmp_path / f"{name}.pfm") for name in "abc"]
    formats._write_pfms(paths, (2, 4), [(slice(0, 2), (np.zeros((2, 4)),) * 3)])
    old = [Path(p).read_bytes() for p in paths]
    replace = os.replace
    calls = []

    def second_fails(src, dst):
        calls.append(dst)
        if len(calls) == 2:
            raise OSError(errno.EIO, "injected failure", dst)
        replace(src, dst)

    monkeypatch.setattr(os, "replace", second_fails)
    with pytest.raises(OSError):
        formats._write_pfms(paths, (2, 4), [(slice(0, 2), (np.ones((2, 4)),) * 3)])
    monkeypatch.setattr(os, "replace", replace)
    assert calls == paths[:2]
    assert not list(tmp_path.glob("*.tmp"))
    # the failed replace closed its own descriptor at once; the old file of
    # the first path, replaced before the failure, waits for the closer
    assert len(held()) == 1
    stall.set()
    assert drained()
    assert fd_count() == start
    assert np.array_equal(read_pfm(paths[0]), np.ones((2, 4)))
    assert [Path(p).read_bytes() for p in paths[1:]] == old[1:]


def test_concurrent_writers_share_one_closer(tmp_path, monkeypatch):
    assert drained()
    start = fd_count()
    closer = formats._Closer()
    monkeypatch.setattr(formats, "_closer", closer)
    before = closers()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def writer(k):
            for i in range(40):
                write_json([k, i], str(tmp_path / f"{k}.json"))

        threads = [threading.Thread(target=writer, args=(k,), daemon=True) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert closers() == before + 1
    assert drained()
    assert fd_count() == start
    assert [read_json(str(tmp_path / f"{k}.json")) for k in range(8)] == [[k, 39] for k in range(8)]


def test_a_reader_of_the_old_file_keeps_reading_it(tmp_path):
    path = tmp_path / "m.json"
    write_json({"v": 1}, str(path))
    with open(path, "rb") as reader:
        write_json({"v": 2}, str(path))
        assert drained()
        assert json.loads(reader.read()) == {"v": 1}
    assert read_json(str(path)) == {"v": 2}


def test_without_o_path_nothing_is_held(tmp_path, monkeypatch, stall):
    assert drained()
    values = np.arange(8.0).reshape(2, 4)
    held_path, plain_path = tmp_path / "held.pfm", tmp_path / "plain.pfm"
    for v in (values + 1, values):
        write_pfm(v, str(held_path))
    assert len(held()) == 1
    monkeypatch.delattr(os, "O_PATH")
    for v in (values + 1, values):
        write_pfm(v, str(plain_path))
    assert len(held()) == 1
    assert plain_path.read_bytes() == held_path.read_bytes()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_closes_what_it_inherits(tmp_path, stall):
    assert drained()
    path = str(tmp_path / "m.json")
    for i in range(3):
        write_json(i, path)
    assert len(held()) == 2
    pid = os.fork()
    if pid == 0:  # the child: report through the exit status only
        ok = False
        try:
            ok = not held()
            for i in range(3, 6):
                write_json(i, path)
            ok = ok and drained() and read_json(path) == 5
        finally:
            os._exit(0 if ok else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    # the parent's own held files wait for its (stalled) closer
    assert len(held()) == 2
    stall.set()
    assert drained()
