"""Shared test plumbing.

The fifo fixture makes named pipes fed by a thread.  The acceptance tests
record one pass/fail line per criterion through the
criterion fixture, in a file of their session's own; the terminal-summary
hook below replays those lines after the run so they are visible even
without -s.  Another pytest session started in the same checkout meanwhile
writes its own file, so it neither removes nor adds to this session's lines.
"""
import contextlib
import os
import tempfile
import threading
from pathlib import Path

import pytest

LINES_FILE = pytest.StashKey[Path]()


def pytest_sessionstart(session):
    fd, path = tempfile.mkstemp(prefix="acceptance-lines-", suffix=".txt")
    os.close(fd)
    session.config.stash[LINES_FILE] = Path(path)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    path = config.stash.get(LINES_FILE, None)
    lines = path.read_text().splitlines() if path else []
    if not lines:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)


def pytest_unconfigure(config):
    path = config.stash.get(LINES_FILE, None)
    if path:
        path.unlink(missing_ok=True)


@pytest.fixture
def criterion(request):
    """criterion(n) is a context yielding a dict: the test sets its "ok"
    and "detail", and on leaving, the line "[criterion n] PASS/FAIL -
    detail" is printed and recorded, and a FAIL fails the test.  An
    exception inside records a FAIL carrying the error."""
    path = request.config.stash[LINES_FILE]

    def emit(n, ok, detail):
        line = f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {detail}"
        with path.open("a") as fh:
            fh.write(line + "\n")
        print(line)

    @contextlib.contextmanager
    def record(n):
        rec = {"ok": False, "detail": "did not finish"}
        try:
            yield rec
        except Exception as e:
            emit(n, False, f"error: {e!r}")
            raise
        emit(n, rec["ok"], rec["detail"])
        assert rec["ok"], f"criterion {n}: {rec['detail']}"

    return record


def _write_to_pipe(path, data):
    with contextlib.suppress(BrokenPipeError):
        path.write_bytes(data)


@pytest.fixture
def fifo(tmp_path):
    """fifo(data) is the path of a new named pipe, which a thread fills
    with the bytes data once a reader opens it.  On leaving the test, the
    pipe is opened and drained, so that a writer still waiting for a reader
    ends and the test cannot hang on it."""
    if not hasattr(os, "mkfifo"):
        pytest.skip("no named pipes")
    writers = []

    def feed(data: bytes, name: str = "pipe"):
        path = tmp_path / name
        os.mkfifo(path)
        writer = threading.Thread(target=_write_to_pipe, args=(path, data))
        writer.start()
        writers.append((path, writer))
        return path

    yield feed
    for path, writer in writers:
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        try:
            while writer.is_alive():
                with contextlib.suppress(BlockingIOError):
                    os.read(fd, 1 << 16)
                writer.join(0.01)
        finally:
            os.close(fd)
