"""The acceptance-line plumbing of conftest.py: each pytest session
replays its own criterion lines, whatever other sessions run meanwhile."""
import shutil
import subprocess
import sys
from pathlib import Path

# an outer session that records one line, runs a whole second session in
# the same directory, and records another
OUTER = '''
import subprocess
import sys


def test_before(criterion):
    with criterion(1) as rec:
        rec.update(ok=True, detail="outer, before")


def test_nested_session():
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p",
                           "no:cacheprovider", "inner.py"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    summary = done.stdout.split("acceptance criteria")[-1]
    assert [line for line in summary.splitlines()
            if line.startswith("[criterion")] == ["[criterion 9] PASS - inner"]


def test_after(criterion):
    with criterion(2) as rec:
        rec.update(ok=True, detail="outer, after")
'''

INNER = '''
def test_inner(criterion):
    with criterion(9) as rec:
        rec.update(ok=True, detail="inner")
'''


def test_nested_session_keeps_the_outer_sessions_lines(tmp_path):
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    (tmp_path / "test_outer.py").write_text(OUTER)
    (tmp_path / "inner.py").write_text(INNER)
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p",
                           "no:cacheprovider", "test_outer.py"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    summary = done.stdout.split("acceptance criteria")[-1]
    assert [line for line in summary.splitlines()
            if line.startswith("[criterion")] == [
        "[criterion 1] PASS - outer, before",
        "[criterion 2] PASS - outer, after"]
