import os
import shutil
import subprocess
import sys

import slatlab

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(slatlab.__file__)))

HYPOTHESIS_TEST = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=20, deadline=None, database=None)
@given(st.text())
def test_text_round_trips(text):
    assert text.encode("utf-8").decode("utf-8") == text
'''


def test_pytest_leaves_no_plugin_storage_in_its_rootdir(tmp_path):
    """A hypothesis test run with this repository's pytest settings and
    conftest writes none of .hypothesis/, .benchmarks/ and .pytest_cache/
    where it starts."""
    shutil.copy(os.path.join(REPO, "pyproject.toml"), tmp_path)
    (tmp_path / "tests").mkdir()
    shutil.copy(os.path.join(REPO, "tests", "conftest.py"), tmp_path / "tests")
    (tmp_path / "tests" / "test_text.py").write_text(HYPOTHESIS_TEST)
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("HYPOTHESIS_STORAGE_DIRECTORY", None)
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "tests/test_text.py"],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert sorted(os.listdir(tmp_path)) == ["pyproject.toml", "tests"]
