"""The session files in `sessions/` are exactly what `corpus_sessions()`
writes through `write_session`, so they change only when
`scripts/build_sessions.py` is run on a changed corpus or writer."""

import os

import pytest

from coringlab.corpus import corpus_sessions
from coringlab.session import write_session

SESSIONS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                        "sessions")
SHIPPED = sorted(f for f in os.listdir(SESSIONS) if f.endswith(".json"))


@pytest.fixture(scope="module")
def built():
    return corpus_sessions()


def test_every_shipped_file_is_built(built):
    assert SHIPPED == sorted(built)


@pytest.mark.parametrize("fname", SHIPPED)
def test_shipped_file_is_written_byte_for_byte(tmp_path, built, fname):
    path = tmp_path / fname
    write_session(built[fname], path)
    with open(os.path.join(SESSIONS, fname), "rb") as fh:
        assert path.read_bytes() == fh.read()
