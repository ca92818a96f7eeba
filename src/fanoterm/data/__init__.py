"""The shipped data files, read as text with ``#`` comment lines."""

import os
from typing import Iterator

# the package is installed as files (setuptools package-data), never zipped
DATA_DIR = os.path.dirname(__file__)


def read_data(name: str) -> str:
    with open(os.path.join(DATA_DIR, name), encoding="utf-8") as fh:
        return fh.read()


def data_lines(text: str) -> Iterator[str]:
    """The stripped lines of a data file, without blank and ``#`` lines."""
    return (line for line in map(str.strip, text.splitlines()) if line and not line.startswith("#"))
