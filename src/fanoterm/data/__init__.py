"""The shipped data files, read as text with ``#`` comment lines."""

import importlib.resources as res
from typing import Iterator


def read_data(name: str) -> str:
    return (res.files(__name__) / name).read_text()


def data_lines(text: str) -> Iterator[str]:
    """The stripped lines of a data file, without blank and ``#`` lines."""
    return (line for line in map(str.strip, text.splitlines()) if line and not line.startswith("#"))
