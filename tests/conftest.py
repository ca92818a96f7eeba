import sys
import pathlib

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))


@pytest.fixture(scope="session")
def built():
    from fanoterm.catalog import build_group

    def get(key):
        return build_group(key)

    return get


@pytest.fixture(scope="session")
def sweeps(built):
    from fanoterm.invariants import classification_table

    memo = {}

    def get(key, all_subgroups=False):
        k = (key, all_subgroups)
        if k not in memo:
            memo[k] = classification_table(key, mode="full-sweep", all_subgroups=all_subgroups)
        return memo[k]

    return get
