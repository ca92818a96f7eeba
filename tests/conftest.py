import os
import sys
import pathlib

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

STRETCH = os.environ.get("FANOTERM_STRETCH") == "1"


def pytest_collection_modifyitems(config, items):
    if STRETCH:
        return
    skip = pytest.mark.skip(reason="stretch sweep; enable with FANOTERM_STRETCH=1")
    for item in items:
        if "stretch" in item.keywords:
            item.add_marker(skip)


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

    def get(key, all_subgroups=False, budget=1000):
        k = (key, all_subgroups, budget)
        if k not in memo:
            memo[k] = classification_table(
                key, mode="full-sweep", budget=budget, all_subgroups=all_subgroups
            )
        return memo[k]

    return get
