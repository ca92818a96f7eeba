"""Run one fanoterm command with spans and counters at each layer's entry points.

Usage (PYTHONPATH must reach the fanoterm sources):

    python3 perfbench/traced_cli.py TRACE_OUT table --group L2_11 ...

The entry points in ENTRY_POINTS are wrapped where fanoterm code looks
them up: every global of a fanoterm module bound to the function, or the
class attribute for a method.  The command then runs through
``fanoterm.cli.main``; its output and exit code are those of the plain
command.  Spans (layer, start, end, parent) and counts stay in memory and
are written to TRACE_OUT as JSON when the command ends.  An entry point
the program no longer has is listed under "absent" and counts zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
from collections import defaultdict

perf = time.perf_counter
spans: list[list] = []  # [layer, start, end, parent index or -1]
stack: list[int] = []  # indices of the open spans, innermost last
counts: dict[str, int] = defaultdict(int)
absent: list[str] = []


def _open(layer: str) -> int:
    idx = len(spans)
    spans.append([layer, perf(), None, stack[-1] if stack else -1])
    stack.append(idx)
    return idx


def _close(idx: int) -> None:
    spans[idx][2] = perf()
    stack.pop()


# -- result hooks: counts read off an entry point's return value ---------------


def _elements(group):
    counts["groups.elements"] += len(group.elements)


def _load_hit(group):
    counts["cache.load_hits"] += group is not None


def _l3_subgroups(l3):
    counts["invariants.l3_subgroups"] += len(l3.subgroups)


def _sweep_classes(classes):
    counts["groups.sweep_classes"] += len(classes)


def _identified(gid):
    counts["groups.identify_calls"] += 1
    counts["groups.identify_unidentified"] += type(gid).__name__ == "UnidentifiedGroup"


def _records(records):
    counts["invariants.records"] += len(records)


# kind "span": a span of the named layer; "count": one count per call, under
# the name and under name@<innermost open layer>; "result": the hook only.
ENTRY_POINTS = [
    ("catalog.load_group", "fanoterm.catalog", "load_group", "span", None),
    ("groups.generate", "fanoterm.groups", "FinGroup.generate", "span", _elements),
    ("cache.store", "fanoterm.cache", "store_cached_group", "span", None),
    ("cache.load", "fanoterm.cache", "load_cached_group", "span", _load_hit),
    ("invariants.detect_l3", "fanoterm.invariants", "detect_l3", "span", _l3_subgroups),
    ("groups.sweep", "fanoterm.groups", "FinGroup.subgroup_conjugacy_classes", "span",
     _sweep_classes),
    ("invariants.singular", "fanoterm.invariants", "singular_invariants", "span", None),
    ("invariants.pi1", "fanoterm.invariants", "pi1_id", "span", None),
    ("groups.identify", "fanoterm.groups", "identify", "span", _identified),
    ("ranks.resolve", "fanoterm.ranks", "resolve_rank", "span", None),
    ("ranks.lattice", "fanoterm.ranks", "refine_candidates_by_lattice", "span", None),
    ("ranks.lattice", "fanoterm.invariants", "_containments", "span", None),
    ("cli.render", "fanoterm.cli", "render_records", "span", None),
    ("invariants.records", "fanoterm.invariants", "records_for_classes", "result", _records),
    ("groups.closure_calls", "fanoterm.groups", "GroupView.closure", "count", None),
    ("invariants.l3_prefilter_calls", "fanoterm.invariants", "l3_trace_prefilter", "count",
     None),
    ("invariants.l3_charpoly_calls", "fanoterm.invariants", "is_l3_matrix", "count", None),
    ("cyclo.parse_calls", "fanoterm.cyclo", "parse_cyclo", "count", None),
]

# Called millions of times: counted without the per-layer attribution.
HOT_COUNTERS = [
    ("linalg.matmul_calls", "fanoterm.linalg", "MatC.__mul__"),
    ("groups.mult_calls", "fanoterm.groups", "FinGroup.mult"),
]


def _span_wrapper(layer, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = _open(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            _close(idx)
        if hook is not None:
            hook(result)
        return result

    return wrapper


def _count_wrapper(name, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        if stack:
            counts[f"{name}@{spans[stack[-1]][0]}"] += 1
        return fn(*args, **kwargs)

    return wrapper


def _result_wrapper(name, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        hook(result)
        return result

    return wrapper


def _hot_wrapper(name, fn):
    @functools.wraps(fn)
    def wrapper(*args):
        counts[name] += 1
        return fn(*args)

    return wrapper


def _fanoterm_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "fanoterm" or n.startswith("fanoterm."))]


def _install(module_name, attr, make):
    """Replace one entry point by make(original); False when it is absent."""
    module = sys.modules.get(module_name)
    owner_name, _, method = attr.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name, None)
        raw = vars(owner).get(method) if isinstance(owner, type) else None
        if raw is None:
            return False
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, method, type(raw)(make(raw.__func__)))
        else:
            setattr(owner, method, make(raw))
        return True
    original = getattr(module, attr, None)
    if original is None:
        return False
    wrapped = make(original)
    for mod in _fanoterm_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)
    return True


def install() -> None:
    makers = {"span": _span_wrapper, "count": _count_wrapper, "result": _result_wrapper}
    for name, module_name, attr, kind, hook in ENTRY_POINTS:
        make = functools.partial(makers[kind], name, hook=hook)
        if not _install(module_name, attr, make):
            absent.append(f"{module_name}.{attr}")
    for name, module_name, attr in HOT_COUNTERS:
        if not _install(module_name, attr, functools.partial(_hot_wrapper, name)):
            absent.append(f"{module_name}.{attr}")


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    idx = _open("cli.import")
    import fanoterm

    for info in pkgutil.walk_packages(fanoterm.__path__, "fanoterm."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)
    cli = importlib.import_module("fanoterm.cli")
    _close(idx)
    install()
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(trace_out, "w") as fh:
            json.dump({"spans": spans, "counts": counts, "absent": absent}, fh)


if __name__ == "__main__":
    sys.exit(main())
