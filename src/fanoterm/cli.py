"""Command-line front end.

Commands: table, detect-l3, check-deformation, fingerprint,
validate-catalog.  Exit codes: 0 success, 1 a standard output closed
before the output was written, 2 validation or input failure or a
subgroup-class sweep no certificate proves complete (SweepUnproved).
``table`` sweeps any ambient with no multiplication table.  Identical
invocations produce byte-identical output.  Targeted mode imports the
``--subgroup`` grammar (``targeted``) and check-deformation the obstruction
(``deform``) when they run, so no other command compiles them.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from typing import Optional, Sequence

from .catalog import CatalogValidationError, build_group, group_keys, load_group
from .groups import GroupId, SweepUnproved, fingerprint, identify
from .invariants import classification_table, detect_l3

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_VALIDATION = 2


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_VALIDATION):
        super().__init__(message)
        self.code = code


# -- formatting -----------------------------------------------------------------


def _gid_json(gid):
    if isinstance(gid, GroupId):
        return [gid.order, gid.gid]
    return {"order": gid.order, "unidentified": True}


TABLE_COLUMNS = ["class", "(order,id)", "rank", "n2", "N3", "n3", "n31", "n32", "b2", "pi1"]


def _record_cells(r) -> list[str]:
    return [
        str(r.class_index),
        str(r.group_id),
        str(r.rank),
        str(r.n2),
        str(r.n3_subgroups),
        str(r.n3),
        str(r.n31),
        str(r.n32),
        str(r.b2),
        str(r.pi1),
    ]


def render_records(records, fmt: str, ambient: str, mode: str) -> str:
    if fmt == "structured":
        rows = []
        for r in records:
            rows.append(
                {
                    "class_index": r.class_index,
                    "order": r.order,
                    "group_id": _gid_json(r.group_id),
                    "rank": r.rank,
                    "n2": r.n2,
                    "N3": r.n3_subgroups,
                    "n3": r.n3,
                    "n31": r.n31,
                    "n32": r.n32,
                    "b2": r.b2,
                    "pi1": _gid_json(r.pi1),
                    "pi1_trivial": r.pi1_trivial,
                }
            )
        return json.dumps({"ambient": ambient, "mode": mode, "rows": rows}, indent=2) + "\n"
    if fmt == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(TABLE_COLUMNS)
        for r in records:
            writer.writerow(_record_cells(r))
        return buf.getvalue()
    # aligned text table
    rows = [TABLE_COLUMNS] + [_record_cells(r) for r in records]
    widths = [max(len(row[i]) for row in rows) for i in range(len(TABLE_COLUMNS))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"


# -- commands -------------------------------------------------------------------


def cmd_table(args) -> int:
    definition = load_group(args.group)
    if args.mode == "targeted":
        from .targeted import SubgroupSpecError, _resolve_subgroups

        group = build_group(args.group)
        try:
            targeted = _resolve_subgroups(group, definition, args.subgroup or [])
        except SubgroupSpecError as exc:
            raise CliError(str(exc)) from None
        if not targeted:
            raise CliError("targeted mode requires at least one --subgroup")
    elif args.subgroup:
        raise CliError("--subgroup requires --mode targeted")
    else:
        targeted = None
    records = classification_table(
        args.group,
        mode=args.mode,
        targeted=targeted,
        all_subgroups=args.all_subgroups,
    )
    sys.stdout.write(render_records(records, args.format, args.group, args.mode))
    return EXIT_OK


def cmd_detect_l3(args) -> int:
    group = build_group(args.group)
    l3 = detect_l3(group)
    out = [f"group {args.group}: {l3.count} codimension-2 order-3 subgroup(s)"]
    for k, gen in enumerate(l3.generators, start=1):
        out.append(f"subgroup {k}: generator element {gen}")
        for row in group.elements[gen].to_strings():
            out.append("  " + ", ".join(row))
    sys.stdout.write("\n".join(out) + "\n")
    return EXIT_OK


def cmd_check_deformation(args) -> int:
    from .deform import load_deformation_catalog, load_fixtures, obstruction_report

    report = obstruction_report(load_fixtures(), load_deformation_catalog())
    if args.format == "structured":
        def enc(es):
            return [
                {"group_id": _gid_json(e.group_id), "b2": e.b2, "ambient_order": e.ambient_order}
                for e in es
            ]

        payload = {
            "fujiki_unmatched": enc(report.fujiki_unmatched),
            "hilbert_square_unmatched": enc(report.hilbert_square_unmatched),
            "kummer_unmatched": enc(report.kummer_unmatched),
            "new_candidates": enc(report.new_candidates),
        }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
        return EXIT_OK
    sections = [
        ("unmatched against Fujiki fourfolds", report.fujiki_unmatched),
        ("unmatched against Hilbert-square quotients", report.hilbert_square_unmatched),
        ("unmatched against Kummer-fourfold quotients", report.kummer_unmatched),
        ("new deformation-class candidates", report.new_candidates),
    ]
    if args.format == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["section", "group_id", "b2", "ambient_order"])
        for name, entries_ in sections:
            for e in entries_:
                writer.writerow([name, str(e.group_id), e.b2, e.ambient_order])
        sys.stdout.write(buf.getvalue())
        return EXIT_OK
    out = []
    for name, entries_ in sections:
        out.append(f"{name} ({len(entries_)}):")
        for e in entries_:
            out.append(f"  {e.group_id}  b2={e.b2}  ambient={e.ambient_order}")
    sys.stdout.write("\n".join(out) + "\n")
    return EXIT_OK


def cmd_fingerprint(args) -> int:
    group = build_group(args.group)
    fp = fingerprint(group.view)
    gid = identify(group.view)
    lines = [
        f"group {args.group}",
        f"order: {fp.order}",
        f"identification: {gid}",
        f"order histogram: {fp.order_histogram}",
        f"conjugacy classes: {fp.class_count}",
        f"abelian invariants: {fp.abelian_invariants}",
        f"center order: {fp.center_order}",
        f"derived series sizes: {fp.derived_sizes}",
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_validate_catalog(args) -> int:
    keys = [args.group] if args.group else list(group_keys())
    failures = []
    for key in keys:
        try:
            definition = load_group(key)
            group = build_group(key)
        except CatalogValidationError as exc:
            failures.append(str(exc))  # the message starts with the key
            continue
        gid = identify(group.view)
        if gid != definition.group_id:
            failures.append(f"{key}: identified as {gid}, declared {definition.group_id}")
            continue
        sys.stdout.write(f"{key}: order {group.n}, id {gid} ok\n")
    if failures:
        for f in failures:
            sys.stdout.write(f"FAIL {f}\n")
        return EXIT_VALIDATION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanoterm",
        description="Classification of terminalizations of symplectic quotients "
        "of Fano varieties of lines on cubic fourfolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--group", required=True, choices=group_keys())

    p = sub.add_parser("table", help="classification table for one ambient group")
    common(p)
    p.add_argument("--mode", default="full-sweep",
                   choices=["full-sweep", "full-group-only", "targeted"])
    p.add_argument("--subgroup", action="append", default=[],
                   help="targeted subgroup: comma-separated generator words over "
                        "g1..gN, or mat:row;row;... (repeatable)")
    p.add_argument("--format", default="table", choices=["table", "csv", "structured"])
    p.add_argument("--all-subgroups", action="store_true",
                   help="emit every class, not only the non-terminal ones")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("detect-l3", help="codimension-2 order-3 subgroups of an action")
    common(p)
    p.set_defaults(func=cmd_detect_l3)

    p = sub.add_parser("check-deformation", help="numerical deformation obstruction report")
    p.add_argument("--format", default="table", choices=["table", "csv", "structured"])
    p.set_defaults(func=cmd_check_deformation)

    p = sub.add_parser("fingerprint", help="isomorphism invariants of an ambient group")
    common(p)
    p.set_defaults(func=cmd_fingerprint)

    p = sub.add_parser("validate-catalog", help="re-enumerate and check the shipped definitions")
    p.add_argument("--group", default=None, choices=group_keys())
    p.set_defaults(func=cmd_validate_catalog)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, CatalogValidationError, SweepUnproved) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return getattr(exc, "code", EXIT_VALIDATION)


def run() -> None:
    """The process entry point, of ``python -m fanoterm.cli`` and of the
    ``fanoterm`` script: ``main``, then a flush of stdout and stderr and
    ``os._exit``, which skips freeing every interned value, memo entry and
    module at interpreter teardown.  An exception from ``main``, such as
    argparse's SystemExit, ends the process the normal way.  A closed
    stdout exits 1 with nothing on stderr, fd 1 pointed at os.devnull (the
    note on SIGPIPE in Python's ``signal`` docs)."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
