#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the fanoterm command line.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-small --seed 1 --seconds 30 --trace 0

Every operation is one fresh ``python -m fanoterm.cli table ... --format
structured`` process with ``FANOTERM_CACHE`` set to a directory the
benchmark owns.  Operations run one at a time (the program is
single-threaded).  A pass runs each of the workload's commands once, in an
order drawn from the seed, so slow drift of the machine's speed does not
always land on the same ambient.  Passes repeat while another one fits in
``--seconds``; every reported time is a median over the passes.

Times are reported at the CPU's reference speed.  On a shared host one
CPU's speed changes by up to ~40% for seconds at a time, as its neighbours
come and go, which moved a pass's raw wall time by 1.6x between runs.  So
the benchmark and its children are pinned to one CPU, and a thread of the
benchmark times a fixed snippet on it every 10 ms while each child runs
(``SpeedProbe``); a child's wall time is scaled by the probe's reference
time over its mean time during the child, leaving out its slowest quarter.
Raw wall times are in the ``info`` line.

Each operation's output is checked against ``reference.json``, captured
from the program by ``capture_reference.py``.  A failure is a non-zero exit
or a failed check.

With ``--trace 0`` the metrics are the end-to-end ones:

- ``wall_s``: wall time of one pass: the sum over the workload's commands
  of each command's median process wall time, at reference speed.
- ``peak_rss_mb``: largest resident set of any command process.
- ``setup_s``: set-up time at reference speed: a process that imports
  fanoterm (median of seven), and for enumerate-warm that and the cache
  fill, one command at a time.
- ``ok_ratio``: operations that passed over operations attempted.

With ``--trace 1`` untraced and traced passes alternate.  A traced
operation runs the same command through ``traced_cli.py``, which wraps
each layer's entry points; the per-layer metrics are self times
(``*_s``, at reference speed) and counts, summed over a pass, and
``trace.overhead_ratio`` is the traced pass wall time over the untraced
one, minus one.

The line before the last line of output is a JSON object with the key
``info``: ``cmd_s.<ambient>``, the median wall time of each ambient's
process at reference speed, so that a trade-off between ambients stays
visible; run conditions (source digest, Python, nproc, the pinned CPU,
load average, each process's raw wall and cpu time); and, for trace runs,
which end-to-end metric each layer metric should move.  None of it is
gated.  The last line is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
REFERENCE = BENCH_DIR / "reference.json"
TRACED_CLI = BENCH_DIR / "traced_cli.py"

# A run ends within this many seconds of its start, whatever --seconds says.
RUN_DEADLINE_S = 170.0
SETUP_REPEATS = 7
# The speed probe: probe_work runs every PROBE_INTERVAL_S on the CPU the
# child runs on.  PROBE_REF_S is about its time there while a child runs and
# no neighbour slows the CPU, measured on a 2.1 GHz Xeon VM; it is a fixed
# scale, so that times at reference speed compare across runs and commits.
PROBE_INTERVAL_S = 0.01
PROBE_REF_S = 35e-6

SWEEP_ARGS = ("--all-subgroups", "--format", "structured")
FULL_ARGS = ("--mode", "full-group-only", "--format", "structured")

# Row fields compared with the reference (rank_method and rank_candidates
# are skipped: they describe how the rank was found, not what it is).
CHECKED_FIELDS = ("class_index", "order", "group_id", "n2", "N3", "n3", "n31", "n32",
                  "b2", "pi1", "pi1_trivial")


@dataclass(frozen=True)
class Workload:
    why: str
    args: tuple[str, ...]
    reference: str  # the section of reference.json the output must match
    ambients: tuple[str, ...]
    warm: bool


WORKLOADS = {
    "sweep-small": Workload(
        why="table --all-subgroups on the ambients of order <= 720: the subgroup-class "
            "sweep is ~85% of the time, enumeration under 10%",
        args=SWEEP_ARGS,
        reference="sweep",
        ambients=("A3_5", "L2_11", "M10_first", "Q8_S3"),
        warm=False,
    ),
    "enumerate-cold": Workload(
        why="full-group-only on four large ambients, empty cache per process: exact group "
            "enumeration (6x6 cyclotomic products) ~70%, cache store ~15%, no sweep",
        args=FULL_ARGS,
        reference="full",
        ambients=("C3_4_A6", "M10_second", "G1944", "A7_perm"),
        warm=False,
    ),
    "enumerate-warm": Workload(
        why="the enumerate-cold commands on a cache filled in set-up, a repeat user's "
            "default path: cache load (re-parsing cyclotomic text) ~90%",
        args=FULL_ARGS,
        reference="full",
        ambients=("C3_4_A6", "M10_second", "G1944", "A7_perm"),
        warm=True,
    ),
}

END_TO_END = {
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_ratio": "ratio",
}

# Per-layer metric -> the end-to-end metrics and workloads it should move.
LAYER_MOVES = {
    "groups.generate_s": "wall_s on enumerate-cold",
    "groups.elements": "wall_s on enumerate-cold",
    "linalg.matmul_calls": "wall_s on enumerate-cold",
    "cache.store_s": "wall_s on enumerate-cold",
    "cache.load_s": "wall_s on enumerate-warm",
    "cache.load_hits": "wall_s on enumerate-warm",
    "cyclo.parse_calls": "wall_s on enumerate-warm",
    "groups.sweep_s": "wall_s on sweep-small (most in cmd_s.L2_11, cmd_s.M10_first)",
    "groups.sweep_classes": "wall_s on sweep-small",
    "groups.closure_calls": "wall_s on sweep-small",
    "groups.mult_calls": "wall_s on sweep-small",
    "groups.sweep_useful_ratio": "wall_s on sweep-small",
    "invariants.detect_l3_s": "wall_s on enumerate-cold and -warm (cmd_s.C3_4_A6)",
    "invariants.l3_prefilter_calls": "wall_s on enumerate-cold and -warm (cmd_s.C3_4_A6)",
    "invariants.l3_charpoly_calls": "wall_s on enumerate-cold and -warm (cmd_s.C3_4_A6)",
    "invariants.l3_subgroups": "wall_s on enumerate-cold and -warm (cmd_s.C3_4_A6)",
    "invariants.singular_s": "wall_s on sweep-small",
    "invariants.pi1_s": "wall_s on sweep-small",
    "groups.identify_s": "wall_s on sweep-small",
    "groups.identify_calls": "wall_s on sweep-small",
    "groups.identify_unidentified": "wall_s on sweep-small",
    "invariants.records": "wall_s on sweep-small",
    "ranks.resolve_s": "wall_s on enumerate-* (cmd_s.C3_4_A6) and sweep-small",
    "ranks.lattice_s": "wall_s on sweep-small",
    "ranks.method.monomial-trace": "wall_s on enumerate-* (cmd_s.C3_4_A6)",
    "ranks.method.overlay": "wall_s on sweep-small",
    "ranks.method.table": "wall_s on sweep-small",
    "ranks.method.lattice": "wall_s on sweep-small",
    "ranks.method.unresolved": "wall_s on sweep-small",
    "catalog.load_group_s": "wall_s on every workload",
    "cli.render_s": "wall_s on every workload",
    "cli.import_s": "wall_s on every workload",
    "trace.unattributed_s": "wall_s on every workload (interpreter start-up, glue)",
    "trace.overhead_ratio": "none: the cost of tracing itself",
}

LAYER_TIMES = ("catalog.load_group", "groups.generate", "cache.store", "cache.load",
               "invariants.detect_l3", "groups.sweep", "invariants.singular", "invariants.pi1",
               "groups.identify", "ranks.resolve", "ranks.lattice", "cli.render", "cli.import")
LAYER_COUNTS = ("groups.elements", "linalg.matmul_calls", "cache.load_hits",
                "cyclo.parse_calls", "groups.sweep_classes", "groups.closure_calls",
                "groups.mult_calls", "invariants.l3_prefilter_calls",
                "invariants.l3_charpoly_calls", "invariants.l3_subgroups",
                "groups.identify_calls", "groups.identify_unidentified", "invariants.records")
RANK_METHODS = ("monomial-trace", "overlay", "table", "lattice", "unresolved")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass(eq=False)
class Op:
    ambient: str
    traced: bool
    wall: float
    norm: float  # wall at the probe's reference speed
    cpu: float
    rss_mb: float
    error: Optional[str]
    rows: list = field(default_factory=list)
    trace: Optional[dict] = None


# -- processes --------------------------------------------------------------------


def child_env(cache_dir: Path) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["FANOTERM_CACHE"] = str(cache_dir)
    # A fixed hash seed gives every process the same set and dict layouts, so
    # their iteration order does not add run-to-run variation.
    env["PYTHONHASHSEED"] = "0"
    return env


def probe_work() -> int:
    x = 0
    d = {}
    for i in range(300):
        x = (x * 31 + i) % 1000003
        d[i & 63] = x
    return x


class SpeedProbe:
    """Times probe_work every PROBE_INTERVAL_S while a child runs.

    The benchmark process and its children share one CPU (see pin_cpu), so
    the probe runs on the CPU the child runs on, at the same moments.  A
    shared host slows that CPU now and then, by up to ~40% for seconds at a
    time; the probe slows with it, and ``norm`` scales the child's wall time
    back to the CPU's reference speed.  The probe takes ~0.5% of the CPU.
    """

    def __enter__(self) -> "SpeedProbe":
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample)
        self._thread.start()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self._start
        self._stop.set()
        self._thread.join()
        # A mean follows the share of the child's time that the CPU ran slow,
        # which a median does not; the slowest quarter is left out because it
        # holds the samples that waited for the child's time slice to end.
        fastest = sorted(self.samples)[:max(1, len(self.samples) * 3 // 4)]
        self.norm = self.wall * PROBE_REF_S / statistics.fmean(fastest)

    def _sample(self) -> None:
        while True:
            t = time.perf_counter()
            probe_work()
            self.samples.append(time.perf_counter() - t)
            if self._stop.wait(PROBE_INTERVAL_S):
                return


def pin_cpu() -> int:
    """Keep this process, its probe threads and its children on one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_process(cmd: list, env: dict, stdout_path: Path, deadline: float):
    """Run one child to completion.

    Returns (exit code, wall s, wall s at reference speed, cpu s, max RSS MB, stderr).
    """
    stderr_path = stdout_path.with_suffix(".err")
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err, \
            SpeedProbe() as probe:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(max(deadline - time.perf_counter(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    err_text = stderr_path.read_text(errors="replace").strip()
    return (proc.returncode, probe.wall, probe.norm, cpu, usage.ru_maxrss / 1024.0,
            err_text)


# -- correctness ------------------------------------------------------------------


def check_output(text: str, workload: str, ambient: str, reference: dict):
    """Rows of one command's output, or an error message when they are wrong."""
    try:
        data = json.loads(text)
        rows = data["rows"]
    except (ValueError, KeyError, TypeError) as exc:
        return None, f"unreadable output: {exc}"
    section = WORKLOADS[workload].reference
    want = reference[section][ambient]
    got = [{k: r.get(k) for k in CHECKED_FIELDS} for r in rows]
    if data.get("ambient") != ambient:
        return None, f"output names ambient {data.get('ambient')!r}"
    if got != want:
        if len(got) != len(want):
            return None, f"{len(got)} rows, reference has {len(want)}"
        k = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
        return None, f"row {k} is {got[k]}, reference {want[k]}"
    if section == "sweep":
        simply_connected = {(tuple(r["group_id"]), r["b2"]) for r in got
                            if r["pi1_trivial"] and isinstance(r["group_id"], list)}
        for order, gid, b2 in reference["fixtures"].get(ambient, ()):
            if ((order, gid), b2) not in simply_connected:
                return None, f"fixture row ({order},{gid}) b2={b2} is missing"
    return rows, None


# -- operations and passes --------------------------------------------------------


class Runner:
    def __init__(self, workload: str, seed: int, start: float):
        self.name = workload
        self.wl = WORKLOADS[workload]
        self.rng = random.Random(seed)
        self.deadline = start + RUN_DEADLINE_S
        self.reference = json.loads(REFERENCE.read_text())
        self.warm_cache = WORK / "warm-cache"
        self.counter = itertools.count(1)

    def _fresh_dir(self, stem: str) -> Path:
        path = WORK / f"{stem}-{next(self.counter)}"
        path.mkdir(parents=True)
        return path

    def operation(self, ambient: str, traced: bool, cache: Optional[Path] = None) -> Op:
        """One command; without ``cache`` it gets a fresh empty cache directory."""
        op_dir = self._fresh_dir("op")
        if cache is None:
            cache = op_dir / "cache"
            cache.mkdir()
        out = op_dir / "out.json"
        trace_path = op_dir / "trace.json"
        argv = ["table", "--group", ambient, *self.wl.args]
        if traced:
            cmd = [sys.executable, str(TRACED_CLI), str(trace_path), *argv]
        else:
            cmd = [sys.executable, "-m", "fanoterm.cli", *argv]
        code, wall, norm, cpu, rss, err = run_process(cmd, child_env(cache), out,
                                                      self.deadline)
        op = Op(ambient, traced, wall, norm, cpu, rss, None)
        if code != 0:
            op.error = f"exit {code}: {err[-300:]}"
        else:
            op.rows, op.error = check_output(out.read_text(), self.name, ambient, self.reference)
        if traced and op.error is None:
            op.trace = json.loads(trace_path.read_text())
        shutil.rmtree(op_dir, ignore_errors=True)
        return op

    def run_pass(self, traced: bool) -> list[Op]:
        order = self.rng.sample(self.wl.ambients, len(self.wl.ambients))
        cache = self.warm_cache if self.wl.warm else None
        return [self.operation(amb, traced, cache) for amb in order]

    def setup_once(self) -> tuple[float, list[Op]]:
        """Fresh work area, an import check, and for warm runs the cache fill.

        Returns the set-up time at reference speed: its wall time, scaled as
        its children's times were scaled on average, and the fill operations.
        """
        start = time.perf_counter()
        import_dir = self._fresh_dir("import")
        check = [sys.executable, "-c", "import fanoterm.cli"]
        code, wall, norm, _, _, err = run_process(check, child_env(import_dir),
                                                  import_dir / "out", self.deadline)
        if code != 0:
            raise BenchError(f"fanoterm does not import: {err[-300:]}")
        shutil.rmtree(import_dir, ignore_errors=True)
        fill: list[Op] = []
        if self.wl.warm:
            shutil.rmtree(self.warm_cache, ignore_errors=True)
            self.warm_cache.mkdir(parents=True)
            fill = [self.operation(amb, False, self.warm_cache) for amb in self.wl.ambients]
        wall += sum(op.wall for op in fill)
        norm += sum(op.norm for op in fill)
        return (time.perf_counter() - start) * norm / wall, fill

    def setup(self) -> tuple[list[float], list[Op]]:
        repeats = 1 if self.wl.warm else SETUP_REPEATS
        times, fill = [], []
        for _ in range(repeats):
            t, fill = self.setup_once()
            times.append(t)
        return times, fill

    def measure(self, seconds: float, trace: bool) -> tuple[list[list[Op]], list[list[Op]]]:
        """Passes until the next one would end after ``seconds``; at least one."""
        start = time.perf_counter()
        plain: list[list[Op]] = []
        traced: list[list[Op]] = []
        while True:
            plain.append(self.run_pass(traced=False))
            if trace:
                traced.append(self.run_pass(traced=True))
            now = time.perf_counter()
            per_round = (now - start) / len(plain)
            if now - start + per_round > seconds or now + per_round > self.deadline:
                return plain, traced


# -- metrics ----------------------------------------------------------------------


def pass_norm(ops: list[Op]) -> float:
    return sum(op.norm for op in ops)


def end_to_end(passes, setup_times, all_ops, ambients) -> dict:
    metrics = {"wall_s": sum(t["value"] for t in command_times(passes, ambients).values())}
    metrics["peak_rss_mb"] = max(op.rss_mb for op in all_ops)
    metrics["setup_s"] = statistics.median(setup_times)
    metrics["ok_ratio"] = sum(op.error is None for op in all_ops) / len(all_ops)
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def command_times(passes, ambients) -> dict:
    """Median wall time of each ambient's process over the passes."""
    return {f"cmd_s.{amb}": {"value": statistics.median(op.norm for p in passes for op in p
                                                         if op.ambient == amb), "unit": "s"}
            for amb in ambients}


def self_times(spans: list) -> dict:
    """Per-layer self time: a span's duration minus its direct children's."""
    children = [0.0] * len(spans)
    for layer, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    out: dict = defaultdict(float)
    for i, (layer, start, end, parent) in enumerate(spans):
        out[layer] += end - start - children[i]
    return out


def pass_layers(ops: list[Op]) -> dict:
    """Per-layer self times and counts of one traced pass, summed over its commands."""
    times: dict = defaultdict(float)
    counts: dict = defaultdict(int)
    unattributed = 0.0
    for op in ops:
        if op.trace is None:
            continue
        scale = op.norm / op.wall
        selfs = self_times(op.trace["spans"])
        for layer, t in selfs.items():
            times[layer] += t * scale
        unattributed += op.norm - sum(selfs.values()) * scale
        for name, n in op.trace["counts"].items():
            counts[name] += n
        for row in op.rows:
            counts[f"ranks.method.{row.get('rank_method')}"] += 1
    out = {f"{layer}_s": times[layer] for layer in LAYER_TIMES}
    out.update({name: counts[name] for name in LAYER_COUNTS})
    out.update({f"ranks.method.{m}": counts[f"ranks.method.{m}"] for m in RANK_METHODS})
    in_sweep = counts["groups.closure_calls@groups.sweep"]
    out["groups.sweep_useful_ratio"] = (counts["groups.sweep_classes"] / in_sweep
                                        if in_sweep else 1.0)
    out["trace.unattributed_s"] = unattributed
    return out


def per_layer(plain, traced) -> dict:
    layers = [pass_layers(p) for p in traced]
    metrics = {name: statistics.median(lay[name] for lay in layers) for name in layers[0]}
    traced_wall = statistics.median(pass_norm(p) for p in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_ratio"] = traced_wall / statistics.median(
        pass_norm(p) for p in plain) - 1.0
    units = {}
    for name in metrics:
        units[name] = ("s" if name.endswith("_s") else
                       "ratio" if name.endswith("_ratio") else "count")
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


# -- run information --------------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    load_start = os.getloadavg()
    cpu = pin_cpu()
    try:
        if not (ROOT / "src" / "fanoterm" / "cli.py").is_file():
            raise BenchError(f"no fanoterm sources under {ROOT / 'src'}; run from the "
                             "repository root")
        if not REFERENCE.is_file():
            raise BenchError(f"missing {REFERENCE}")
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir()
        runner = Runner(args.workload, args.seed, start)
        setup_times, fill = runner.setup()
        plain, traced = runner.measure(args.seconds, bool(args.trace))
        cache_files = (len(list(runner.warm_cache.iterdir()))
                       if runner.wl.warm else None)
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    all_ops = fill + [op for p in plain + traced for op in p]
    failed = [op for op in all_ops if op.error is not None]
    if args.trace:
        metrics = per_layer(plain, traced)
    else:
        metrics = end_to_end(plain, setup_times, all_ops, runner.wl.ambients)
    info = {
        "workload": args.workload,
        "why": runner.wl.why,
        "seed": args.seed,
        "cmd_s": command_times(plain, runner.wl.ambients),
        "passes": len(plain),
        "traced_passes": len(traced),
        "setup_s": setup_times,
        "warm_cache_files": cache_files,
        "git_revision": git_revision(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "processes": [{"ambient": op.ambient, "setup": op in fill, "traced": op.traced,
                       "wall_s": op.wall, "norm_s": op.norm, "cpu_s": op.cpu}
                      for op in all_ops],
        "failures": [f"{op.ambient}: {op.error}" for op in failed],
    }
    if args.trace:
        info["layer_moves"] = LAYER_MOVES
        info["absent_entry_points"] = sorted({a for p in traced for op in p if op.trace
                                              for a in op.trace["absent"]})
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not failed, "attempted": len(all_ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
