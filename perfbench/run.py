"""Localization benchmark: seconds from a fresh process to a written verdict.

    python3 perfbench/run.py --workload cold-vec --seed 9100 --seconds 42 --trace 0

One operation is one fresh Python process (``perfbench/op.py``) that
localizes one experiment through ``repro.experiments.run_experiment`` and
writes its report, so it pays import and model build the way a CLI user
does.  One client runs one operation at a time (a closed loop); the
program's pool width stays at its default.  The seed is the experiments'
``base_seed`` and shuffles the order of the six experiments; a cycle runs
each experiment once, and a run does as many whole cycles as fit in
``--seconds`` at the workload's nominal cycle length, at least one.

Workloads (see README.md for why each exists):

* ``cold-vec``: every operation starts from an empty store and runs its
  members on the ``vectorized`` backend.
* ``resume``: set-up runs all six experiments into a store; before each
  operation a pristine copy of that complete store is restored (untimed),
  and the operation re-runs one experiment against it.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
operations with per-layer wrappers (``perfbench/layers.py``) and prints the
per-layer metrics.  An operation fails when its process crashes, exits
non-zero, times out, or writes a report that differs byte for byte from
the first report seen for the same experiment and seed, including the
report the ``resume`` set-up wrote and those of earlier runs of the same
source tree (kept under ``.perfbench/refs``).  Every metric is printed as
``name value unit``; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result, stamped with
the program's ``runtime_info()``, ``nproc``, the seed and the default
backend, is written under ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from layers import TIME_METRICS

ROOT = Path(__file__).resolve().parent.parent
OP = Path(__file__).resolve().parent / "op.py"
STATE = ROOT / ".perfbench"

#: nominal seconds of one cycle of six operations, on a 2-CPU x86-64 box;
#: fixed so that the number of operations in a run never depends on timing
NOMINAL_CYCLE_S = {"cold-vec": 36.0, "resume": 7.0}
#: set-ups per run; setup_s is their median (resume's takes ~15 s, so one)
SETUP_REPEATS = {"cold-vec": 5, "resume": 1}
#: the backend the members of an operation run on (None = the default)
OP_BACKEND = {"cold-vec": "vectorized", "resume": None}
#: the paper's localization criterion: at most this many modules named
TARGET_MODULES = 10
OP_TIMEOUT_S = 60.0
SETUP_TIMEOUT_S = 120.0
#: every run ends well inside the 180 s a run may take
RUN_BUDGET_S = 165.0

END_TO_END = {
    "localize_s": "s",
    "localize_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "localized_frac": "ratio",
    "answer_modules": "count",
}

# per-layer metric -> (unit, how the per-operation values are combined)
PER_LAYER = {
    "frontend.parse_s": ("s", "median"),
    "frontend.files_parsed": ("count", "median"),
    "graphs.metagraph_s": ("s", "median"),
    "analysis.communities_s": ("s", "median"),
    "analysis.communities_calls": ("count", "median"),
    "runtime.scalar_run_s": ("s", "median"),
    "runtime.scalar_runs": ("count", "median"),
    "runtime.statements_per_s": ("1/s", "ratio"),
    "runtime.batch_s": ("s", "median"),
    "runtime.batch_members": ("count", "median"),
    "kgen.registry_s": ("s", "median"),
    "ensemble.generate_s": ("s", "median"),
    "ensemble.members_run": ("count", "median"),
    "ensemble.members_cached": ("count", "median"),
    "ensemble.members_per_s": ("1/s", "ratio"),
    "ensemble.cache_load_s": ("s", "median"),
    "store.load_s": ("s", "median"),
    "store.bytes_read": ("B", "median"),
    "store.hits": ("count", "median"),
    "store.misses": ("count", "median"),
    "store.hit_ratio": ("ratio", "ratio"),
    "store.save_s": ("s", "median"),
    "store.bytes_written": ("B", "median"),
    "ect.test_s": ("s", "median"),
    "ect.tests": ("count", "median"),
    "slicing.slice_s": ("s", "median"),
    "selection.select_s": ("s", "median"),
    "selection.nodes_explored": ("count", "median"),
    "refine.refine_s": ("s", "median"),
    "refine.iterations": ("count", "median"),
    "process.import_s": ("s", "median"),
    "pipeline.unattributed_s": ("s", "median"),
    "trace.localize_s": ("s", "median"),
}

# ratio metric -> (numerator, denominator) summed over the operations
RATIOS = {
    "runtime.statements_per_s": ("runtime.statements", "runtime.scalar_run_s"),
    "ensemble.members_per_s": ("ensemble.members_run", "ensemble.generate_wall_s"),
    "store.hit_ratio": ("store.hits", "store.lookups"),
}


class BenchError(Exception):
    """The benchmark cannot run here (no program, or a set-up step failed)."""


def child_env() -> dict:
    """The environment of every spawned process: the checkout's ``src`` on
    the path and no ``REPRO_*`` knob, so the program runs at its defaults."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    return env


def spawn(args: list, log: Path, timeout: float) -> dict:
    """Run ``op.py args`` to completion; wall seconds, peak RSS, status."""
    start = time.perf_counter()
    with open(log, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, str(OP), *map(str, args)],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=err,
            stderr=subprocess.STDOUT,
        )
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "returncode": proc.returncode,
        "timed_out": proc.returncode < 0 and wall >= timeout,
    }


def setup_step(args: list, work: Path, tag: str, deadline: float) -> dict:
    """A set-up subprocess that must succeed by ``deadline``; its document."""
    out, log = work / f"setup-{tag}.json", work / f"setup-{tag}.log"
    run = spawn([args[0], out, *args[1:]], log, deadline - time.perf_counter())
    if run["returncode"] != 0:
        tail_of_log = log.read_text(errors="replace")[-2000:]
        raise BenchError(f"set-up step {tag} failed:\n{tail_of_log}")
    return json.loads(out.read_text())


def source_digest() -> str:
    """Content hash of ``src/``: reference reports are kept per source tree."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class References:
    """First report per (seed, experiment), persisted per source tree."""

    def __init__(self, seed: int):
        self.path = STATE / "refs" / source_digest() / f"seed-{seed}.json"
        self.known = (
            json.loads(self.path.read_text()) if self.path.exists() else {}
        )

    def check(self, experiment: str, report: str) -> bool:
        digest = hashlib.sha256(report.encode()).hexdigest()
        return self.known.setdefault(experiment, digest) == digest

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def tail(values: list) -> float:
    """The highest percentile with at least ten samples beyond it; with
    fewer than eleven samples no percentile has, so the largest sample."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1]
    return ordered[len(ordered) - 11]


class Workload:
    """Set-up and per-operation preparation of one workload."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.seed = seed
        self.work = work
        self.store = work / "store"
        self.pristine = work / "pristine"
        self.setup_reports: dict = {}

    def setup(self, deadline: float) -> tuple[float, dict, list]:
        """Run the set-up ``SETUP_REPEATS`` times; median seconds, the
        program's identity, and the seeded experiment order."""
        times = []
        for _ in range(SETUP_REPEATS[self.name]):
            shutil.rmtree(self.pristine, ignore_errors=True)
            started = time.perf_counter()
            until = min(deadline, started + SETUP_TIMEOUT_S)
            probe = setup_step(["probe"], self.work, "probe", until)
            if self.name == "resume":
                self.setup_reports = self._fill_store(probe["experiments"], until)
            times.append(time.perf_counter() - started)
        order = list(probe["experiments"])
        random.Random(self.seed).shuffle(order)
        return statistics.median(times), probe, order

    def _fill_store(self, names: list, until: float) -> dict:
        """Build the ensemble, then run every experiment into the pristine
        store; their reports.  With the ensemble stored, two processes (one
        per CPU of the reference box) run three experiments each."""
        common = ["--seed", self.seed, "--store", self.pristine]
        setup_step(
            ["ensemble", *common, "--backend", "vectorized"],
            self.work,
            "ensemble",
            until,
        )
        with ThreadPoolExecutor(2) as pool:
            docs = pool.map(
                lambda part: setup_step(
                    ["localize", *common, *experiment_flags(part)],
                    self.work,
                    f"localize-{part[0]}",
                    until,
                ),
                [names[0::2], names[1::2]],
            )
            return {k: v for doc in docs for k, v in doc["reports"].items()}

    def prepare(self) -> None:
        """Untimed: the store the next operation starts from."""
        shutil.rmtree(self.store, ignore_errors=True)
        if self.name == "cold-vec":
            self.store.mkdir()
        else:
            shutil.copytree(self.pristine, self.store)


def experiment_flags(names: list) -> list:
    return [flag for name in names for flag in ("--experiment", name)]


def run_op(workload: Workload, experiment: str, trace: bool, timeout: float):
    out = workload.work / "op.json"
    out.unlink(missing_ok=True)
    args = ["localize", out, "--seed", workload.seed, "--store", workload.store]
    args += experiment_flags([experiment])
    if OP_BACKEND[workload.name]:
        args += ["--backend", OP_BACKEND[workload.name]]
    if trace:
        args.append("--trace")
    row = spawn(args, workload.work / "op.log", timeout)
    row["experiment"] = experiment
    row["doc"] = None
    if row["returncode"] == 0:
        try:
            row["doc"] = json.loads(out.read_text())
        except (OSError, ValueError):
            pass
    return row


def judge(row: dict, experiment: str, refs: References) -> tuple[bool, str]:
    if row["timed_out"]:
        return False, "timed out"
    if row["returncode"] != 0:
        return False, f"exit code {row['returncode']}"
    try:
        report = row["doc"]["reports"][experiment]
    except (TypeError, KeyError):
        return False, "no report written"
    if not refs.check(experiment, report):
        return False, "report differs from the first for this experiment and seed"
    return True, ""


def end_to_end(rows: list, setup_s: float) -> dict:
    walls = [r["wall_s"] for r in rows if r["ok"]]
    sizes = [r["modules"] for r in rows if r["localized"]]
    return {
        "localize_s": statistics.median(walls),
        "localize_tail_s": tail(walls),
        "setup_s": setup_s,
        "peak_rss_mb": max(r["rss_mb"] for r in rows if r["ok"]),
        "localized_frac": sum(r["localized"] for r in rows) / len(rows),
        # with nothing localized, the answer size of every operation
        "answer_modules": statistics.median(
            sizes or [r["modules"] for r in rows if r["ok"]]
        ),
    }


def per_layer(rows: list) -> dict:
    per_op = []
    for r in rows:
        if not r["ok"]:
            continue
        values = dict(r["doc"]["layers"])
        values["process.import_s"] = r["doc"]["import_s"]
        values["trace.localize_s"] = r["wall_s"]
        values["store.lookups"] = values.get("store.hits", 0) + values.get(
            "store.misses", 0
        )
        attributed = sum(values.get(k, 0.0) for k in TIME_METRICS)
        values["pipeline.unattributed_s"] = (
            r["wall_s"] - values["process.import_s"] - attributed
        )
        per_op.append(values)
    metrics = {}
    for name, (_, how) in PER_LAYER.items():
        if how == "median":
            metrics[name] = statistics.median(v.get(name, 0) for v in per_op)
        else:
            num, den = RATIOS[name]
            total = sum(v.get(den, 0) for v in per_op)
            metrics[name] = sum(v.get(num, 0) for v in per_op) / total if total else 0.0
    return metrics


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    started = time.perf_counter()
    deadline = started + RUN_BUDGET_S
    work = STATE / "work" / f"{workload_name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = Workload(workload_name, seed, work)
        setup_s, probe, order = workload.setup(deadline)
        refs = References(seed)
        for name, report in workload.setup_reports.items():
            if not refs.check(name, report):
                raise BenchError(f"resume set-up report of {name} differs from its reference")
        cycles = max(1, int(seconds // NOMINAL_CYCLE_S[workload_name]))
        rows = []
        for experiment in order * cycles:
            remaining = deadline - time.perf_counter()
            if remaining <= 1.0:
                rows.append({"experiment": experiment, "ok": False,
                             "why": "run budget exhausted", "localized": False})
                continue
            workload.prepare()
            row = run_op(workload, experiment, trace, min(OP_TIMEOUT_S, remaining))
            row["ok"], row["why"] = judge(row, experiment, refs)
            report = json.loads(row["doc"]["reports"][experiment]) if row["ok"] else None
            row["localized"] = bool(
                report
                and report["detected"]
                and report["contained"]
                and len(report["refined_modules"]) <= TARGET_MODULES
            )
            row["modules"] = len(report["refined_modules"]) if report else None
            if row["doc"] is not None:
                row["layers"] = row["doc"].get("layers")
            rows.append(row)
        refs.save()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(not r["ok"] for r in rows)
    ok = len(rows) - failed
    metrics = {}
    if ok:
        metrics = per_layer(rows) if trace else end_to_end(rows, setup_s)
    units = {n: u for n, (u, _) in PER_LAYER.items()} if trace else END_TO_END
    stamp = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "cycles": cycles,
        "samples": ok,
        "nproc": os.cpu_count(),
        "default_backend": probe["default_backend"],
        "runtime_info": probe["runtime_info"],
        "measured_s": time.perf_counter() - started,
    }
    doc = {
        "stamp": stamp,
        "rows": [{k: v for k, v in r.items() if k != "doc"} for r in rows],
        "result": {
            "correct": failed == 0,
            "attempted": len(rows),
            "failed": failed,
            "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in metrics},
        },
    }
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{workload_name}-seed{seed}-trace{int(trace)}.json"
    (results / name).write_text(json.dumps(doc, indent=1))
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_CYCLE_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        doc = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("stamp", json.dumps(doc["stamp"], sort_keys=True))
    for row in doc["rows"]:
        status = "ok" if row["ok"] else f"FAILED ({row['why']})"
        wall = row.get("wall_s")
        print(
            f"op {row['experiment']:<14} "
            f"{'-' if wall is None else f'{wall:.3f}'} s "
            f"localized={row['localized']} {status}"
        )
    for metric, entry in doc["result"]["metrics"].items():
        print(f"{metric} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(doc["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
