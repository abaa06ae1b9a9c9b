"""gpkit benchmark: four sweep/oracle workloads through the real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the CLI is started from ``src/``
with ``python3 -m gpkit.cli``, one fresh process per command, ``--jobs 1``
and ``GPKIT_JOBS`` removed from the environment.

``--trace 0`` repeats, until ``--seconds`` is spent, one iteration of a
trivial set-up call (``enumerate-pureinner 1,0``), a reference process that
runs no gpkit code, and the workload's commands, on two lanes at once (one
pinned to each of the first two CPUs).  It reports medians of
``wall_per_ref`` (workload wall time over the reference's, same iteration),
``setup_s`` and ``peak_rss_mb``; raw ``wall_s`` is printed as well.
``--trace 1`` alternates untraced and traced runs of the workload's
commands; the traced runs go through ``traced_cli.py`` and give the
per-layer counts and self times, and the workload's exact-count identities
are asserted on them.

Every command's output is checked; a run that fails any check counts in
``failed`` and its timings are dropped.  The last line of stdout is one
JSON object ``{correct, attempted, failed, metrics}``; the lines before it
are a human-readable table and one JSON ``report`` line with the seed,
every sample and the environment stamp.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import array
import cmath
import json
import math
import os
import platform
import random
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACED_CLI = BENCH_DIR / "traced_cli.py"
CLI = (sys.executable, "-m", "gpkit.cli", "--json")

SETUP_ARGS = ("enumerate-pureinner", "1,0")
# The reference process: heavy imports that no gpkit change can alter.
REFERENCE_CODE = "import scipy.integrate, scipy.special"
MIN_ITERATIONS = 3       # untraced; a traced run needs one
RUN_DEADLINE_S = 150.0   # the whole run, so it ends well inside 180 s
CHILD_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``{reps}`` in ``args`` is the generated input file."""

    args: tuple[str, ...]
    cases: int | None = None      # pinned ``cases_checked`` of a sweep
    constituents: int | None = None  # oracle entries expected from ``epsilon``


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    # (label, metric names summed, pinned value) asserted on every traced run
    identities: tuple[tuple[str, tuple[str, ...], int], ...] = ()


def _sweep(*args: str, cases: int) -> Command:
    return Command(("verify", *args, "--jobs", "1"), cases=cases)


N_CHAR_REPS, N_DISC_REPS = 6, 10

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "chi-wide",
            (_sweep("dichotomy", "--max-dim", "10", "--max-k", "9",
                    cases=6_608_055),),
            (
                ("table builds", ("lparam.table_build.calls",), 992),
                ("dichotomy calls", ("lparam.dichotomy.calls",), 42_430),
                ("multiplicativity checks", ("cli.mult_checks",), 6_565_625),
            ),
        ),
        Workload(
            "chi-narrow",
            (_sweep("dichotomy", "--max-dim", "5", "--max-k", "25",
                    cases=1_749_697),),
            (
                ("table builds", ("lparam.table_build.calls",), 8_464),
                ("dichotomy calls", ("lparam.dichotomy.calls",), 57_096),
            ),
        ),
        Workload(
            "conjclass",
            (
                _sweep("union", "--max-dim", "13", cases=3_036),
                _sweep("fibers", "--max-dv", "12", cases=4_368),
            ),
            (
                ("union cases", ("conjclass.verify_union_prop.calls",), 3_036),
                ("fiber cases", ("conjclass.verify_fiber_lemma.calls",
                                 "conjclass.verify_fiber_union.calls"), 4_368),
                ("regularity tests", ("conjclass.is_regular.calls",), 50_524),
            ),
        ),
        Workload(
            "eps-oracle",
            (Command(("epsilon", "{reps}", "--oracle"),
                     constituents=N_CHAR_REPS + N_DISC_REPS),),
            (
                ("oracle calls", ("epsilon.eps_numeric_oracle.calls",),
                 N_CHAR_REPS + N_DISC_REPS),
            ),
        ),
    )
}

# Traced names, in the order the per-layer metrics are reported.
SPAN_NAMES = (
    "lparam.enumerate_reduced",
    "lparam.make_gp_pair",
    "lparam.table_build",
    "lparam.mask_tables",
    "lparam.element_of_mask",
    "lparam.dichotomy",
    "weilrep.tensor",
    "epsilon.eps_half",
    "epsilon.eps_numeric_oracle",
    "conjclass.verify_union_prop",
    "conjclass.verify_fiber_lemma",
    "conjclass.verify_fiber_union",
    "conjclass.is_in_Xi_reg_V",
    "conjclass.is_in_C_VW",
    "conjclass.is_regular",
    "quadspace.pure_inner_forms",
    "quadspace.kottwitz_sign",
    "quadspace.is_admissible_pair",
)


# ---------------------------------------------------------------------------
# Seeded input
# ---------------------------------------------------------------------------

# Twists are ±1/3, ±1/4, ±1/5 and k runs over 1..10 once each.  At these
# twists the oracle's quadrature count barely depends on the choice (about
# 12,000 calls for every seed), so wall time does not follow the seed.  k
# stays small: the oracle's error budget fails for large k (DiscRep(400)
# raises QuadratureFailure).
TWISTS = tuple(Fraction(sign, d) for d in (3, 4, 5) for sign in (1, -1))
DISC_KS = range(1, N_DISC_REPS + 1)


def make_reps(seed: int) -> bytes:
    """The eps-oracle representation file: 6 characters (3 each of sgn^0 and
    sgn^1) and 10 discrete pieces D_k, pairwise distinct, with seeded twists,
    as gpkit's WeilRep JSON.  Same seed, same bytes."""
    rng = random.Random(seed)
    entries = [
        {"rep": {"kind": "char", "a": a, "t": str(t)}, "mult": 1}
        for a in (0, 1)
        for t in rng.sample(TWISTS, N_CHAR_REPS // 2)
    ]
    entries += [
        {"rep": {"kind": "disc", "k": k, "t": str(rng.choice(TWISTS))},
         "mult": 1}
        for k in DISC_KS
    ]
    rng.shuffle(entries)
    return (json.dumps(entries, sort_keys=True) + "\n").encode()


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def check_output(cmd: Command, code: int, stdout: str) -> list[str]:
    """Every reason the command's result is wrong; empty when it is right."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        out = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return ["output is not JSON"]
    if cmd.args[0] == "verify":
        errors = []
        if out.get("status") != "PASS":
            errors.append(f"status {out.get('status')!r}")
        if out.get("counterexamples") != []:
            errors.append("counterexamples reported")
        if out.get("cases_checked") != cmd.cases:
            errors.append(f"cases_checked {out.get('cases_checked')} != "
                          f"pinned {cmd.cases}")
        return errors
    if cmd.args[0] == "epsilon":
        return _check_oracle(cmd, out)
    if out.get("space") != {"p": 1, "q": 0} or not out.get("forms"):
        return ["set-up call returned no pure inner forms"]
    return []


def _check_oracle(cmd: Command, out: dict) -> list[str]:
    checks = out.get("oracle") or []
    errors = []
    if len(checks) != cmd.constituents:
        errors.append(f"{len(checks)} oracle entries, expected "
                      f"{cmd.constituents}")
    if len({c.get("constituent") for c in checks}) != len(checks):
        errors.append("oracle constituents are not distinct")
    exponent = 0
    for c in checks:
        dist, tol = c.get("distance"), c.get("tol")
        if not (isinstance(dist, float) and isinstance(tol, float)
                and dist < tol):
            errors.append(f"{c.get('constituent')}: distance {dist} "
                          f"not below tol {tol}")
            continue
        re_, im_ = c["value"]
        exponent += round(cmath.phase(complex(re_, im_)) / (math.pi / 2))
    # ε is multiplicative over the direct sum: the oracle's fourth roots
    # must multiply to the exact answer.
    if not errors and exponent % 4 != out.get("exponent"):
        errors.append(f"exact exponent {out.get('exponent')} disagrees with "
                      f"the oracle product i^{exponent % 4}")
    return errors


def check_identities(workload: Workload, layer: dict) -> list[str]:
    errors = []
    for label, names, want in workload.identities:
        got = sum(layer.get(n, 0) for n in names)
        if got != want:
            errors.append(f"{label}: {' + '.join(names)} = {got} != {want}")
    return errors


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

@dataclass
class Child:
    wall_s: float
    maxrss_mb: float
    code: int
    stdout: str


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("GPKIT_JOBS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


class Runner:
    """Runs one lane's child processes, one at a time, in its own scratch
    directory.  ``cpu`` pins the lane (and so its children) to one CPU."""

    def __init__(self, workload: Workload, reps_file: Path, workdir: Path,
                 deadline: float, cpu: int | None = None) -> None:
        workdir.mkdir(exist_ok=True)
        self.workload = workload
        self.reps_file = reps_file
        self.workdir = workdir
        self.deadline = deadline
        self.cpu = cpu
        self.stopped = False
        self._live: subprocess.Popen | None = None

    def stop(self) -> None:
        """Kill the running child and start no other (from another thread)."""
        self.stopped = True
        live = self._live
        if live is not None:
            live.kill()

    def _spawn(self, argv: list[str]) -> Child:
        """Run ``argv`` to completion: wall time from spawn to exit, and its
        own peak RSS from ``os.wait4``.  Killed if it outlives the run."""
        if self.stopped:
            raise RuntimeError("lane stopped")
        timeout = min(CHILD_TIMEOUT_S, self.deadline + 20.0 - time.monotonic())
        out_path = self.workdir / "child.out"
        with open(out_path, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                    stdin=subprocess.DEVNULL, cwd=ROOT,
                                    env=_child_env())
            self._live = proc
            watchdog = threading.Timer(max(timeout, 0.1), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
                self._live = None
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(wall, usage.ru_maxrss / 1024, proc.returncode,
                     out_path.read_text(errors="replace"))

    def _argv(self, cmd: Command) -> list[str]:
        return [a.replace("{reps}", str(self.reps_file)) for a in cmd.args]

    def reference_call(self) -> tuple[Child, list[str]]:
        child = self._spawn([sys.executable, "-c", REFERENCE_CODE])
        return child, [] if child.code == 0 else [
            f"reference process exit code {child.code}"]

    def setup_call(self) -> tuple[Child, list[str]]:
        cmd = Command(SETUP_ARGS)
        child = self._spawn([*CLI, *cmd.args])
        return child, check_output(cmd, child.code, child.stdout)

    def workload_run(self) -> tuple[float, float, list[str]]:
        """(wall_s, peak_rss_mb, errors) of one untraced run of every command."""
        wall, rss, errors = 0.0, 0.0, []
        for cmd in self.workload.commands:
            child = self._spawn([*CLI, *self._argv(cmd)])
            wall += child.wall_s
            rss = max(rss, child.maxrss_mb)
            errors += check_output(cmd, child.code, child.stdout)
        return wall, rss, errors

    def traced_run(self, request: str) -> tuple[float, dict, list[str]]:
        """(wall_s, per-layer values, errors) of one traced run."""
        wall, layer, errors = 0.0, {}, []
        for i, cmd in enumerate(self.workload.commands):
            spans_file = self.workdir / "spans.bin"
            if spans_file.exists():
                spans_file.unlink()
            child = self._spawn(
                [sys.executable, str(TRACED_CLI), str(spans_file),
                 f"{request}.{i}", "--json", *self._argv(cmd)])
            wall += child.wall_s
            cmd_errors = check_output(cmd, child.code, child.stdout)
            errors += cmd_errors
            if not spans_file.exists():
                errors.append("traced run wrote no spans")
                continue
            values = read_spans(spans_file)
            if cmd.args[:2] == ("verify", "dichotomy") and not cmd_errors:
                # cases_checked = multiplicativity checks + dichotomy calls
                values["cli.mult_checks"] = (
                    cmd.cases - values.get("lparam.dichotomy.calls", 0))
            for name, v in values.items():
                layer[name] = layer.get(name, 0) + v
        if not errors:
            errors += check_identities(self.workload, layer)
        return wall, layer, errors


def read_spans(path: Path) -> dict:
    """``<name>.calls`` and ``<name>.self_s`` per span name, plus counters.

    Self time is a span's duration minus the durations of its direct
    children, so nested spans are never counted twice.
    """
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        cols = []
        for _ in range(4):
            col = array.array("q")
            col.fromfile(fh, n)
            cols.append(col)
    parent, name, start, end = cols
    child_ns = [0] * n
    for i in range(n):
        if parent[i] >= 0:
            child_ns[parent[i]] += end[i] - start[i]
    calls = [0] * len(header["names"])
    self_ns = [0] * len(header["names"])
    for i in range(n):
        calls[name[i]] += 1
        self_ns[name[i]] += end[i] - start[i] - child_ns[i]
    out = dict(header["counters"])
    for nid, span in enumerate(header["names"]):
        if span == "cli.run":
            out["cli.self_s"] = self_ns[nid] / 1e9
        else:
            out[f"{span}.calls"] = calls[nid]
            out[f"{span}.self_s"] = self_ns[nid] / 1e9
    return out


# ---------------------------------------------------------------------------
# Measurement loops
# ---------------------------------------------------------------------------

def _keep_going(runner: Runner, n: int, least: int, started: float,
                seconds: float, per_iter: float) -> bool:
    """Another iteration fits: fewer than ``least`` done, or it ends within
    ``seconds``; never past the run's deadline or after a stop."""
    now = time.monotonic()
    if runner.stopped or now + per_iter > runner.deadline:
        return False
    return n < least or now - started + per_iter <= seconds


def measure_lane(runner: Runner, seconds: float) -> dict:
    if runner.cpu is not None:
        os.sched_setaffinity(0, {runner.cpu})  # this thread and its children
    samples = {name: [] for name in (*E2E_UNITS, *RAW_UNITS)}
    failed_samples = {k: [] for k in samples}
    attempted, failures = 0, []
    started = time.monotonic()
    per_iter = 0.0
    while _keep_going(runner, attempted, MIN_ITERATIONS, started, seconds,
                      per_iter):
        t0 = time.monotonic()
        setup, errors = runner.setup_call()
        ref, ref_errors = runner.reference_call()
        wall, rss, run_errors = runner.workload_run()
        errors += ref_errors + run_errors
        attempted += 1
        if errors:
            failures.append(errors)
        dest = failed_samples if errors else samples
        dest["wall_per_ref"].append(wall / ref.wall_s)
        dest["wall_s"].append(wall)
        dest["ref_s"].append(ref.wall_s)
        dest["setup_s"].append(setup.wall_s)
        dest["peak_rss_mb"].append(max(rss, setup.maxrss_mb))
        per_iter = max(per_iter, time.monotonic() - t0)
    return {"samples": samples, "failed_samples": failed_samples,
            "attempted": attempted, "failures": failures}


def measure(runners: list[Runner], seconds: float) -> dict:
    """Untraced iterations on all lanes at once, merged.

    This host's CPUs slow down and speed up independently of each other
    for tens of seconds at a time, so one lane per CPU doubles the
    independent samples a run of fixed length collects.
    """
    with ThreadPoolExecutor(len(runners)) as pool:
        futures = [pool.submit(measure_lane, r, seconds) for r in runners]
        try:
            parts = [f.result() for f in futures]
        except BaseException:
            for r in runners:
                r.stop()
            raise
    merged = {"samples": {}, "failed_samples": {}, "attempted": 0,
              "failures": []}
    for part in parts:
        for key in ("samples", "failed_samples"):
            for name, values in part[key].items():
                merged[key].setdefault(name, []).extend(values)
        merged["attempted"] += part["attempted"]
        merged["failures"] += part["failures"]
    return merged


def measure_traced(runner: Runner, seconds: float, seed: int) -> dict:
    passed = {"untraced_wall_s": [], "traced_wall_s": [], "layers": []}
    failed = {k: [] for k in passed}
    attempted, failures = 0, []
    started = time.monotonic()
    per_iter = 0.0
    while _keep_going(runner, attempted, 1, started, seconds, per_iter):
        t0 = time.monotonic()
        wall, _rss, errors = runner.workload_run()
        twall, layer, terrors = runner.traced_run(f"{seed}.{attempted}")
        errors += terrors
        first = passed["layers"][:1]
        if first and not errors:
            errors += [f"{k} changed between traced runs"
                       for k, v in layer.items()
                       if not k.endswith("_s") and v != first[0].get(k)]
        attempted += 1
        if errors:
            failures.append(errors)
        dest = failed if errors else passed
        dest["untraced_wall_s"].append(wall)
        dest["traced_wall_s"].append(twall)
        dest["layers"].append(layer)
        per_iter = max(per_iter, time.monotonic() - t0)
    # As in measure(): failed runs stand in only when none passed.
    samples = passed if passed["layers"] else failed
    return dict(samples, attempted=attempted, failures=failures)


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def summary(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it
    (when the count supports one), extremes and the sample count."""
    out = {"n": len(values)}
    if not values:
        return out
    ordered = sorted(values)
    out.update(median=statistics.median(ordered), min=ordered[0],
               max=ordered[-1])
    n = len(ordered)
    if n >= 20:
        pct = math.floor(100 * (n - 10) / n)
        out[f"p{pct}"] = ordered[math.ceil(pct / 100 * n) - 1]
    return out


def environment() -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    init = (SRC / "gpkit" / "__init__.py").read_text()
    match = re.search(r'__version__\s*=\s*"([^"]+)"', init)
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "python": platform.python_version(),
        "scipy": version("scipy"),
        "numpy": version("numpy"),
        "gpkit": match.group(1) if match else None,
        "git_commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


E2E_UNITS = {"wall_per_ref": "ratio", "setup_s": "s", "peak_rss_mb": "MiB"}
# Printed and reported, not gated: raw wall times swing with the host.
RAW_UNITS = {"wall_s": "s", "ref_s": "s"}


def e2e_result(m: dict) -> tuple[dict, dict, list[tuple]]:
    metrics, stats, rows = {}, {}, []
    for name, unit in {**E2E_UNITS, **RAW_UNITS}.items():
        # Failed runs are never timed silently: they only stand in, with
        # correct=false, when no run passed.
        values = m["samples"][name] or m["failed_samples"][name]
        s = summary(values)
        stats[name] = dict(s, unit=unit, values=values)
        if name in E2E_UNITS:
            metrics[name] = {"value": s["median"], "unit": unit}
        rows.append((name, s["median"], unit, s))
    failed = len(m["failures"])
    frac = failed / m["attempted"] if m["attempted"] else 1.0
    rows.append(("failed_frac", frac, "ratio",
                 {"failed": failed, "attempted": m["attempted"]}))
    return metrics, stats, rows


def layer_result(m: dict) -> tuple[dict, dict, list[tuple]]:
    layers = m["layers"]
    names = ["cli.self_s", "cli.mult_checks"]
    for span in SPAN_NAMES:
        names += [f"{span}.calls", f"{span}.self_s"]
    names += ["epsilon.quad_calls", "trace.overhead_s"]
    metrics, stats, rows = {}, {}, []
    for name in names:
        if name == "trace.overhead_s":
            value = (statistics.median(m["traced_wall_s"])
                     - statistics.median(m["untraced_wall_s"]))
            unit = "s"
        else:
            value = statistics.median(layer.get(name, 0) for layer in layers)
            unit = "s" if name.endswith("_s") else "count"
            if unit == "count":
                value = int(value)
        metrics[name] = {"value": value, "unit": unit}
        rows.append((name, value, unit, {}))
    stats["untraced_wall_s"] = summary(m["untraced_wall_s"])
    stats["traced_wall_s"] = summary(m["traced_wall_s"])
    return metrics, stats, rows


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "gpkit" / "cli.py").is_file():
        print(f"perfbench: no gpkit sources under {SRC}", file=sys.stderr)
        return 2

    # Terminate like an interrupt, so children are killed and scratch removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    workload = WORKLOADS[args.workload]
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    load_start = os.getloadavg()
    env = environment()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        reps_file = workdir / "reps.json"
        reps_file.write_bytes(make_reps(args.seed))
        lanes = [None] if args.trace else sorted(os.sched_getaffinity(0))[:2]
        runners = [Runner(workload, reps_file, workdir / f"lane{i}", deadline,
                          cpu) for i, cpu in enumerate(lanes)]
        # Untimed warm-up: compiles bytecode and fills the page cache, as an
        # installed gpkit would have them.
        _, warm_errors = runners[0].setup_call()
        if args.trace:
            m = measure_traced(runners[0], args.seconds, args.seed)
            metrics, stats, rows = layer_result(m)
        else:
            m = measure(runners, args.seconds)
            metrics, stats, rows = e2e_result(m)
    if warm_errors:
        m["failures"].append(["warm-up: " + "; ".join(warm_errors)])
        m["attempted"] += 1
    failed = len(m["failures"])
    correct = failed == 0 and m["attempted"] > 0

    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} attempted={m['attempted']} failed={failed}")
    for name, value, unit, extra in rows:
        shown = str(value) if isinstance(value, int) else f"{value:.6g}"
        detail = " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in extra.items())
        print(f"{name:<40} {shown:>14} {unit:<6} {detail}")
    for errors in m["failures"]:
        print("# FAILED: " + "; ".join(errors))
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "lanes": lanes,
        "elapsed_s": time.monotonic() - started,
        "stats": stats,
        "failures": m["failures"],
        "env": dict(env, loadavg_start=load_start, loadavg_end=os.getloadavg()),
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": m["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
