"""Benchmark of the netsig command-line program.

    python3 perfbench/run.py --workload exact-figure1 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Runs the workload's CLI calls (each a fresh `python -m netsig.cli` process
on the checkout's `src/`, one worker) for `--seconds`, checks every output,
and prints a summary followed, as the last line, by one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the metrics
are the end-to-end ones; with `--trace 1` the run also calls the CLI entry
point in this process, with and without tracing wrappers, and the metrics
are the per-layer ones.  Inputs and outputs go to `.perfbench_work/` in the
checkout; the full record of the last run is `result.json` there.  With
`--workload all` every workload runs in turn and the metric names of the
last line are prefixed with the workload name.

Exits 2 without a result when the checkout holds no `src/netsig`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "netsig" / "__init__.py"
WORK = ROOT / ".perfbench_work"

SETUP_GROUPS = 8
SETUP_PER_GROUP = 3
MIN_ITERATIONS = 3
CHILD_TIMEOUT_S = 120.0
REFERENCE = Path(__file__).resolve().parent / "reference.py"
# Reported times are scaled to a machine on which reference.py takes this
# long (about its median on the 2-core x86-64 host the benchmark was sized on).
REFERENCE_SECONDS = 0.3
# time_to_se_s extrapolates the sampled run to this max standard error.
TARGET_STD_ERROR = 1e-3


def run_child(argv: list[str], out: Path):
    """Run `argv` with stdout to `out`; return (exit code or None if it was
    killed at the timeout, wall seconds, resource usage of that child)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(out, "wb") as stdout, open(out.with_suffix(".err"), "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=env, cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited, _, _ = select.select([pidfd], [], [], CHILD_TIMEOUT_S)
            if not exited:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode if exited else None), wall, usage


def at_reference_speed(wall: float, ref_before: float, ref_after: float) -> float:
    """`wall` scaled by the reference work's wall time around it."""
    return wall * REFERENCE_SECONDS / ((ref_before + ref_after) / 2)


class Tally:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {'; '.join(problems[:3])}")


class Bench:
    def __init__(self, workload, tally: Tally):
        self.wl = workload
        self.tally = tally
        self.first: dict[int, dict] = {}
        self.reference_checksum: str | None = None

    def cli(self, argv: list[str], out: Path):
        """One CLI process; returns (problems, wall, usage)."""
        code, wall, usage = run_child([sys.executable, "-m", "netsig.cli", *argv], out)
        if code != 0:
            err = out.with_suffix(".err").read_text(errors="replace").strip().splitlines()
            return [f"exit code {code}: {err[-1] if err else ''}"], wall, usage
        return [], wall, usage

    def output_problems(self, index: int, out: Path) -> list[str]:
        try:
            payload = json.loads(out.read_text())
            problems = self.wl.check(index, payload)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unreadable output: {exc!r}"]
        if not problems:
            self.first.setdefault(index, payload)
        return problems

    def iteration(self) -> dict:
        """Every CLI call of one iteration, each checked."""
        wall = cpu = rss = 0.0
        for index, call in enumerate(self.wl.calls):
            out = self.wl.work / f"call{index}.json"
            problems, seconds, usage = self.cli(call, out)
            if not problems:
                problems = self.output_problems(index, out)
            self.tally.record(f"cli call {index}", problems)
            wall += seconds
            cpu += usage.ru_utime + usage.ru_stime
            rss = max(rss, usage.ru_maxrss / 1024)  # KiB on Linux
        return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss}

    def reference(self) -> float:
        """Wall time of one run of the fixed reference work."""
        out = self.wl.work / "reference.out"
        code, wall, _ = run_child([sys.executable, str(REFERENCE)], out)
        checksum = out.read_text().strip()
        if code != 0 or self.reference_checksum not in (None, checksum):
            raise RuntimeError(f"reference work failed: exit {code}, output {checksum!r}")
        self.reference_checksum = checksum
        return wall

    def setup_times(self) -> list[tuple[float, float]]:
        """(wall, wall at reference speed) of fresh processes that import
        netsig, read and validate the input and build what scoring needs."""
        times = []
        out = self.wl.work / "setup.out"
        argv = [sys.executable, "-c", self.wl.setup_code, *self.wl.setup_args]
        before = self.reference()
        for _ in range(SETUP_GROUPS):
            walls = []
            for _ in range(SETUP_PER_GROUP):
                code, wall, _ = run_child(argv, out)
                imported = out.read_text().strip() if code == 0 else ""
                problems = [] if imported == str(PACKAGE) else [f"exit {code}, imported {imported!r}"]
                self.tally.record("setup", problems)
                walls.append(wall)
            after = self.reference()
            times += [(wall, at_reference_speed(wall, before, after)) for wall in walls]
            before = after
        return times

    def self_test(self) -> tuple[int, int]:
        """Check tampered copies of good outputs through the same counting
        path; returns (tampered outputs, counted as failed)."""
        tally = Tally()
        for index, payload in self.first.items():
            for bad in self.wl.tampered(index, payload):
                tally.record("tampered", self.wl.check(index, bad))
        return tally.attempted, tally.failed

    def in_process(self, hot: bool):
        """Run the iteration's CLI calls through netsig.cli.main in this
        process with the phase wrappers (and, if `hot`, the per-call ones)
        installed; returns (tracer, wall seconds)."""
        import layers
        import netsig.cli
        from tracer import Tracer

        tracer = Tracer()
        main = tracer.wrap("cli.main", netsig.cli.main, span=True)
        wall = 0.0
        with tracer:
            layers.install(tracer, hot)
            for index, call in enumerate(self.wl.calls):
                out = self.wl.work / f"inproc{index}.json"
                start = time.perf_counter()
                try:
                    problems = [] if main([*call, "--out", str(out)]) == 0 else ["nonzero exit"]
                except Exception as exc:  # a failing program is a result
                    problems = [f"raised {exc!r}"]
                wall += time.perf_counter() - start
                if not problems:
                    problems = self.output_problems(index, out)
                self.tally.record(f"in-process call {index}", problems)
        return tracer, wall


def git_commit() -> str | None:
    """HEAD commit read from .git, if the checkout has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    sources = sorted(SRC.rglob("*.py"))
    uname = platform.uname()
    return {
        "machine": uname.machine,
        "system": f"{uname.system} {uname.release}",
        "nproc": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "workers": 1,
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
    }


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4g} median={q2:.4g} q3={q3:.4g} max={max(values):.4g}"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; prints its summary and returns the result object."""
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[name](ROOT, work, seed)
    tally = Tally()
    bench = Bench(workload, tally)

    def prepare_cli(call):
        problems, _, _ = bench.cli(call, work / "prepare.out")
        return problems

    tally.record("input preparation", workload.prepare(prepare_cli))
    setup = bench.setup_times()
    bench.iteration()  # warm-up: checked, not timed
    tampered, caught = bench.self_test()

    record: dict = {"workload": name, "seed": seed, "environment": environment()}
    started = time.perf_counter()
    if trace:
        import layers

        traced = [bench.in_process(hot=True) for _ in range(2)]
        per = [layers.per_layer(t, t, workload.orders, workload.samples) for t, _ in traced]
        repeat = {k: (per[0][k], per[1][k]) for k in layers.COUNT_METRICS if per[0][k] != per[1][k]}
        tally.record("traced counts repeat", [f"{k}: {a} then {b}" for k, (a, b) in repeat.items()])
        record["traced_calls"] = traced[0][0].summary()

    # Untraced, every CLI iteration is bracketed by runs of the reference
    # work.  With tracing, it is paired with the same calls made in this
    # process with phase wrappers only, so that the CLI's own cost is a
    # difference of two measurements taken side by side.
    iterations, in_process = [], []
    before = None if trace else bench.reference()
    while len(iterations) < MIN_ITERATIONS or time.perf_counter() - started < seconds:
        it = bench.iteration()
        if trace:
            in_process.append(bench.in_process(hot=False))
        else:
            after = bench.reference()
            it["reference_s"] = (before + after) / 2
            it["scaled_wall_s"] = at_reference_speed(it["wall_s"], before, after)
            before = after
        iterations.append(it)
    record["iterations"] = iterations

    walls = [it["wall_s"] for it in iterations]
    std_error = workload.max_std_error(bench.first[0]) if 0 in bench.first else 0.0
    if trace:
        phases = in_process[0][0]
        record["spans"] = phases.spans
        metrics = {
            metric: (value, layers.unit(metric))
            for metric, value in layers.per_layer(phases, traced[0][0], workload.orders, workload.samples).items()
        }
        overheads = [it["wall_s"] - layers.lib_seconds(t) for it, (t, _) in zip(iterations, in_process)]
        metrics["cli.overhead_s"] = (statistics.median(overheads), "s")
        untraced_wall = statistics.median(w for _, w in in_process)
        traced_wall = statistics.median(w for _, w in traced)
        metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    else:
        wall = statistics.median(it["scaled_wall_s"] for it in iterations)
        metrics = {
            "wall_s": (wall, "s"),
            "items_per_s": (workload.items / wall, "1/s"),
            "setup_s": (statistics.median(scaled for _, scaled in setup), "s"),
            "peak_rss_mb": (statistics.median(it["peak_rss_mb"] for it in iterations), "MB"),
            # Without sampling error the result is final at wall_s.
            "time_to_se_s": (wall * (std_error / TARGET_STD_ERROR) ** 2 if std_error else wall, "s"),
        }
    correct = tally.failed == 0 and caught == tampered > 0

    print(f"workload {name}: seed {seed}, {workload.items} {workload.item} per iteration")
    print(f"environment {json.dumps(record['environment'], sort_keys=True)}")
    print(f"raw wall_s {spread(walls)}")
    print(f"raw cpu_s {spread([it['cpu_s'] for it in iterations])}")
    print(f"raw setup_s {spread([raw for raw, _ in setup])}")
    if not trace:
        print(f"reference_s {spread([it['reference_s'] for it in iterations])}")
        print(f"scaled wall_s {spread([it['scaled_wall_s'] for it in iterations])}")
        print(f"scaled setup_s {spread([scaled for _, scaled in setup])}")
    print(f"max std_error {std_error:.6g}")
    print(f"fail_ratio {tally.failed / tally.attempted:.4g} ({tally.failed} of {tally.attempted} operations)")
    print(f"self-test: {caught} of {tampered} tampered outputs counted as failures")
    for problem in tally.problems:
        print(f"problem {problem}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<42} {value:>16.6g} {unit}")

    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
    }
    record.update(result, problems=tally.problems, setup_s=setup, tampered=tampered,
                  tampered_caught=caught)
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not PACKAGE.is_file():
        print(f"error: no netsig package at {PACKAGE}", file=sys.stderr)
        return 2
    if args.trace:
        sys.path.insert(0, str(SRC))
        import netsig

        if Path(netsig.__file__) != PACKAGE:
            print(f"error: imported netsig from {netsig.__file__}", file=sys.stderr)
            return 2

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in WORKLOADS}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
