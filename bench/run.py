"""Benchmark of the `suprec` CLI, run from the source tree without installing.

    python3 bench/run.py --workload sim-multiple --seed 1 --seconds 20 --trace 0

One run builds the workload's JSON config from --seed, makes one warm-up
call of `suprec.cli.main` in this process and one fresh `--threads 2` CLI
process, both only for the correctness gate, and then for --seconds repeats
a step that samples a fresh `python -m suprec.cli` process (wall_s, and
cpu_s and peak_rss_mb from that child's own rusage), two warm in-process
`main()` calls (run_s, items_per_s) and, every second step, a fresh
interpreter importing `suprec.cli` (setup_s). Each metric reports its
median; times are normalized for the host's speed (see `measure`).

With --trace 1 it instead reads import times from `-X importtime`, times
untraced warm calls for half of --seconds and calls traced by bench/spans.py
for the other half, and reports the per-layer metrics.

Every CLI run is gated: it must exit 0, write exactly the bytes of the
first run (any --threads, traced or not) and pass the workload's output
checks. Children inherit the environment plus PYTHONPATH=src; BLAS thread
settings are recorded, never changed. The last stdout line is the result
JSON; the lines before it give the run manifest, quartiles and sample
counts. --held-out maps the seed into a separate stream, for re-checking a
gain on inputs not used while the change was written.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from spans import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

IMPORTTIME_REPEATS = 3  # traced runs: cold imports under -X importtime
MIN_REPEATS = 3         # timed repeats per run even if --seconds is short
CHILD_TIMEOUT_S = 120
REF_NOMINAL_S = 0.05    # reference task time that normalized seconds assume
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "run_s": "s", "cpu_s": "s",
             "peak_rss_mb": "MB", "items_per_s": "1/s"}
IMPORT_MODULES = {"import.numpy_s": "numpy", "import.scipy_linalg_s": "scipy.linalg",
                  "import.scipy_stats_s": "scipy.stats", "import.suprec_cli_s": "suprec.cli"}


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stderr: str


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def run_child(argv: list, stderr_path: Path) -> Child:
    """Run one process to completion; wall time from spawn to exit, rusage of
    that child alone."""
    with open(stderr_path, "w+") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the child before leaving
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        text = err.read()
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, text)


def parse_importtime(text: str) -> dict:
    """Cumulative seconds per module from `python -X importtime` stderr."""
    cumulative = {}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
    return {metric: cumulative.get(module, 0.0) for metric, module in IMPORT_MODULES.items()}


class Gate:
    """Correctness gate over every CLI run of one (config, seed)."""

    def __init__(self, workload, config: dict):
        self.workload, self.config = workload, config
        self.reference = None
        self.attempted = self.failed = 0
        self.problems = []
        self._verdicts = {}

    def record(self, label: str, code: int, out: Path, detail: str = "") -> None:
        self.attempted += 1
        problems = []
        if code != 0:
            problems.append(f"exit code {code}: {detail.strip()[-500:]}")
        elif not out.is_file():
            problems.append("no output written")
        else:
            data = out.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            if self.reference is None:
                self.reference = digest
            elif digest != self.reference:
                problems.append(f"output sha256 {digest} differs from {self.reference}")
            if digest not in self._verdicts:
                try:
                    verdict = self.workload.check(data.decode(), self.config)
                except (ValueError, KeyError) as exc:  # output the checks cannot parse
                    verdict = [f"unreadable output: {exc!r}"]
                self._verdicts[digest] = verdict
            problems.extend(self._verdicts[digest])
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


class Session:
    """One benchmark run: the workload's files, its CLI arguments and its gate."""

    def __init__(self, workload, config: dict, cli_seed: int, work: Path):
        self.workload, self.config = workload, config
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(config, indent=2, sort_keys=True))
        self.out = work / "out.csv"
        self.stderr_path = work / "stderr.txt"
        self.cli_args = [workload.command, "--config", str(self.config_path),
                         "--seed", str(cli_seed), "--out", str(self.out)]
        self.gate = Gate(workload, config)
        self.cli = None

    def cold_import(self, importtime: bool) -> Child:
        flags = ["-X", "importtime"] if importtime else []
        child = run_child([sys.executable, *flags, "-c", "import suprec.cli"], self.stderr_path)
        if child.code != 0:
            raise RuntimeError(f"importing suprec.cli failed: {child.stderr.strip()[-500:]}")
        return child

    def fresh(self, label: str, *extra) -> Child:
        self.out.unlink(missing_ok=True)
        child = run_child([sys.executable, "-m", "suprec.cli", *self.cli_args, *extra],
                          self.stderr_path)
        self.gate.record(label, child.code, self.out, child.stderr)
        return child

    def warm(self, label: str) -> float:
        """One in-process CLI call; returns its seconds."""
        if self.cli is None:
            sys.path.insert(0, str(SRC))
            import suprec.cli
            self.cli = suprec.cli
        self.out.unlink(missing_ok=True)
        start = perf_counter()
        try:
            code = self.cli.main(self.cli_args)
            detail = ""
        except Exception:  # a crash is a failed run, reported with its traceback
            code, detail = -1, traceback.format_exc()
        elapsed = perf_counter() - start
        self.gate.record(label, code, self.out, detail)
        return elapsed


def repeat_for(seconds: float, step) -> None:
    """Call step() until `seconds` have passed and MIN_REPEATS calls were made."""
    deadline = perf_counter() + seconds
    done = 0
    while done < MIN_REPEATS or perf_counter() < deadline:
        step()
        done += 1


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def reference_seconds() -> float:
    """Time of a fixed task mixing interpreter work with small LAPACK and RNG
    calls, the kinds of work `suprec` spends its time on."""
    import numpy as np
    start = perf_counter()
    rng = np.random.default_rng(0)
    total = 0
    for i in range(150_000):
        total += i * i
    a = rng.standard_normal((16, 16))
    b = rng.standard_normal((40, 40))
    a, b = a @ a.T + 16 * np.eye(16), b @ b.T
    for _ in range(400):
        np.linalg.cholesky(a)
        np.linalg.eigvalsh(b)
        rng.standard_normal(64)
    return perf_counter() - start


def measure(session: Session, seconds: float) -> tuple:
    """End-to-end metrics, with tracing off.

    Each step samples a fresh CLI process and two warm calls, and every
    second step a cold import, so that all metrics see the same share of the
    host's slow and fast spells. A shared 2-vCPU host runs the same call up
    to 1.8x slower for spells of 5-30 s, so raw medians of 20 s runs spread
    by up to 38% between runs. A fixed reference task therefore runs after
    each sample, and every time metric is its median scaled by REF_NOMINAL_S
    over the run's median reference time. The scale cancels the host's
    speed, not a change in `suprec`; raw medians are printed beside it."""
    session.warm("warm-up")
    session.fresh("threads-2", "--threads", "2")
    raw = {"setup_s": [], "wall_s": [], "cpu_s": [], "peak_rss_mb": [], "run_s": [],
           "reference_s": []}

    def sample(name: str, value: float) -> None:
        raw[name].append(value)
        raw["reference_s"].append(reference_seconds())

    def step():
        if len(raw["wall_s"]) % 2 == 0:
            sample("setup_s", session.cold_import(False).wall_s)
        child = session.fresh("fresh")
        raw["cpu_s"].append(child.cpu_s)
        raw["peak_rss_mb"].append(child.peak_rss_mb)
        sample("wall_s", child.wall_s)
        for _ in range(2):
            sample("run_s", session.warm("warm"))

    repeat_for(seconds, step)
    scale = REF_NOMINAL_S / statistics.median(raw["reference_s"])
    metrics = {name: statistics.median(raw[name]) * scale
               for name in ("wall_s", "setup_s", "run_s", "cpu_s")}
    metrics["peak_rss_mb"] = statistics.median(raw["peak_rss_mb"])
    metrics["items_per_s"] = session.workload.work_items(session.config) / metrics["run_s"]
    return E2E_UNITS, metrics, {"raw": {name: summary(v) for name, v in raw.items()},
                                "scale": scale}


def measure_traced(session: Session, seconds: float) -> tuple:
    """Per-layer metrics from traced warm calls, plus the tracing overhead."""
    imports = [parse_importtime(session.cold_import(True).stderr)
               for _ in range(IMPORTTIME_REPEATS)]
    session.warm("warm-up")
    session.fresh("threads-2", "--threads", "2")
    untraced = []
    repeat_for(seconds / 2, lambda: untraced.append(session.warm("untraced")))

    tracer = Tracer()
    traced = []

    def step():
        tracer.reset()
        session.warm("traced")
        size = session.out.stat().st_size if session.out.is_file() else 0
        traced.append({**tracer.metrics(), "cli.output_bytes": size})

    tracer.install()
    try:
        repeat_for(seconds / 2, step)
        ranking = tracer.self_time_ranking()
    finally:
        tracer.remove()

    samples = {m: [s[m] for s in imports] for m in IMPORT_MODULES}
    samples.update({m: [s[m] for s in traced] for m in traced[0]})
    metrics = {m: statistics.median(v) for m, v in samples.items()}
    metrics["trace.overhead_ratio"] = metrics["cli.main_s"] / statistics.median(untraced) - 1.0
    units = {m: "s" if m.endswith("_s") else "count" for m in metrics}
    units["cli.output_bytes"] = "bytes"
    units["trace.overhead_ratio"] = "ratio"
    extra = {"raw": {m: summary(v) for m, v in samples.items()},
             "untraced_run_s": summary(untraced),
             "self_s_by_span_last_traced_call": dict(ranking)}
    return units, metrics, extra


def blas_info() -> dict:
    """BLAS build and its thread setting, read without changing it."""
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
                break
    env = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS")}
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads,
            "env": env}


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def manifest(args, cli_seed: int, config: dict) -> dict:
    import numpy
    import scipy
    return {"cpu": cpu_model(), "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_info(), "git_commit": git_commit(),
            "workload": args.workload, "seed": args.seed, "held_out": args.held_out,
            "cli_seed": cli_seed, "config": config}


def held_out_seed(seed: int) -> int:
    digest = hashlib.blake2b(f"suprec-bench-held-out:{seed}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="derive the inputs from a held-out stream of this seed")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63 or args.seconds <= 0:
        parser.error("need 0 <= seed < 2**63 and seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM, unwind so that the running child is killed and the work
    # directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "suprec" / "cli.py").is_file():
        print(f"bench: no suprec sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    cli_seed = held_out_seed(args.seed) if args.held_out else args.seed
    config = workload.make_config(random.Random(cli_seed))

    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as work:
        session = Session(workload, config, cli_seed, Path(work))
        try:
            measured = measure_traced if args.trace else measure
            units, metrics, extra = measured(session, args.seconds)
        except RuntimeError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2

    gate = session.gate
    details = {"manifest": manifest(args, cli_seed, config),
               "items": {workload.item: workload.work_items(config)},
               "fail_ratio": gate.failed / gate.attempted, "problems": gate.problems[:20],
               **extra}
    print(json.dumps(details, indent=1, sort_keys=True))
    result = {"correct": gate.failed == 0, "attempted": gate.attempted, "failed": gate.failed,
              "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}}
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
