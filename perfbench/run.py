"""Benchmark of the delpezzo classifier: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload reproduce_150 --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from ./src.
Every iteration is a fresh interpreter (child.py), timed from outside with
time.perf_counter and os.wait4's rusage, and its output is checked against
perfbench/golden/.  With --trace 0 the last stdout line holds the
end-to-end metrics (medians over the iterations that fit in --seconds);
with --trace 1 it holds the per-layer metrics of one traced run.  The
whole record, with the environment, goes to .perfbench-out/.  NOTES.md
says why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import inputs
from tracing import END, NAME, PARENT, START, totals

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
DEADLINE_S = 170  # every run must end within 180 s
# Set-up time drifts by up to 50% over a few seconds on a shared machine, so
# its samples are spread out: half before the iterations, half after, paced.
SETUP_RUNS = 10
SETUP_PAUSE_S = 0.15
INDICES = range(1, 11)

TIMED_LAYERS = [
    "search.oracle", "search.structured", "search.solve", "search.instances",
    "diophantine.solve", "diophantine.box", "records.build",
    "topology.diffeo_type", "topology.characteristic_divisor", "topology.milnor_number",
    "moduli.moduli_report", "klt.certify_KE", "catalog.find_series_match",
    "weights.WeightSystem", "weights.Candidate", "weights.is_well_formed",
    "klt.gate_check", "quasismooth.is_quasismooth", "catalog.load", "catalog.diff",
    "serialize.to_json", "serialize.from_json",
]
COUNTS = {
    "search.oracle_w_max": "weight",
    "search.oracle_tuples": "tuples-computed",
    "search.oracle_records": "records",
    "search.structured_w_max": "weight",
    "search.branches": "branches",
    "search.branches_empty": "branches",
    "search.branches_finite": "branches",
    "search.branches_line": "branches",
    "search.branches_plane": "branches",
    "search.instances": "instances",
    "search.admitted": "records",
    "records.built": "records",
    "probe.candidates": "candidates",
    "classify.inputs": "inputs",
    "weights.rejected_nonprimitive": "inputs",
    "weights.rejected_degree": "inputs",
    "weights.rejected_not_well_formed": "inputs",
    "klt.rejected_gate": "inputs",
    "quasismooth.rejected": "inputs",
    "catalog.diff_records": "records",
    "serialize.json_bytes": "bytes",
    "serialize.records": "records",
}


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()


def spawn(args, log, deadline: Deadline) -> dict:
    """Run child.py in a fresh interpreter; wall, CPU and peak RSS from outside."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("DELPEZZO_MAX_WEIGHT", None)
    with open(log, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *map(str, args)],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=err, stderr=err,
        )
        killer = threading.Timer(max(deadline.left(), 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode < 0:
        raise SystemExit(f"perfbench: {args[0]} killed at the deadline; see {log}")
    return {
        "rc": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }


class Workload:
    """Prepares a seed's inputs and checks one iteration's output."""

    name = ""

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.inputs = work / "inputs.txt"
        self.output = work / "output"

    def check(self, rc: int) -> tuple[int, int, int, list[str]]:
        """(items, attempted, failed, problems) of the iteration just run."""
        raise NotImplementedError

    def text(self) -> str:
        return self.output.read_text() if self.output.exists() else ""


class Reproduce150(Workload):
    name = "reproduce_150"

    def __init__(self, seed, work):
        super().__init__(seed, work)  # the published run: the seed changes nothing
        self.expected = checks.load_golden("reproduce_150.txt")
        self.records = len(checks.load_golden("structured_600.json")["oracle_150_keys"])

    def check(self, rc):
        problems = checks.check_reproduce(rc, self.text(), self.expected)
        return self.records, 1, int(bool(problems)), problems


class Structured600(Workload):
    name = "structured_600"

    def __init__(self, seed, work):
        super().__init__(seed, work)  # deterministic: the seed changes nothing
        self.golden = checks.load_golden("structured_600.json")
        from delpezzo import serialize

        self.round_trip = lambda text: serialize.to_json(serialize.from_json(text))

    def check(self, rc):
        problems = checks.check_structured(rc, self.text(), self.golden, self.round_trip)
        return self.golden["records"], 1, int(bool(problems)), problems


class ClassifyMix(Workload):
    name = "classify_mix"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.golden = checks.load_golden("classify_mix.json.gz")
        pool = self.golden["pool"]
        univ = inputs.universe(pool)
        if inputs.universe_digest(univ) != self.golden["universe"]["sha256"]:
            raise SystemExit("perfbench: random universe differs from the golden one")
        self.stream = inputs.stream(seed, len(pool))
        inputs.write(self.inputs, inputs.resolve(self.stream, pool, univ))

    def check(self, rc):
        n = len(self.stream)
        if rc != 0:
            return n, n, n, [f"exit code {rc}"]
        failed, problems = checks.check_classify(self.stream, self.text().splitlines(), self.golden)
        return n, n, failed, problems


WORKLOADS = {w.name: w for w in (Reproduce150, Structured600, ClassifyMix)}


def iterate(wl: Workload, deadline: Deadline, tag: str, trace=None) -> dict:
    args = [wl.name, wl.inputs, wl.output] + ([trace] if trace else [])
    if wl.output.exists():
        wl.output.unlink()
    sample = spawn(args, wl.work / f"{tag}.log", deadline)
    sample["items"], sample["attempted"], sample["failed"], sample["problems"] = wl.check(
        sample["rc"]
    )
    sample["items_per_s"] = sample["items"] / sample["wall_s"]
    return sample


def setup_times(wl: Workload, deadline: Deadline, n: int) -> list[float]:
    """Wall times of fresh interpreters doing import delpezzo + loading the tables."""
    out = []
    for _ in range(n):
        time.sleep(SETUP_PAUSE_S)
        out.append(spawn(["setup", "-", "-"], wl.work / "setup.log", deadline)["wall_s"])
    return out


def measure(wl: Workload, seconds: int, deadline: Deadline) -> tuple[dict, dict]:
    setup = setup_times(wl, deadline, SETUP_RUNS // 2)
    samples = []
    start = time.perf_counter()
    while True:
        samples.append(iterate(wl, deadline, f"iteration{len(samples)}"))
        typical = statistics.median(s["wall_s"] for s in samples)
        if time.perf_counter() - start + typical > min(seconds, deadline.left() - 5):
            break
    setup += setup_times(wl, deadline, SETUP_RUNS - len(setup))
    def med(key):
        return statistics.median(s[key] for s in samples)

    metrics = {
        "wall_s": (med("wall_s"), "s"),
        "cpu_s": (med("cpu_s"), "s"),
        "items_per_s": (med("items_per_s"), "1/s"),
        "peak_rss_mb": (med("peak_rss_mb"), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    return metrics, {"samples": samples, "setup_s": setup}


def layer_metrics(trace: dict, untraced_wall: float, traced_wall: float) -> dict:
    spans, counts = trace["spans"], trace["counts"]
    seconds, calls = totals(spans)
    m = {f"{name}_s": (seconds.get(name, 0.0), "s") for name in TIMED_LAYERS}
    for I in INDICES:
        m[f"search.oracle_s.I{I}"] = (seconds.get(f"search.oracle.I{I}", 0.0), "s")
    for name, unit in COUNTS.items():
        m[name] = (counts.get(name, 0), unit)
    def ratio(a, b):
        return a / b if b else 0.0

    m["search.oracle_yield"] = (
        ratio(counts["search.oracle_records"], counts["search.oracle_tuples"]), "records/tuple"
    )
    m["search.admit_ratio"] = (
        ratio(counts.get("search.admitted", 0), counts.get("search.instances", 0)),
        "records/instance",
    )
    m["records.build_us_per_record"] = (
        ratio(seconds.get("records.build", 0.0) * 1e6, calls.get("records.build", 0)),
        "us/record",
    )
    roots = [s for s in spans if s[PARENT] is None]
    probes = sum(s[END] - s[START] for s in roots if s[NAME] == "probes")
    overhead = traced_wall - probes - untraced_wall
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.traced_wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (overhead, "s")
    m["trace.overhead_ratio"] = (overhead / untraced_wall, "s/s")
    m["trace.harness_self_s"] = (
        sum(seconds[n] for n in ("workload", "probes") if n in seconds), "s"
    )
    m["trace.spans"] = (len(spans), "spans")
    return m


def traced_run(wl: Workload, deadline: Deadline) -> tuple[dict, dict]:
    untraced = iterate(wl, deadline, "untraced")
    trace_path = wl.work / "spans.json"
    trace_path.unlink(missing_ok=True)
    traced = iterate(wl, deadline, "traced", trace=trace_path)
    if not trace_path.exists():
        raise SystemExit(f"perfbench: the traced run wrote no spans; see {wl.work}/traced.log")
    trace = json.loads(trace_path.read_text())
    if trace["counts"].get("probe.mismatch"):
        traced["failed"] += 1
        traced["problems"].append("search probe admitted a different number of records")
    metrics = layer_metrics(trace, untraced["wall_s"], traced["wall_s"])
    return metrics, {"samples": [untraced, traced], "counts": trace["counts"]}


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else None


def environment() -> dict:
    import numpy

    model = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    src = hashlib.sha256()
    for path in sorted((SRC / "delpezzo").rglob("*")):
        if path.suffix in (".py", ".json"):
            src.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest(),
        "loadavg_at_start": os.getloadavg(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    deadline = Deadline(DEADLINE_S)
    if not (SRC / "delpezzo" / "__init__.py").is_file():
        print(f"perfbench: no src/delpezzo under {ROOT}; run from a checkout's root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment()
    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, work)
    if args.trace:
        metrics, detail = traced_run(wl, deadline)
    else:
        metrics, detail = measure(wl, args.seconds, deadline)
    samples = detail["samples"]
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    for s in samples:
        for problem in s["problems"]:
            print(f"perfbench: {wl.name}: {problem}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"args": vars(args), "env": env, **detail, "result": result}
    (work / "result.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    print("env: " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
