"""susmine benchmark: ``susmine assess`` end to end on seeded inputs.

    python3 perfbench/run.py --workload gen-objects --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60 --trace 0

Inputs are generated from --seed and written to disk before any timing.
Each timed pass runs all of the workload's ``assess`` calls through
``susmine.cli.main`` in a fresh child interpreter (pass_child.py); passes
run one at a time until --seconds are spent. --trace 0 reports the
end-to-end metrics. --trace 1 alternates untraced and traced passes and
reports the per-layer metrics (see spans.py). Every call's outputs are
checked (see checks.py). The last line printed is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

#: Passes per untraced run, and untraced/traced pairs per traced run, at least.
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
SETUP_REPS = 9
#: Passes stop by this many seconds into a run, well inside the 180 s a run may take.
RUN_DEADLINE_S = 160.0

END_TO_END = (
    ("wall_s", "s"),
    ("events_per_s", "1/s"),
    ("assess_p50_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

#: Spans whose summed self time is reported as <span>.self_s.
SELF_TIMED = (
    "cli.main",
    "cli.build_parser",
    "ocel.parse_ocel",
    "annotations.parse_annotations",
    "annotations.bind_annotations",
    "inventory.direct_inventory",
    "scoping.scoped_impacts",
    "impact.characterize",
    "annotations.entries_for_flow",
    "allocation.apply_allocations",
    "model.events_related_to",
    "audit.pattern_audit",
    "dfg.build_dfg",
    "model.digest",
    "pipeline.activity_type_totals",
    "inventory.rollup_inventory",
    "report.write_outputs",
    "report.render_report",
    "report.build_report",
    "dfg.emit_dot",
)
#: Spans whose number of calls is reported as <span>.calls.
CALL_COUNTED = (
    "model.events_related_to",
    "annotations.entries_for_flow",
    "impact.characterize",
    "model.digest",
    "inventory.direct_inventory",
)
#: The four CSV projections, reported together as report.csv_self_s.
CSV_SPANS = ("report.inventory_to_csv", "report.impact_csv", "report.scoped_impact_csv", "report.ledger_csv")

PER_LAYER = (
    *((f"{name}.self_s", "s") for name in SELF_TIMED),
    ("report.csv_self_s", "s"),
    *((f"{name}.calls", "count") for name in CALL_COUNTED),
    *((count, "count") for count, _ in spans.COUNTS.values()),
    ("report.report_json_bytes", "B"),
    ("report.bytes_written", "B"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unaccounted_ratio", "ratio"),
)
#: Per-layer metrics that are counts; they must repeat exactly across passes.
EXACT = {name for name, unit in PER_LAYER if unit in ("count", "B")}

SETUP_SNIPPET = "import sys; sys.path.insert(0, sys.argv[1]); import susmine.cli; susmine.cli.build_parser()"


class BenchError(Exception):
    """The benchmark cannot produce a result: a pass crashed or overran."""


class Run:
    """One workload's inputs on disk, its passes and its outcome."""

    def __init__(self, workload: str, seed: int, deadline: float):
        builder = inputs.WORKLOADS[workload]
        self.workload = workload
        self.deadline = deadline
        self.cases = builder(seed)
        self.dir = WORK / f"{workload}-{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.calls = []
        for i, case in enumerate(self.cases):
            case_dir = self.dir / "in" / str(i)
            case_dir.mkdir(parents=True)
            (case_dir / "log.json").write_text(case.log_json, encoding="utf-8")
            (case_dir / "annotations.json").write_text(case.annotations_json, encoding="utf-8")
            self.calls.append([
                "assess", "--log", str(case_dir / "log.json"),
                "--annotations", str(case_dir / "annotations.json"),
                "--out", str(self.dir / "out" / str(i)),
            ])
        self.passes: list[dict] = []
        self.problems: list[str] = []

    def run_pass(self, trace: bool) -> dict:
        """Run one pass in a fresh child and fingerprint its outputs."""
        shutil.rmtree(self.dir / "out", ignore_errors=True)
        spec_path = self.dir / f"spec-{int(trace)}.json"
        result_path = self.dir / "result.json"
        spec_path.write_text(json.dumps({"src": str(SRC), "calls": self.calls, "trace": trace}))
        result_path.unlink(missing_ok=True)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "pass_child.py"), str(spec_path), str(result_path)],
                cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{self.workload}: pass did not finish before the run deadline") from None
        if proc.returncode != 0:
            raise BenchError(f"{self.workload}: pass exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        result = json.loads(result_path.read_text())
        result["trace"] = trace
        result["digests"], result["sizes"] = [], []
        for i in range(len(self.calls)):
            digest, sizes = checks.artifact_digest(self.dir / "out" / str(i))
            result["digests"].append(digest)
            result["sizes"].append(sizes)
        self.passes.append(result)
        return result

    def measure(self, seconds: float, trace: bool) -> None:
        modes = (False, True) if trace else (False,)
        minimum = MIN_TRACED_PAIRS if trace else MIN_PASSES
        start = time.perf_counter()
        rounds = 0
        while True:
            round_start = time.perf_counter()
            for mode in modes:
                self.run_pass(mode)
            rounds += 1
            now = time.perf_counter()
            if rounds >= minimum and now - start + (now - round_start) > seconds:
                return

    def failed_calls(self) -> int:
        """Calls that exited nonzero, raised, wrote outputs that differ from
        the final pass's, or whose final outputs fail the content checks."""
        final = self.passes[-1]["digests"]
        bad_final = set()
        for i, case in enumerate(self.cases):
            if final[i] is None:
                bad_final.add(i)
                continue
            report = json.loads((self.dir / "out" / str(i) / "report.json").read_text(encoding="utf-8"))
            found = checks.check_report(report, case)
            if found:
                bad_final.add(i)
                self.problems += [f"call {i}: {p}" for p in found[:5]]
        failed = 0
        for p in self.passes:
            self.problems += p["errors"]
            for i, code in enumerate(p["codes"]):
                if code != 0 or p["digests"][i] != final[i] or i in bad_final:
                    failed += 1
        return failed

    def end_to_end(self) -> tuple[dict, dict]:
        """Metric values, and notes on how each was taken."""
        walls = [p["wall_s"] for p in self.passes]
        latencies = [t for p in self.passes for t in p["latencies_s"]]
        wall = statistics.median(walls)
        events = sum(case.events for case in self.cases)
        setup = measure_setup()
        values = {
            "wall_s": wall,
            "events_per_s": events / wall,
            "assess_p50_s": statistics.median(latencies),
            "peak_rss_mb": statistics.median(p["maxrss_kb"] for p in self.passes) / 1024,
            "setup_s": statistics.median(setup),
        }
        notes = {
            "wall_s": f"median of {len(walls)} passes: " + ", ".join(f"{w:.3f}" for w in walls),
            "events_per_s": f"{events} events per pass",
            "assess_p50_s": f"{len(latencies)} samples",
            "peak_rss_mb": "median over passes of the child's ru_maxrss",
            "setup_s": f"median of {len(setup)} fresh interpreters",
        }
        return values, notes

    def per_layer(self) -> tuple[dict, dict]:
        traced = [p for p in self.passes if p["trace"]]
        plain = [p for p in self.passes if not p["trace"]]
        rows = [layer_values(p) for p in traced]
        values = {}
        for name in rows[0]:
            seen = [row[name] for row in rows]
            if name in EXACT and len(set(seen)) > 1:
                self.problems.append(f"{name} differs between traced passes: {seen}")
            values[name] = seen[0] if name in EXACT else statistics.median(seen)
        values["trace.overhead_ratio"] = values["trace.wall_s"] / statistics.median(p["wall_s"] for p in plain)
        values = {name: values[name] for name, _ in PER_LAYER}
        notes = {"trace.wall_s": f"median of {len(traced)} traced passes: "
                                 + ", ".join(f"{p['wall_s']:.3f}" for p in traced),
                 "trace.overhead_ratio": f"against the median of {len(plain)} untraced passes: "
                                         + ", ".join(f"{p['wall_s']:.3f}" for p in plain)}
        return values, notes


def layer_values(result: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    names, recorded = result["names"], result["spans"]
    totals = spans.self_times(names, recorded)
    values = {f"{name}.self_s": totals.get(name, (0.0, 0))[0] for name in SELF_TIMED}
    values.update({f"{name}.calls": totals.get(name, (0.0, 0))[1] for name in CALL_COUNTED})
    values["report.csv_self_s"] = sum(totals.get(name, (0.0, 0))[0] for name in CSV_SPANS)
    values.update({count: result["counts"].get(count, 0) for count, _ in spans.COUNTS.values()})
    values["report.report_json_bytes"] = sum(s.get("report.json", 0) for s in result["sizes"])
    values["report.bytes_written"] = sum(sum(s.values()) for s in result["sizes"])
    values["trace.wall_s"] = result["wall_s"]
    values["trace.unaccounted_ratio"] = totals[spans.ROOT][0] / spans.root_time(names, recorded)
    return values


def measure_setup() -> list[float]:
    """Wall time for a fresh interpreter to import susmine.cli and build its
    parser, after one warm-up so compiled bytecode exists."""
    samples = []
    for _ in range(SETUP_REPS + 1):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC)], cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=60)
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"importing susmine.cli failed:\n{proc.stderr[-4000:]}")
    return samples[1:]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int, int, bool]:
    run = Run(workload, seed, time.monotonic() + RUN_DEADLINE_S)
    try:
        run.measure(seconds, trace)
        failed = run.failed_calls()
        values, notes = run.per_layer() if trace else run.end_to_end()
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    units = dict(PER_LAYER if trace else END_TO_END)
    attempted = len(run.calls) * len(run.passes)
    print(f"{workload} (seed {seed}, {'traced' if trace else 'untraced'}): "
          f"{len(run.passes)} passes of {len(run.calls)} assess calls")
    for name, value in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:34} {value:.6g} {units[name]}{note}")
    print(f"  {'fail_ratio':34} {failed / attempted:.6g} ({failed} of {attempted} calls)")
    for problem in run.problems[:20]:
        print(f"  problem: {problem}", file=sys.stderr)
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    return metrics, attempted, failed, not run.problems and failed == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*inputs.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "susmine" / "cli.py").is_file():
        print(f"error: no susmine sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workloads = list(inputs.WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed, correct = {}, 0, 0, True
    for workload in workloads:
        try:
            m, a, f, c = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + name: value for name, value in m.items()})
        attempted, failed, correct = attempted + a, failed + f, correct and c
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
