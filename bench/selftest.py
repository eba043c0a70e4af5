"""Self-test of the benchmark on a reduced configuration.

    python3 bench/selftest.py

Runs one small workload that covers every job kind (.rev under bennett and
eager, seeded and bundled BLIF with and without XOR grouping, incremental
with a feasible and an infeasible budget) through the same code as run.py,
once untraced and once traced, and checks that

  - BENCHMARK.json names the workloads run.py runs, and every metric it
    names is reported, with its unit;
  - every job passes its correctness gate;
  - spans nest: a child lies inside its parent, in the same job and pass;
  - the self times of a job's spans sum to the job span's duration;
  - run.py exits non-zero, printing no result, in a directory that holds
    only BENCHMARK.json and the benchmark's files.

Prints each failed check and exits 1 if there is any.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
from tracing import duration, self_times
from workloads import WORKLOADS, Job, Workload

SEED = 7
SMALL = Workload(
    "selftest", "reduced configuration of every job kind",
    (Job("adder_ripple.rev", "bennett", (("n", 8),)),
     Job("md5.rev", "eager", (("rounds", 1),)),
     Job("gen_deep.blif", "eager", optimize_xor=True),
     Job("gen_wide.blif", "bennett"),
     Job("majority.blif", "eager", optimize_xor=True),
     Job("sha2.rev", "incremental", (("rounds", 1),), budget=500),
     Job("sha2.rev", "incremental", (("rounds", 1),), budget=400,
         infeasible=True)),
    covers=12)

class Checks:
    def __init__(self) -> None:
        self.problems: list[str] = []

    def __call__(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def check_metrics(check: Checks, result: dict, declared: list[dict], kind: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == want, f"{kind} metrics {got} differ from BENCHMARK.json {want}")
    for k, v in result["metrics"].items():
        check(isinstance(v["value"], (int, float)), f"{k} is not a number")


def check_spans(check: Checks, spans: list[dict]) -> None:
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)
    subtree: dict[int, float] = {}
    for s in spans:
        root = s
        while root["parent"] is not None:
            parent = by_id[root["parent"]]
            check(parent["job"] == s["job"] and parent["pass"] == s["pass"],
                  f"span {s['id']} and ancestor {parent['id']} differ in job or pass")
            root = parent
        if s["parent"] is not None:
            p = by_id[s["parent"]]
            check(p["start"] <= s["start"] <= s["end"] <= p["end"],
                  f"span {s['name']} {s['id']} is not inside {p['name']} {p['id']}")
        check(root["name"] == "job", f"span {s['name']} {s['id']} has no job root")
        subtree[root["id"]] = subtree.get(root["id"], 0.0) + selfs[s["id"]]
    jobs = [s for s in spans if s["name"] == "job"]
    check(bool(jobs), "no job spans were recorded")
    for j in jobs:
        check(abs(subtree[j["id"]] - duration(j)) < 1e-6,
              f"self times of job span {j['id']} sum to {subtree[j['id']]}, "
              f"not its duration {duration(j)}")


def check_bare_directory(check: Checks) -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for f in run.BENCH.glob("*.py"):
        shutil.copy(f, bare / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "netlist", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    shutil.rmtree(bare)
    check(proc.returncode != 0, "run.py succeeded without the revc sources")
    check('"correct"' not in proc.stdout, "run.py printed a result without the revc sources")


def main() -> int:
    check = Checks()
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in declared["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result, report = run.evaluate(SMALL, SEED, 0, trace)
        check(result["correct"] and result["failed"] == 0,
              f"{kind} run failed: {[r['failures'] for r in report['rows']]}")
        check(result["attempted"] == len(SMALL.jobs), "not every job was attempted")
        check_metrics(check, result, declared[kind], kind)
        if trace:
            check_spans(check, report["spans"])
        infeasible = report["rows"][-1]
        check(infeasible["scheduled_budget"] > infeasible["budget"],
              "the infeasible job was not scheduled at a larger minimum")
    check_bare_directory(check)
    for p in check.problems:
        print(f"FAIL: {p}")
    print("selftest:", "FAILED" if check.problems else "ok")
    return 1 if check.problems else 0


if __name__ == "__main__":
    sys.exit(main())
