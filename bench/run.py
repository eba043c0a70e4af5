"""revc benchmark: compile, verify and circuit-resource metrics per workload.

    python3 bench/run.py --workload rev-corpus --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1      # every workload, each in its own process

Run it from the root of a revc checkout; revc is imported from ./src, never
from an installed copy.  Each workload runs in one single-threaded process.
Setup (import revc, read or generate the inputs) is repeated SETUP_REPEATS
times and timed.  Then whole passes over the workload's jobs run until
`--seconds` would be exceeded, at least MIN_PASSES of them.

Every reported time is scaled by a machine-speed probe (see speed.py):
it is in seconds on a machine where the probe takes speed.REFERENCE_S.
The report file and the screen also give the unscaled medians.

With `--trace 0` every pass is untraced and the end-to-end metrics are
reported.  With `--trace 1` untraced and traced passes alternate, and the
per-layer metrics are reported from the spans of the traced passes.
Per-job rows, per-pass totals and the spans go to bench/out/.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import speed
from tracing import Tracer, duration, self_times
from workloads import WORKLOADS, JobState, Pipeline, add_counts

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CORPUS = SRC / "revc" / "corpus"
OUT = BENCH / "out"
MODULES = ("frontend", "blif", "mdd", "scheduler", "emitter", "circuit")
SETUP_REPEATS = 5
MIN_PASSES = 2

END_TO_END = {
    "setup_s": "s", "compile_s": "s", "verify_s": "s", "peak_rss_mib": "MiB",
    "toffoli_count": "count", "gate_count": "count", "qubit_count": "count",
    "ok_ratio": "ratio",
}
# span name -> per-layer time metric (self time summed over a pass's jobs)
SPAN_METRICS = {
    "frontend.parse": "frontend.parse_s", "frontend.flatten": "frontend.flatten_s",
    "blif.parse": "blif.parse_s", "blif.lower": "blif.lower_s",
    "mdd.build": "mdd.build_s", "scheduler.plan": "scheduler.plan_s",
    "scheduler.budget_search": "scheduler.budget_search_s",
    "emitter.emit": "emitter.emit_s", "circuit.verify": "circuit.verify_s",
}
COUNT_METRICS = (
    "frontend.stmts", "frontend.inplace_blocks", "frontend.block_body_stmts",
    "frontend.slots", "blif.covers", "blif.cubes", "blif.xor_groups",
    "mdd.nodes", "mdd.read_edges", "mdd.mutation_edges", "scheduler.actions",
    "scheduler.eager_cleaned", "scheduler.unclean", "scheduler.checkpoints",
    "circuit.samples",
)
PER_LAYER = {
    **{name: "s" for name in SPAN_METRICS.values()},
    **{name: "count" for name in COUNT_METRICS},
    "scheduler.clean_ratio": "ratio", "emitter.gates_per_s": "1/s",
    "trace.overhead_s": "s",
}


# -- setup ------------------------------------------------------------------


def forget_revc() -> None:
    for name in [n for n in sys.modules if n == "revc" or n.startswith("revc.")]:
        del sys.modules[name]


def import_revc() -> SimpleNamespace:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    m = SimpleNamespace(**{n: importlib.import_module(f"revc.{n}") for n in MODULES})
    if not Path(m.frontend.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: revc was imported from {m.frontend.__file__}, "
                         f"not from {SRC}")
    return m


def setup(workload, seed: int):
    """Import revc and make the inputs, SETUP_REPEATS times; returns the last
    import, its inputs, and the scaled and unscaled seconds of each
    repetition."""
    if not (SRC / "revc" / "__init__.py").is_file():
        raise SystemExit(f"error: no revc sources under {SRC}")
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        forget_revc()
        before = speed.probe()
        t0 = time.perf_counter()
        m = import_revc()
        texts = workload.make_inputs(seed, CORPUS)
        raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] * speed.factor(before, speed.probe()))
    return m, texts, {"scaled": scaled, "raw": raw}


# -- passes -----------------------------------------------------------------


def run_pass(pipe: Pipeline, states: list[JobState], index: int,
             tracer: Tracer | None) -> dict:
    """Run every job once.  Speed probes run before each job, between its
    compile and its verify, and after it; the compile time is scaled by the
    first two, the verify time by the last two.  Returns the pass's scaled
    compile and verify seconds, the unscaled ones under `raw`, each job's
    (compile, verify) scale factors and, when traced, the IR and plan
    counters."""
    totals = {"index": index, "compile_s": 0.0, "verify_s": 0.0,
              "raw": {"compile_s": 0.0, "verify_s": 0.0}, "factors": []}
    counts: dict = {}
    if tracer is not None:
        tracer.pass_index = index
    before = speed.probe()
    for i, st in enumerate(states):
        job = st.job
        times: dict = {}
        middle = None
        try:
            if tracer is None:
                t0 = time.perf_counter()
                source, flat = pipe.load(job)
                t1 = time.perf_counter()
                plan, circ, budget = pipe.compile(job, flat)
                t2 = time.perf_counter()
                middle = speed.probe()
                t3 = time.perf_counter()
                report = pipe.verify(flat, circ)
                t4 = time.perf_counter()
                times = {"load": t1 - t0, "compile_flat": t2 - t1,
                         "compile_s": t2 - t0, "verify_s": t4 - t3}
            else:
                tracer.job = i
                with tracer.span("job") as job_span:
                    source, flat = pipe.load(job, tracer)
                    plan, circ, budget = pipe.compile_traced(job, flat, tracer, counts)
                    with tracer.span("probe") as probe_span:
                        middle = speed.probe()
                    with tracer.span("circuit.verify") as verify_span:
                        report = pipe.verify(flat, circ)
                times = {"compile_s": duration(job_span) - duration(probe_span)
                         - duration(verify_span),
                         "verify_s": duration(verify_span)}
                add_counts(counts, {**pipe.source_counts(job, source, flat),
                                    "circuit.samples": report.samples})
        except Exception as exc:  # a failing job is counted, the run goes on
            fail(st, index, exc)
        after = speed.probe()
        middle = middle or after
        factors = (speed.factor(before, middle), speed.factor(middle, after))
        before = after
        totals["factors"].append(factors)
        for k, v in times.items():
            scaled = v * factors[k == "verify_s"]
            if k in totals["raw"]:
                totals["raw"][k] += v
                totals[k] += scaled
            if tracer is None:
                st.add_time(k, scaled)
        if times:
            try:
                pipe.check(st, source, flat, plan, circ, report, budget)
            except Exception as exc:
                fail(st, index, exc)
    totals["counts"] = counts
    return totals


def fail(st: JobState, index: int, exc: Exception) -> None:
    st.failures.append(f"pass {index}: {type(exc).__name__}: {exc}")
    print(f"job {st.job.label()} failed in pass {index}:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def measure(workload, pipe: Pipeline, seconds: float, trace: bool):
    """Passes until the next one would end after `seconds` (at least
    MIN_PASSES).  With `trace`, untraced and traced passes alternate."""
    states = [JobState(job) for job in workload.jobs]
    tracer = Tracer() if trace else None
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    while True:
        use_tracer = trace and len(plain) > len(traced)
        gc.collect()  # every pass starts from a collected heap
        index = len(plain) + len(traced)
        result = run_pass(pipe, states, index, tracer if use_tracer else None)
        (traced if use_tracer else plain).append(result)
        done = index + 1
        elapsed = time.perf_counter() - start
        if done >= MIN_PASSES and elapsed * (done + 1) / done > seconds:
            break
    return states, plain, traced, tracer


# -- metrics ------------------------------------------------------------------


def summary(values: list[float], raw: list[float] | None = None) -> dict:
    """Median, sample count, the highest percentile with at least ten
    samples beyond it (none below 40 samples), and the unscaled median."""
    out = {"median": statistics.median(values), "n": len(values)}
    if raw:
        out["unscaled_median"] = statistics.median(raw)
    for p in (99.9, 99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            out["tail"] = {"percentile": p, "value": cuts[round(p * 10) - 1]}
            break
    return out


def end_to_end(states, plain, setup_times) -> dict:
    failed = sum(1 for st in states if st.failures)
    rows = [st.row for st in states]
    return {
        "setup_s": summary(setup_times["scaled"], setup_times["raw"]),
        "compile_s": summary([p["compile_s"] for p in plain],
                             [p["raw"]["compile_s"] for p in plain]),
        "verify_s": summary([p["verify_s"] for p in plain],
                            [p["raw"]["verify_s"] for p in plain]),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "toffoli_count": sum(r.get("toffoli", 0) for r in rows),
        "gate_count": sum(r.get("gates", 0) for r in rows),
        "qubit_count": sum(r.get("width", 0) for r in rows),
        "ok_ratio": (len(states) - failed) / len(states),
    }


def per_layer(states, plain, traced, tracer) -> dict:
    selfs = self_times(tracer.spans)
    by_pass = {t["index"]: dict.fromkeys(SPAN_METRICS, 0.0) for t in traced}
    factors = {t["index"]: t["factors"] for t in traced}
    for s in tracer.spans:
        compile_f, verify_f = factors[s["pass"]][s["job"]]
        scaled = selfs[s["id"]] * (verify_f if s["name"] == "circuit.verify" else compile_f)
        states[s["job"]].add_time(s["name"], scaled)
        if s["name"] in SPAN_METRICS:
            by_pass[s["pass"]][s["name"]] += scaled
    passes = [by_pass[t["index"]] for t in traced]
    counts = traced[-1]["counts"]
    out = {metric: summary([p[span] for p in passes])
           for span, metric in SPAN_METRICS.items()}
    out.update({name: counts.get(name, 0) for name in COUNT_METRICS})
    cleaned, unclean = counts.get("scheduler.eager_cleaned", 0), counts.get("scheduler.unclean", 0)
    out["scheduler.clean_ratio"] = cleaned / (cleaned + unclean) if cleaned + unclean else 0.0
    out["emitter.gates_per_s"] = summary(
        [t["counts"].get("emitter.gates", 0) / p["emitter.emit"]
         for t, p in zip(traced, passes) if p["emitter.emit"] > 0] or [0.0])
    out["trace.overhead_s"] = (statistics.median(t["compile_s"] for t in traced)
                               - statistics.median(p["compile_s"] for p in plain))
    return out


def value_of(entry) -> float:
    return entry["median"] if isinstance(entry, dict) else entry


def evaluate(workload, seed: int, seconds: float, trace: bool):
    """Set up, measure and check one workload.  Returns the result line and
    the full report (metric details, per-job rows, passes, spans)."""
    m, texts, setup_times = setup(workload, seed)
    pipe = Pipeline(m, texts, seed)
    states, plain, traced, tracer = measure(workload, pipe, seconds, trace)
    if trace:
        detail, units = per_layer(states, plain, traced, tracer), PER_LAYER
    else:
        detail, units = end_to_end(states, plain, setup_times), END_TO_END
    rows = []
    for st in states:
        medians = {k: statistics.median(v) for k, v in st.stage_s.items()}
        rows.append({"job": st.job.label(), **st.row, **st.job.describe(),
                     "failures": st.failures, "stage_median_s": medians})
    failed = sum(1 for st in states if st.failures)
    result = {"correct": failed == 0, "attempted": len(states), "failed": failed,
              "metrics": {k: {"value": value_of(detail[k]), "unit": units[k]}
                          for k in units}}
    report = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": trace, "why": workload.why, "setup_s": setup_times,
              "passes": {"untraced": plain, "traced": traced},
              "metrics": detail, "rows": rows,
              "spans": tracer.spans if tracer else []}
    return result, report


def print_report(report: dict, out_file: Path) -> None:
    print(f"# {report['workload']}")
    units = PER_LAYER if report["trace"] else END_TO_END
    for k, unit in units.items():
        entry = report["metrics"][k]
        extra = ""
        if isinstance(entry, dict):
            extra = f"  (median of {entry['n']}"
            if "tail" in entry:
                extra += f", p{entry['tail']['percentile']:g} {entry['tail']['value']:.6g}"
            if "unscaled_median" in entry:
                extra += f", unscaled {entry['unscaled_median']:.6g}"
            extra += ")"
        print(f"{k:28s} {value_of(entry):14.6g} {unit}{extra}")
    print(f"{'job':44s} {'toffoli':>8s} {'width':>6s} {'gates':>8s} {'samples':>7s}")
    for r in report["rows"]:
        print(f"{r['job']:44s} {r.get('toffoli', '-'):>8} {r.get('width', '-'):>6} "
              f"{r.get('gates', '-'):>8} {r.get('samples', '-'):>7}"
              + ("  FAILED" if r["failures"] else ""))
    print(f"rows, passes and spans: {out_file.relative_to(ROOT)}")


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process."""
    results, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()) and not status,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results}))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result, report = evaluate(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace))
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_file, "w") as f:
        json.dump(report, f, indent=1)
    print_report(report, out_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
