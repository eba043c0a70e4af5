"""Workloads, jobs, and the pipeline each job runs through revc.

A job is one (input, params, strategy, budget) tuple.  It runs the way the
CLI does: load the input (`frontend.parse` + `frontend.flatten` for `.rev`,
`blif.parse_blif` + `blif.lower` for `.blif`), build the circuit with
`emitter.compile_flat`, and check it with `circuit.verify` on 200 samples.
The traced variant makes the same calls one stage at a time so that each
stage gets its own span.
"""

from __future__ import annotations

import hashlib
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import netgen

VERIFY_SAMPLES = 200
REFERENCE_INPUTS = 4


@dataclass(frozen=True)
class Job:
    input: str  # file name; the suffix picks the frontend
    strategy: str
    params: tuple = ()  # ((name, int), ...) for .rev inputs
    optimize_xor: bool = False
    budget: int | None = None
    infeasible: bool = False  # the budget must raise BudgetError

    @property
    def is_blif(self) -> bool:
        return self.input.endswith(".blif")

    def describe(self) -> dict:
        return {"input": self.input, "params": dict(self.params),
                "optimize_xor": self.optimize_xor, "strategy": self.strategy,
                "budget": self.budget}

    def label(self) -> str:
        bits = [self.input] + [f"{k}={v}" for k, v in self.params]
        if self.is_blif:
            bits.append("xor" if self.optimize_xor else "or")
        bits.append(self.strategy)
        if self.budget is not None:
            bits.append(f"budget={self.budget}")
        return " ".join(bits)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: tuple
    covers: int = 0  # covers per seeded netlist; 0: no generated inputs

    def make_inputs(self, seed: int, corpus: Path) -> dict[str, str]:
        texts = {}
        for job in self.jobs:
            if job.input not in texts and (corpus / job.input).is_file():
                texts[job.input] = (corpus / job.input).read_text()
        if self.covers:
            texts.update(netgen.netlists(seed, self.covers))
        return texts


def _pairs(inputs, strategies):
    return tuple(Job(name, s, params=tuple(sorted(p.items())))
                 for name, p in inputs for s in strategies)


def _netlist_jobs(names):
    return tuple(Job(n, s, optimize_xor=x)
                 for n in names for x in (False, True) for s in ("eager", "bennett"))


WORKLOADS = {w.name: w for w in (
    Workload(
        "rev-corpus",
        "the paper's resource-table programs: the only inputs with in-place "
        "blocks and enough statements for eager scheduling cost to show; "
        "eager/Bennett pairs put plan quality into the resource sums",
        _pairs([("adder_ripple.rev", {"n": 40}), ("adder_select.rev", {}),
                ("sha2.rev", {"rounds": 16}), ("md5.rev", {"rounds": 2})],
               ("bennett", "eager"))),
    Workload(
        "netlist",
        "seeded multi-level BLIF plus the bundled netlists, with and without "
        "XOR grouping: bypasses the .rev frontend, every value is cleaned "
        "eagerly, emission dominates compile time",
        _netlist_jobs(["gen_deep.blif", "gen_wide.blif", "example3.blif",
                       "majority.blif", "mux_net.blif"]),
        covers=120),
    Workload(
        "incremental-budget",
        "incremental checkpointing under qubit budgets, one infeasible: the "
        "scheduler drives the emitter as an oracle and searches the minimal "
        "budget; bypasses eager and BLIF",
        (Job("sha2.rev", "incremental", (("rounds", 8),), budget=900),
         Job("sha2.rev", "incremental", (("rounds", 8),), budget=1200),
         Job("sha2.rev", "incremental", (("rounds", 4),), budget=672),
         Job("md5.rev", "incremental", (("rounds", 2),), budget=800),
         Job("sha2.rev", "incremental", (("rounds", 4),), budget=600,
             infeasible=True))),
)}


class JobFailure(Exception):
    pass


@dataclass
class JobState:
    """Everything the benchmark learns about one job over a run."""
    job: Job
    failures: list = field(default_factory=list)
    first_hash: str | None = None
    referenced: bool = False
    row: dict = field(default_factory=dict)
    stage_s: dict = field(default_factory=dict)  # stage -> [seconds per pass]

    def add_time(self, stage: str, seconds: float) -> None:
        self.stage_s.setdefault(stage, []).append(seconds)


def _planner(m, strategy: str):
    return {"bennett": lambda g, budget: m.scheduler.bennett_cleanup(g),
            "eager": lambda g, budget: m.scheduler.eager_cleanup(g),
            "incremental": m.scheduler.incremental_cleanup}[strategy]


class Pipeline:
    """Runs jobs against one imported copy of revc (`m` holds its modules)."""

    def __init__(self, m, texts: dict[str, str], seed: int):
        self.m = m
        self.texts = texts
        self.seed = seed
        self._references: dict = {}

    # -- loading ------------------------------------------------------------

    def load(self, job: Job, tracer=None):
        """(source object, flat program): the AST or netlist, lowered."""
        m, text = self.m, self.texts[job.input]
        if job.is_blif:
            with _span(tracer, "blif.parse"):
                net = m.blif.parse_blif(text)
            with _span(tracer, "blif.lower"):
                return net, m.blif.lower(net, optimize=job.optimize_xor)
        with _span(tracer, "frontend.parse"):
            ast = m.frontend.parse(text, params=dict(job.params) or None)
        with _span(tracer, "frontend.flatten"):
            return ast, m.frontend.flatten(ast)

    def _minimum_budget(self, job: Job, attempt) -> int:
        try:
            attempt()
        except self.m.scheduler.BudgetError as exc:
            if exc.minimum is None or exc.minimum <= job.budget:
                raise JobFailure(f"budget {job.budget} reported minimum "
                                 f"{exc.minimum}") from exc
            return exc.minimum
        raise JobFailure(f"budget {job.budget} did not raise BudgetError")

    # -- untraced: exactly the CLI's calls ----------------------------------

    def compile(self, job: Job, flat):
        """(plan, circuit, budget scheduled)."""
        compile_flat = self.m.emitter.compile_flat
        budget = job.budget
        if job.infeasible:
            budget = self._minimum_budget(
                job, lambda: compile_flat(flat, job.strategy, qubit_budget=job.budget))
        plan, circ = compile_flat(flat, job.strategy, qubit_budget=budget)
        return plan, circ, budget

    # -- traced: the same calls, one stage per span -------------------------

    def compile_traced(self, job: Job, flat, tracer, counts: dict):
        m = self.m
        plan_fn = _planner(m, job.strategy)
        budget = job.budget
        if job.infeasible:
            g = self._build_mdd(flat, tracer, counts)
            with tracer.span("scheduler.budget_search"):
                budget = self._minimum_budget(job, lambda: plan_fn(g, job.budget))
        g = self._build_mdd(flat, tracer, counts)
        with tracer.span("scheduler.plan"):
            plan = plan_fn(g, budget)
        with tracer.span("emitter.emit"):
            circ = m.emitter.emit(plan)
        eager = sum(1 for d in plan.dispositions.values()
                    if d == m.scheduler.CLEANED_EAGERLY)
        add_counts(counts, {"scheduler.actions": len(plan.actions),
                            "scheduler.eager_cleaned": eager,
                            "scheduler.unclean": len(plan.unclean_nodes),
                            "scheduler.checkpoints": plan.checkpoints,
                            "emitter.gates": len(circ.gates)})
        return plan, circ, budget

    def _build_mdd(self, flat, tracer, counts):
        with tracer.span("mdd.build"):
            g = self.m.mdd.build_mdd(flat)
        add_counts(counts, {"mdd.nodes": len(g.nodes),
                            "mdd.read_edges": sum(len(r) for r in g.reads.values()),
                            "mdd.mutation_edges": len(g.mutation_next)})
        return g

    def source_counts(self, job: Job, source, flat) -> dict:
        """Sizes of what the frontend returned (untimed)."""
        if job.is_blif:
            xor_groups = 0
            if job.optimize_xor:
                xor_groups = sum(1 for c in self.m.blif.reorder(source).covers
                                 for clique in c.cliques if len(clique) >= 2)
            return {"blif.covers": len(source.covers),
                    "blif.cubes": sum(len(c.cubes) for c in source.covers),
                    "blif.xor_groups": xor_groups}
        blocks = body = 0
        todo = list(flat.statements)
        while todo:
            s = todo.pop()
            if isinstance(s, self.m.frontend.InPlaceBlock):
                blocks += 1
                body += len(s.body)
                todo += s.body
        return {"frontend.stmts": len(flat.statements),
                "frontend.inplace_blocks": blocks,
                "frontend.block_body_stmts": body,
                "frontend.slots": flat.slot_count}

    def verify(self, flat, circ):
        return self.m.circuit.verify(flat, circ, samples=VERIFY_SAMPLES,
                                     seed=self.seed)

    # -- correctness gate (untimed) ------------------------------------------

    def check(self, state: JobState, source, flat, plan, circ, report,
              budget) -> None:
        """Record the job's row; raise JobFailure on any wrong output."""
        m, job = self.m, state.job
        stats = m.circuit.stats(circ)
        digest = hashlib.sha256(m.circuit.format_circuit(circ).encode()).hexdigest()
        state.row = {**job.describe(), "scheduled_budget": budget,
                     "toffoli": stats["toffoli_count"],
                     "cnot": stats["cnot_count"], "not": stats["not_count"],
                     "gates": len(circ.gates), "width": circ.width,
                     "unclean": len(plan.unclean_nodes),
                     "checkpoints": plan.checkpoints,
                     "samples": report.samples, "sha256": digest}
        if state.first_hash is None:
            state.first_hash = digest
        if not report.ok:
            raise JobFailure(f"verify failed on {len(report.mismatches)} wires")
        if digest != state.first_hash:
            raise JobFailure("gate list differs from the first pass")
        if not state.referenced:
            state.referenced = True
            self._check_reference(job, source, circ)

    def _check_reference(self, job: Job, source, circ) -> None:
        """Outputs on a few seeded inputs against an evaluator that never
        sees the flattened program: the AST interpreter for .rev, the cube
        semantics for .blif."""
        key = (job.input, job.params)
        if key not in self._references:
            n = len(circ.inputs)
            rng = random.Random(f"{self.seed}:{job.input}:{job.params}")
            vectors = [[rng.randrange(2) for _ in range(n)]
                       for _ in range(REFERENCE_INPUTS)]
            if job.is_blif:
                want = [self.m.blif.cover_semantics(source, v) for v in vectors]
            else:
                want = [self.m.frontend.interpret_source(
                    source, v, params=dict(job.params) or None) for v in vectors]
            self._references[key] = (vectors, want)
        vectors, want = self._references[key]
        cols = [0] * circ.width
        for s, v in enumerate(vectors):
            for bit, w in zip(v, circ.inputs):
                cols[w] |= bit << s
        out = self.m.circuit.simulate_batch(circ, cols)
        got = [[(out[w] >> s) & 1 for w in circ.outputs]
               for s in range(len(vectors))]
        if got != want:
            raise JobFailure("outputs differ from the reference evaluator")


def add_counts(counts: dict, more: dict) -> None:
    for k, v in more.items():
        counts[k] = counts.get(k, 0) + v


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()
