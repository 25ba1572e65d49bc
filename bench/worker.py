"""The timed process: runs one workload's stage calls in rounds.

    python3 bench/worker.py --probe              # report import time, exit
    python3 bench/worker.py PLAN RESULT          # run the plan's rounds
    python3 bench/worker.py PLAN RESULT STAGE    # run STAGE's calls once

``run.py`` starts it with the repository's ``src`` on PYTHONPATH after the
inputs exist, so the process holds nothing but the interpreter, flatlink and
the stage it runs.  It measures and records; ``run.py`` judges the results.
A round runs every call of the plan once, each starting when the previous
returns.  Rounds repeat until the plan's seconds have passed.  The
host-speed reference loop (``hostspeed.py``) is timed before the first call
and after every call.  In a traced plan the first half of the time runs
untraced and the second half traced.
"""

from __future__ import annotations

import time

# Set-up ends once the cli layer, which imports every module, is loaded;
# nothing else is imported before it.
_t0 = time.monotonic()
import flatlink.cli  # noqa: E402,F401

READY = time.monotonic()
IMPORT_S = READY - _t0

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from flatlink.engine import ExecConfig, JobStats  # noqa: E402
from flatlink.kb_compile import KbSpec, compile_kb  # noqa: E402
from flatlink.link_join import join2, join3  # noqa: E402
from flatlink.rdf_ingest import ParseReport, iter_triples  # noqa: E402
from flatlink.tools import stats, validate  # noqa: E402

import hostspeed  # noqa: E402
import spans  # noqa: E402


def _rss_kib(field: str) -> int:
    """VmHWM (peak) or VmRSS (current) of this process, in KiB.

    ru_maxrss would do for the peak, except that Linux carries it across
    exec, so a child reports its parent's peak until it grows past it.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise OSError(f"{field} missing from /proc/self/status")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _flip_byte(path: str) -> None:
    with open(path, "r+b") as fh:
        fh.seek(os.path.getsize(path) // 2)
        byte = fh.read(1)
        fh.seek(-1, os.SEEK_CUR)
        fh.write(bytes([byte[0] ^ 1]))


def _stage_fn(call: dict, cfg: ExecConfig, at, stats_: JobStats):
    """A no-argument callable for one stage call and a reader of its report."""
    stage = call["stage"]
    if stage == "compile":
        spec = KbSpec(call["label"], [at(p) for p in call["inputs"]], at(call["out"]))
        return lambda: compile_kb(spec, cfg, stats_), lambda r: {
            "entities": r.entities,
            "lines_total": r.parse.lines_total,
            "triples": r.triples,
            "skipped_lines": r.skipped_lines,
        }
    if stage == "join2":
        args = (at(call["left"]), at(call["right"]), at(call["gt"]), "tsv-pairs",
                tuple(call["labels"]), at(call["out"]), cfg)
        return lambda: join2(*args, stats=stats_), lambda r: {
            "pairs_read": r.pairs_read,
            "pairs_unique": r.pairs_unique,
            "pairs_dropped_left": r.pairs_dropped_left,
            "pairs_dropped_right": r.pairs_dropped_right,
            "lines_emitted": r.lines_emitted,
        }
    if stage == "join3":
        args = (at(call["ab"]), at(call["cb"]), call["shared"], call["order"], at(call["out"]), cfg)
        return lambda: join3(*args, stats=stats_), lambda r: {
            "lines_emitted": r.lines_emitted,
            "lines_left": r.lines_left,
            "lines_right": r.lines_right,
        }
    if stage == "validate":
        return lambda: validate(at(call["in"]), call["mode"]), lambda r: {
            "ok_lines": r.ok_lines,
            "violations": r.violation_count,
        }
    if stage == "stats":
        return lambda: stats(at(call["in"]), call["mode"]), lambda r: {
            "lines": r.lines,
            "bytes": r.bytes,
            "slot_entities": r.slot_entities,
        }
    raise ValueError(f"unknown stage {stage!r}")


class Runner:
    def __init__(self, plan: dict):
        self.plan = plan
        self.dir = plan["dir"]
        budget = plan["budget"]
        spill = os.path.join(self.dir, "spill")
        # Only the budget and the spill directory are set; partitions and
        # parallelism stay at the engine's defaults.
        self.cfg = (
            ExecConfig(spill_dir=spill) if budget is None
            else ExecConfig(memory_budget_bytes=budget, spill_dir=spill)
        )
        self.ref = hostspeed.reference_s()

    def at(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def run_call(self, index: int, tracer: spans.Tracer | None) -> dict:
        call = self.plan["calls"][index]
        job = JobStats()
        fn, observe = _stage_fn(call, self.cfg, self.at, job)
        error = None
        if tracer is not None:
            tracer.stage = call["stage"]
            tracer.enter(spans.STAGE_SPANS[call["stage"]])
        start = time.perf_counter()
        try:
            report = fn()
        except Exception as exc:  # a failed op is recorded, and the round goes on
            report, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.exit()
            tracer.stage = ""
        before, self.ref = self.ref, hostspeed.reference_s()
        observed = {} if report is None else observe(report)
        observed.update(items_in=job.items_in, spill_runs=job.spill_runs, keys_reduced=job.keys_reduced)
        out = call.get("out")
        if out is not None and error is None:
            if self.plan.get("flip") == call["stage"]:
                _flip_byte(self.at(out))
            observed["sha256"] = _sha256(self.at(out))
        return {
            "index": index, "stage": call["stage"], "elapsed": elapsed, "refs": [before, self.ref],
            "error": error, "observed": observed,
        }

    def run_round(self, tracer: spans.Tracer | None = None, only: str | None = None) -> list[dict]:
        return [
            self.run_call(i, tracer) for i, call in enumerate(self.plan["calls"])
            if only is None or call["stage"] == only
        ]

    def run_rounds(self, seconds: float, tracer=None, missing=frozenset()) -> list:
        """Rounds until `seconds` have passed; traced rounds also carry their
        layer times and spans."""
        rounds = []
        start = time.monotonic()
        while not rounds or time.monotonic() - start < seconds:
            if tracer is None:
                rounds.append(self.run_round())
            else:
                tracer.reset()
                calls = self.run_round(tracer)
                layers = spans.layer_times(tracer.spans, missing)
                rounds.append({"calls": calls, "layers": layers, "spans": tracer.spans})
        return rounds

    def drain_rate(self, repeats: int = 3) -> float:
        """rdf_ingest alone: lines per second, at reference speed, of a bare
        iter_triples pass."""
        paths = [self.at(p) for c in self.plan["calls"] if c["stage"] == "compile" for p in c["inputs"]]
        if not paths:
            return 0.0
        rates, ref = [], hostspeed.reference_s()
        for _ in range(repeats):
            report = ParseReport()
            start = time.perf_counter()
            for path in paths:
                for _ in iter_triples(path, report):
                    pass
            elapsed = time.perf_counter() - start
            before, ref = ref, hostspeed.reference_s()
            rates.append(report.lines_total / hostspeed.normalised(elapsed, before, ref))
        return sorted(rates)[len(rates) // 2]


def main(argv: list[str]) -> int:
    if argv == ["--probe"]:
        print(json.dumps({"ready": READY, "import_s": IMPORT_S}))
        return 0
    plan_path, result_path, *only = argv
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    # The runner's first pass of the reference loop leaves the memory it
    # keeps in the baseline, so it does not count against the budget.
    runner = Runner(plan)
    base_kib = _rss_kib("VmRSS")
    result = {
        "ready": READY,
        "import_s": IMPORT_S,
        "base_rss_kib": base_kib,
        "budget": runner.cfg.memory_budget_bytes,
    }
    if only:
        result["rounds"] = [runner.run_round(only=only[0])]
    elif not plan["trace"]:
        result["rounds"] = runner.run_rounds(plan["seconds"])
    else:
        result["rounds"] = runner.run_rounds(plan["seconds"] / 2)
        tracer = spans.Tracer()
        undo, missing = spans.install(tracer)
        try:
            traced = runner.run_rounds(plan["seconds"] / 2, tracer, missing)
        finally:
            spans.uninstall(undo)
        spans.write_spans(plan["trace_file"], [r.pop("spans") for r in traced])
        result["traced"] = traced
        result["missing_hooks"] = sorted(missing)
        result["drain_lines_per_s"] = runner.drain_rate()
    result["peak_rss_kib"] = _rss_kib("VmHWM")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
