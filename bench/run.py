"""flatlink's benchmark: one command, one workload, one seed.

    python3 bench/run.py --workload compile-clean --seed 1 --seconds 30 --trace 0

Run it from the repository root.  It generates the workload's inputs from the
seed in this process, starts a fresh timed process (``worker.py``) that runs
flatlink's stages on them, checks every stage call against the generator's
expectations, and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  README.md in this
directory describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import hostspeed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(BENCH_DIR, "worker.py")
PROBES = 15  # interpreter starts per run; setup_s is their median
DEADLINE_S = 170.0  # every run ends within 180 s

STAGE_RSS = {
    "compile": "kb_compile.peak_rss_mib",
    "join2": "link_join.join2_peak_rss_mib",
    "join3": "link_join.join3_peak_rss_mib",
    "validate": "tools.validate_peak_rss_mib",
    "stats": "tools.stats_peak_rss_mib",
}
# Stage throughputs: the plan's per-call work count over the stage's time.
STAGE_RATE = {
    "compile": "compile_lines_per_s",
    "join2": "join2_pairs_per_s",
    "join3": "join3_lines_per_s",
    "validate": "validate_lines_per_s",
    "stats": "stats_lines_per_s",
}


class BenchError(Exception):
    pass


def _src_dir(root: str) -> str:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "flatlink", "__init__.py")):
        raise BenchError(f"no flatlink sources under {src}; run from the repository root")
    return src


def _spawn(argv: list[str], env: dict, deadline: float) -> tuple[float, str]:
    """Run a python child to completion; returns (spawn time, stdout)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, *argv], env=env, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {argv} did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {argv} exited with {proc.returncode}")
    return spawned, proc.stdout


def _judge(call: dict, outcome: dict, first: dict | None) -> bool:
    """A stage call succeeds when it returned, matches every expectation and
    reports the same counters and digests as the first call of its kind."""
    if outcome["error"] is not None:
        return False
    observed = outcome["observed"]
    if any(observed.get(k) != v for k, v in call["expect"].items()):
        return False
    return first is None or observed == first["observed"]


def _stage_counts(calls: list[dict]) -> dict[str, float]:
    """Per-layer counts of one round, from stage reports and job stats."""
    obs = [(c["stage"], c["observed"]) for c in calls]

    def total(stage: str | None, key: str) -> int:
        return sum(o.get(key, 0) for s, o in obs if stage is None or s == stage)

    lines_total = total("compile", "lines_total")
    join2_lines = total("join2", "lines_emitted")
    join3_lines = total("join3", "lines_emitted")
    join3_right = total("join3", "lines_right")
    unique = total("join2", "pairs_unique")
    return {
        "rdf_ingest.lines_total": lines_total,
        "rdf_ingest.lines_skipped": total("compile", "skipped_lines"),
        "rdf_ingest.ok_ratio": total("compile", "triples") / lines_total if lines_total else 0.0,
        "kb_compile.entities": total("compile", "entities"),
        "engine.items_in": total(None, "items_in"),
        "engine.spill_runs": total(None, "spill_runs"),
        "engine.keys_reduced": total(None, "keys_reduced"),
        "link_join.pairs_read": total("join2", "pairs_read"),
        "link_join.pairs_dropped": total("join2", "pairs_dropped_left") + total("join2", "pairs_dropped_right"),
        "link_join.match_ratio": join2_lines / unique if unique else 0.0,
        "link_join.join2_lines": join2_lines,
        "link_join.join3_lines": join3_lines,
        "link_join.join3_fanout": join3_lines / join3_right if join3_right else 0.0,
    }


def _wall(calls: list[dict]) -> float:
    return sum(c["elapsed"] for c in calls)


def _norm_wall(calls: list[dict]) -> float:
    """The calls' time at reference speed, each call normalised by the
    reference timings right before and after it."""
    return sum(hostspeed.normalised(c["elapsed"], *c["refs"]) for c in calls)


def _rates(plan: dict, rounds: list[list[dict]]) -> dict[str, float]:
    rates = {name: 0.0 for name in STAGE_RATE.values()}
    for stage, name in STAGE_RATE.items():
        work = sum(c["work"] for c in plan["calls"] if c["stage"] == stage)
        if work:
            per_round = [work / _norm_wall([c for c in calls if c["stage"] == stage]) for calls in rounds]
            rates[name] = statistics.median(per_round)
    return rates


def _norm_layers(traced: list[dict]) -> list[dict[str, float]]:
    """Each traced round's layer times at reference speed; counts as they are."""
    rows = []
    for r in traced:
        k = _norm_wall(r["calls"]) / _wall(r["calls"])
        rows.append({name: v * k if name.endswith("_s") else v for name, v in r["layers"].items()})
    return rows


def _unit(name: str) -> str:
    if name in ("failed_ops",):
        return "share"
    if name.endswith("_ratio") or name.endswith("_fanout") or name == "rss_over_budget":
        return "ratio"
    if name == "join2_pairs_per_s":
        return "pairs/s"
    if name.endswith("_per_s"):
        return "lines/s"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("_s"):
        return "s"
    return "count"


def _link_violations(plan: dict) -> set[int]:
    """Indices of the join calls whose link file fails `validate`."""
    from flatlink.tools import validate

    bad = set()
    for i, call in enumerate(plan["calls"]):
        mode = {"join2": "link2", "join3": "link3"}.get(call["stage"])
        path = os.path.join(plan["dir"], call.get("out", ""))
        if mode is not None and (not os.path.exists(path) or validate(path, mode).violation_count):
            bad.add(i)
    return bad


def run_benchmark(
    root: str, workload: str, seed: int, seconds: float, trace: bool,
    scale: float = 1.0, flip: str | None = None,
) -> dict:
    """Generate, run and check one workload; returns the result object plus
    ``verdicts``, the per-call outcomes in run order, with their stages."""
    deadline = time.monotonic() + DEADLINE_S
    src = _src_dir(root)
    if src not in sys.path:
        sys.path.insert(0, src)
    import flatlink
    import gen

    if os.path.commonpath([os.path.realpath(flatlink.__file__), os.path.realpath(src)]) != os.path.realpath(src):
        raise BenchError(f"flatlink imported from {flatlink.__file__}, not from {src}")

    work = os.path.join(root, ".bench_work", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        plan = gen.generate(workload, seed, work, scale)
        trace_dir = os.path.join(root, ".bench_traces")
        os.makedirs(trace_dir, exist_ok=True)
        plan.update(
            dir=work, seconds=seconds, trace=trace, flip=flip,
            trace_file=os.path.join(trace_dir, f"{workload}-seed{seed}.jsonl"),
        )
        plan_path = os.path.join(work, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)

        # A fixed string hash makes set and dict layouts repeat from run to
        # run; TMPDIR keeps any temporary file inside the checkout.
        env = dict(os.environ, PYTHONHASHSEED="0", TMPDIR=work)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)

        # The starts alternate with timings of the reference loop.  One start
        # is shorter than the loop's swings, so the medians are normalised
        # by the loop's median rather than start by start.
        setup, import_s, refs = [], [], [hostspeed.reference_s()]
        for _ in range(PROBES):
            spawned, out = _spawn([WORKER, "--probe"], env, deadline)
            probe = json.loads(out)
            setup.append(probe["ready"] - spawned)
            import_s.append(probe["import_s"])
            refs.append(hostspeed.reference_s())
        ref = statistics.median(refs)

        result_path = os.path.join(work, "result.json")
        _spawn([WORKER, plan_path, result_path], env, deadline)
        with open(result_path, encoding="utf-8") as fh:
            res = json.load(fh)

        if res.get("missing_hooks"):
            print(f"warning: hooks not found, their metrics are absent: {res['missing_hooks']}", file=sys.stderr)
        rounds = res["rounds"] + [r["calls"] for r in res.get("traced", [])]
        stage_rss = {}
        if trace:
            for stage in dict.fromkeys(c["stage"] for c in plan["calls"]):
                _spawn([WORKER, plan_path, result_path, stage], env, deadline)
                with open(result_path, encoding="utf-8") as fh:
                    child = json.load(fh)
                stage_rss[stage] = child["peak_rss_kib"] / 1024
                rounds.append(child["rounds"][0])

        # One verdict per stage call, in run order; the link files left by
        # the last call must also pass validate.
        verdicts, first = [], {}
        for calls in rounds:
            for outcome in calls:
                i = outcome["index"]
                verdicts.append([i, _judge(plan["calls"][i], outcome, first.get(i))])
                first.setdefault(i, outcome)
        for i in _link_violations(plan):
            next(v for v in reversed(verdicts) if v[0] == i)[1] = False
        failed = sum(1 for _, ok in verdicts if not ok)

        if not trace:
            peak = res["peak_rss_kib"]
            metrics = {
                "wall_s": statistics.median(_norm_wall(c) for c in res["rounds"]),
                "peak_rss_mib": peak / 1024,
                "rss_over_budget": (peak - res["base_rss_kib"]) * 1024 / res["budget"],
                "setup_s": hostspeed.normalised(statistics.median(setup), ref),
            }
        else:
            import spans

            metrics = {
                **_stage_counts(res["rounds"][0]),
                **_rates(plan, res["rounds"]),
                **spans.median_dict(_norm_layers(res["traced"])),
                **{name: stage_rss.get(stage, 0.0) for stage, name in STAGE_RSS.items()},
                "rdf_ingest.lines_per_s": res["drain_lines_per_s"],
                "cli.import_s": hostspeed.normalised(statistics.median(import_s), ref),
                "trace.overhead_s": statistics.median(_norm_wall(r["calls"]) for r in res["traced"])
                - statistics.median(_norm_wall(c) for c in res["rounds"]),
                "host.wall_raw_s": statistics.median(_wall(c) for c in res["rounds"]),
                "host.ref_s": statistics.median(c["refs"][1] for calls in res["rounds"] for c in calls),
                "failed_ops": failed / len(verdicts),
            }
        return {
            "correct": failed == 0,
            "attempted": len(verdicts),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in sorted(metrics.items())},
            "verdicts": [(plan["calls"][i]["stage"], ok) for i, ok in verdicts],
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="input size factor (self-test)")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run then kills and reaps the running
    # child, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        result = run_benchmark(
            os.getcwd(), args.workload, args.seed, args.seconds, bool(args.trace), args.scale
        )
    except (BenchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result.pop("verdicts")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
