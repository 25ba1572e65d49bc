"""Self-test of the benchmark at a tiny input scale.

    python3 bench/selftest.py      # from the repository root, under a minute

Checks that
  1. every metric BENCHMARK.json names is printed, with its unit, by a
     correct run of each workload, and nothing else is;
  2. flipping one byte of a stage's output makes that stage's calls failed
     ops;
  3. one seed reproduces the same inputs, output digests and counts, and
     another seed changes the inputs;
  4. a hook whose target is gone leaves its metrics out instead of failing.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SCALE = 0.05
SECONDS = 0.3

sys.path.insert(0, os.path.join(ROOT, "src"))
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace),
         "--scale", str(SCALE)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL {what}")
    print(f"ok   {what}")


def check_metrics(spec: dict) -> dict:
    runs = {}
    for workload in gen.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = _bench(workload, 1, trace)
            runs[workload, trace] = result
            _check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload} trace={trace}: result keys")
            _check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{workload} trace={trace}: all {result['attempted']} stage calls pass")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            _check(got == want, f"{workload} trace={trace}: every {section} metric, with its unit")
            if trace == 0:
                _check(all(v["value"] > 0 for v in result["metrics"].values()),
                       f"{workload}: end-to-end metrics are non-zero")
    return runs


def check_flip() -> None:
    for workload, stage in (("compile-clean", "compile"), ("join-spill", "join2"), ("join-spill", "join3")):
        result = run.run_benchmark(ROOT, workload, 1, SECONDS, False, SCALE, flip=stage)
        flipped = [ok for s, ok in result["verdicts"] if s == stage]
        _check(bool(flipped) and not any(flipped) and not result["correct"],
               f"{workload}: a flipped byte in {stage} output fails all {len(flipped)} {stage} calls")


def _files(d: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as fh:
            out[name] = fh.read()
    return out


def check_determinism(runs: dict) -> None:
    for workload in gen.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_selftest-") as tmp:
            dirs = [os.path.join(tmp, n) for n in "abc"]
            for d in dirs:
                os.mkdir(d)
            plans = [gen.generate(workload, seed, d, SCALE) for seed, d in zip((7, 7, 8), dirs)]
            a, b, c = (_files(d) for d in dirs)
            _check(a == b and plans[0] == plans[1], f"{workload}: seed 7 twice gives the same inputs and digests")
            _check(a != c, f"{workload}: seed 8 changes the inputs")
        again = _bench(workload, 1, 1)
        counts = lambda r: {k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
        _check(counts(again) == counts(runs[workload, 1]), f"{workload}: counts repeat exactly for one seed")


def check_missing_hook() -> None:
    import flatlink.tools

    orig = flatlink.tools.parse_record
    del flatlink.tools.parse_record
    try:
        tracer = spans.Tracer()
        undo, missing = spans.install(tracer)
        spans.uninstall(undo)
    finally:
        flatlink.tools.parse_record = orig
    layers = spans.layer_times(tracer.spans, missing)
    _check(missing == {"tools.parse_record"}, "a removed hook target is reported missing")
    _check("flat_record.parse_s" not in layers and "tools.validate_self_s" not in layers
           and "engine.add_s" in layers, "its metrics are absent, the others remain")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    runs = check_metrics(spec)
    check_flip()
    check_determinism(runs)
    check_missing_hook()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
