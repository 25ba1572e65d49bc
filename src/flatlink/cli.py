"""Command-line entry point wiring the pipeline stages together.

Subcommands: compile, join2, join3, sample, filter-type, stats, validate,
pipeline.  Every run echoes its effective configuration to stderr so results
can be reproduced; failures print a single ``error: ...`` line and exit
nonzero.

Engine settings are the sort memory budget and the spill directory.  They
resolve flag > environment > config file > default; ``FLATLINK_SPILL_DIR`` is
the one environment override.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field

from .engine import ExecConfig
from .errors import ConfigError, FlatlinkError
from .kb_compile import KbSpec, compile_kb
from .link_join import GT_FORMATS, OWL_SAMEAS, join2, join3
from .tools import (
    MODES,
    RDF_TYPE,
    SIDES,
    SampleSpec,
    TypeFilterSpec,
    filter_by_type,
    sample_lines,
    stats,
    validate,
)

ENV_SPILL_DIR = "FLATLINK_SPILL_DIR"


def _echo_config(name: str, pairs: dict) -> None:
    rendered = " ".join(f"{k}={v}" for k, v in pairs.items())
    print(f"config: cmd={name} {rendered}", file=sys.stderr)


def _exec_config(args, file_values: dict | None = None) -> ExecConfig:
    file_values = file_values or {}

    def pick(flag, env_name, file_key, default, cast):
        if flag is not None:
            return flag
        if env_name and os.environ.get(env_name):
            return cast(os.environ[env_name])
        if file_key in file_values:
            return cast(file_values[file_key])
        return default

    try:
        cfg = ExecConfig(
            memory_budget_bytes=pick(
                getattr(args, "memory_budget", None),
                None,
                "memory_budget_bytes",
                ExecConfig.memory_budget_bytes,
                int,
            ),
            spill_dir=pick(
                getattr(args, "spill_dir", None), ENV_SPILL_DIR, "spill_dir", None, str
            ),
        )
    except ValueError as exc:
        raise ConfigError(f"bad engine setting: {exc}") from exc
    cfg.validate()
    return cfg


def _add_engine_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--memory-budget", type=int, dest="memory_budget",
        help="memory budget in bytes of each sort, spilling past it"
        f" (default {ExecConfig.memory_budget_bytes >> 20} MiB)",
    )
    sub.add_argument(
        "--spill-dir", dest="spill_dir",
        help="directory under which each sort keeps its spill runs, removed when it ends",
    )


def _engine_kv(cfg: ExecConfig) -> dict:
    return {
        "memory_budget_bytes": cfg.memory_budget_bytes,
        "spill_dir": cfg.spill_dir or "<temp>",
    }


def _cmd_compile(args) -> int:
    cfg = _exec_config(args)
    spec = KbSpec(args.label, args.inputs.split(","), args.out)
    _echo_config("compile", {"label": spec.label, "in": args.inputs, "out": args.out,
                             **_engine_kv(cfg)})
    report = compile_kb(spec, cfg)
    print(report.as_kv())
    return 0


def _cmd_join2(args) -> int:
    cfg = _exec_config(args)
    labels = tuple(args.labels.split(","))
    if len(labels) != 2:
        raise ConfigError("--labels needs exactly two comma-separated labels")
    _echo_config("join2", {"left": args.left, "right": args.right, "gt": args.gt,
                           "gt_format": args.gt_format, "labels": args.labels,
                           "out": args.out, **_engine_kv(cfg)})
    report = join2(
        args.left, args.right, args.gt, args.gt_format, labels, args.out, cfg,
        sameas_uri=args.sameas_uri,
    )
    print(report.as_kv())
    return 0


def _cmd_join3(args) -> int:
    cfg = _exec_config(args)
    order = args.order.split(",")
    _echo_config("join3", {"left": args.left, "right": args.right,
                           "shared": args.shared, "order": args.order,
                           "out": args.out, **_engine_kv(cfg)})
    report = join3(args.left, args.right, args.shared, order, args.out, cfg)
    print(report.as_kv())
    return 0


def _cmd_sample(args) -> int:
    spec = SampleSpec(n=args.n, seed=args.seed)
    _echo_config("sample", {"in": args.infile, "out": args.out, "n": args.n,
                            "seed": args.seed})
    written = sample_lines(args.infile, spec, args.out)
    print(f"lines_written={written}")
    return 0


def _cmd_filter_type(args) -> int:
    spec = TypeFilterSpec(
        type_uri=args.type_uri, side=args.side, type_predicate=args.type_predicate
    )
    _echo_config("filter-type", {"in": args.infile, "out": args.out,
                                 "mode": args.mode, "type_uri": args.type_uri,
                                 "side": args.side,
                                 "type_predicate": args.type_predicate})
    kept = filter_by_type(args.infile, spec, args.out, args.mode)
    print(f"lines_written={kept}")
    return 0


def _cmd_stats(args) -> int:
    _echo_config("stats", {"in": args.infile, "mode": args.mode,
                           "type_predicate": args.type_predicate,
                           "top_k": args.top_k})
    report = stats(args.infile, args.mode, args.type_predicate, args.top_k)
    print(report.as_kv() if args.machine else report.as_text())
    return 0


def _cmd_validate(args) -> int:
    _echo_config("validate", {"in": args.infile, "mode": args.mode})
    report = validate(args.infile, args.mode)
    if args.machine:
        print(report.as_kv())
    else:
        print(f"ok_lines:   {report.ok_lines}")
        print(f"violations: {report.violation_count}")
        for line_no, reason in report.violations:
            print(f"  line {line_no}: {reason}")
    return 1 if report.violation_count else 0


@dataclass
class PipelineConfig:
    """Parsed form of the flat key=value pipeline config file."""

    kbs: list[KbSpec] = field(default_factory=list)
    links: list[dict] = field(default_factory=list)  # 2-way jobs, in order
    join3: dict | None = None
    engine_values: dict = field(default_factory=dict)


_ENGINE_KEYS = {"memory_budget_bytes", "spill_dir"}


def parse_pipeline_config(path: str) -> PipelineConfig:
    """Flat key=value format; relative paths resolve against the file's dir.

    Keys: ``kb<i>.label / kb<i>.inputs / kb<i>.out`` for two or three KBs;
    ``link1.*`` joins kb1 x kb2 and ``link2.*`` joins kb3 x kb2 (keys gt,
    gt_format, out, optional sameas_uri); optional ``join3.out`` /
    ``join3.order``; plus the engine keys memory_budget_bytes and spill_dir.
    """
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p: str) -> str:
        return p if os.path.isabs(p) else os.path.join(base, p)

    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key in values:
                raise ConfigError(f"{path}:{line_no}: duplicate key {key!r}")
            values[key] = value

    cfg = PipelineConfig()
    known: set[str] = set()

    for i in (1, 2, 3):
        prefix = f"kb{i}."
        keys = {k for k in values if k.startswith(prefix)}
        if not keys:
            continue
        try:
            label = values[prefix + "label"]
            inputs = [resolve(p) for p in values[prefix + "inputs"].split(",")]
            out = resolve(values[prefix + "out"])
        except KeyError as exc:
            raise ConfigError(f"kb{i} needs label, inputs and out ({exc} missing)")
        cfg.kbs.append(KbSpec(label, inputs, out))
        known |= {prefix + "label", prefix + "inputs", prefix + "out"}

    for i in (1, 2):
        prefix = f"link{i}."
        keys = {k for k in values if k.startswith(prefix)}
        if not keys:
            continue
        try:
            job = {
                "gt": resolve(values[prefix + "gt"]),
                "gt_format": values[prefix + "gt_format"],
                "out": resolve(values[prefix + "out"]),
                "sameas_uri": values.get(prefix + "sameas_uri", OWL_SAMEAS),
            }
        except KeyError as exc:
            raise ConfigError(f"link{i} needs gt, gt_format and out ({exc} missing)")
        if job["gt_format"] not in GT_FORMATS:
            raise ConfigError(f"link{i}.gt_format must be one of {GT_FORMATS}")
        cfg.links.append(job)
        known |= {prefix + k for k in ("gt", "gt_format", "out", "sameas_uri")}

    if "join3.out" in values:
        cfg.join3 = {
            "out": resolve(values["join3.out"]),
            "order": values.get("join3.order"),
        }
        known |= {"join3.out", "join3.order"}

    for key in _ENGINE_KEYS:
        if key in values:
            value = values[key]
            cfg.engine_values[key] = resolve(value) if key == "spill_dir" else value
            known.add(key)

    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    if len(cfg.kbs) < 2:
        raise ConfigError("pipeline needs at least kb1 and kb2")
    if len({kb.label for kb in cfg.kbs}) != len(cfg.kbs):
        raise ConfigError("KB labels must be unique")
    if not cfg.links:
        raise ConfigError("pipeline needs at least link1")
    if len(cfg.kbs) == 3 and len(cfg.links) != 2:
        raise ConfigError("three KBs need link1 and link2")
    if len(cfg.kbs) == 2 and len(cfg.links) != 1:
        raise ConfigError("two KBs take exactly link1")
    if cfg.join3 and len(cfg.kbs) != 3:
        raise ConfigError("join3 needs three KBs")

    outputs = [kb.output_path for kb in cfg.kbs] + [j["out"] for j in cfg.links]
    if cfg.join3:
        outputs.append(cfg.join3["out"])
    if len(set(outputs)) != len(outputs):
        raise ConfigError("output paths must be distinct")
    return cfg


def _cmd_pipeline(args) -> int:
    pipe = parse_pipeline_config(args.config)
    cfg = _exec_config(args, pipe.engine_values)
    _echo_config("pipeline", {"config": args.config, **_engine_kv(cfg)})

    for kb in pipe.kbs:
        os.makedirs(os.path.dirname(kb.output_path) or ".", exist_ok=True)
        print(compile_kb(kb, cfg).as_kv())

    # link1 joins kb1 x kb2; link2 joins kb3 x kb2; kb2 is the shared KB.
    pairs = [(pipe.kbs[0], pipe.kbs[1])]
    if len(pipe.links) == 2:
        pairs.append((pipe.kbs[2], pipe.kbs[1]))
    for job, (left, right) in zip(pipe.links, pairs):
        os.makedirs(os.path.dirname(job["out"]) or ".", exist_ok=True)
        report = join2(
            left.output_path,
            right.output_path,
            job["gt"],
            job["gt_format"],
            (left.label, right.label),
            job["out"],
            cfg,
            sameas_uri=job["sameas_uri"],
        )
        print(report.as_kv())

    if pipe.join3:
        shared = pipe.kbs[1].label
        order = (
            pipe.join3["order"].split(",")
            if pipe.join3["order"]
            else [shared, pipe.kbs[0].label, pipe.kbs[2].label]
        )
        os.makedirs(os.path.dirname(pipe.join3["out"]) or ".", exist_ok=True)
        report = join3(
            pipe.links[0]["out"], pipe.links[1]["out"], shared, order,
            pipe.join3["out"], cfg,
        )
        print(report.as_kv())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatlink",
        description="Compile N-Triples dumps into self-contained flat entity "
        "and linkage files.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("compile", help="compile one KB's triple files into an entity file")
    p.add_argument("--label", required=True)
    p.add_argument("--in", dest="inputs", required=True, help="comma-separated N-Triples files")
    p.add_argument("--out", required=True)
    _add_engine_flags(p)
    p.set_defaults(func=_cmd_compile)

    p = subs.add_parser("join2", help="join two entity files through ground truth")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--gt-format", dest="gt_format", choices=GT_FORMATS, default="tsv-pairs")
    p.add_argument("--labels", required=True, help="left,right KB labels")
    p.add_argument("--sameas-uri", dest="sameas_uri", default=OWL_SAMEAS)
    p.add_argument("--out", required=True)
    _add_engine_flags(p)
    p.set_defaults(func=_cmd_join2)

    p = subs.add_parser("join3", help="join two 2-way linkage files on their shared KB")
    p.add_argument("--left", required=True, help="2-way file whose shared records are kept")
    p.add_argument("--right", required=True)
    p.add_argument("--shared", required=True, help="label of the KB present in both inputs")
    p.add_argument("--order", required=True, help="three comma-separated labels, output order")
    p.add_argument("--out", required=True)
    _add_engine_flags(p)
    p.set_defaults(func=_cmd_join3)

    p = subs.add_parser("sample", help="reservoir-sample lines from a file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_sample)

    p = subs.add_parser("filter-type", help="keep lines whose records carry an rdf:type value")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--type-uri", dest="type_uri", required=True)
    p.add_argument("--side", choices=SIDES, default="any")
    p.add_argument("--type-predicate", dest="type_predicate", default=RDF_TYPE)
    p.set_defaults(func=_cmd_filter_type)

    p = subs.add_parser("stats", help="line/byte counts, entities per slot, type histogram")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--type-predicate", dest="type_predicate", default=RDF_TYPE)
    p.add_argument("--top-k", dest="top_k", type=int, default=10)
    p.add_argument("--machine", action="store_true", help="key=value output")
    p.set_defaults(func=_cmd_stats)

    p = subs.add_parser("validate", help="check a file line by line; nonzero exit on violations")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--machine", action="store_true")
    p.set_defaults(func=_cmd_validate)

    p = subs.add_parser("pipeline", help="run compile x2(3) -> join2 (x2 -> join3) from a config")
    p.add_argument("--config", required=True)
    _add_engine_flags(p)
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FlatlinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
