"""Command-line entry point wiring the pipeline stages together.

Subcommands: compile, join2, join3, sample, filter-type, stats, validate,
pipeline.  Every run echoes its effective configuration to stderr so results
can be reproduced: every parsed argument by its dest, plus the engine
settings the engine flags resolved to.  Each stage's report is printed to
stdout as data, one ``name=value`` word per report field; ``stats`` and
``validate`` also print text.  Failures print a single ``error: ...`` line
and exit nonzero.

Engine settings are the sort memory budget and the spill directory.  They
resolve flag > environment > config file > default; ``FLATLINK_SPILL_DIR`` is
the one environment override.
"""

from __future__ import annotations

import argparse
import os
import shlex
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from functools import partial

from .engine import ExecConfig, make_dir, open_input
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


def _echo_config(args, cfg: ExecConfig | None = None) -> None:
    """Echo every parsed argument by its dest, in parser order, then the
    engine settings the engine flags resolved to."""
    pairs = {k: v for k, v in vars(args).items()
             if k not in ("command", "func", "memory_budget", "spill_dir")}
    if cfg is not None:
        pairs.update(memory_budget_bytes=cfg.memory_budget_bytes,
                     spill_dir=cfg.spill_dir or "<temp>")
    rendered = " ".join(f"{k}={_shell_word(v)}" for k, v in pairs.items())
    print(f"config: cmd={args.command} {rendered}", file=sys.stderr)


def _shell_word(value) -> str:
    """The value as one word that ``shlex.split`` reads back.  Only a value
    that is empty or holds whitespace, a quote or a backslash is quoted, so
    a ``#`` in a URI stays bare."""
    text = str(value)
    if text and not any(c.isspace() or c in "'\"\\" for c in text):
        return text
    return shlex.quote(text)


def _report_line(report, omit: str = "") -> str:
    """One `name=value` word per field of a stage report, in field order: a
    list or tuple value joined by commas, a nested report and the field
    named `omit` left out."""
    words = []
    for f in fields(report):
        value = getattr(report, f.name)
        if f.name == omit or is_dataclass(value):
            continue
        if isinstance(value, (list, tuple)):
            value = ",".join(map(str, value))
        words.append(f"{f.name}={value}")
    return " ".join(words)


def _exec_config(args, file_values: dict | None = None) -> ExecConfig:
    file_values = file_values or {}
    spill_dir = args.spill_dir
    if spill_dir is None:
        spill_dir = os.environ.get(ENV_SPILL_DIR) or file_values.get("spill_dir")
    budget = args.memory_budget
    if budget is None:
        try:
            budget = int(file_values.get("memory_budget_bytes", ExecConfig.memory_budget_bytes))
        except ValueError as exc:
            raise ConfigError(f"bad engine setting: {exc}") from exc
    cfg = ExecConfig(memory_budget_bytes=budget, spill_dir=spill_dir)
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
        help="directory for each sort's spill runs, unnamed files freed when the sort ends",
    )


def _split_inputs(value: str, name: str) -> list[str]:
    inputs = value.split(",")
    if "" in inputs:
        raise ConfigError(f"{name} has an empty item: {value!r}")
    return inputs


def _cmd_compile(args) -> int:
    cfg = _exec_config(args)
    spec = KbSpec(args.label, _split_inputs(args.inputs, "--in"), args.out)
    _echo_config(args, cfg)
    print(_report_line(compile_kb(spec, cfg)))
    return 0


def _cmd_join2(args) -> int:
    cfg = _exec_config(args)
    labels = tuple(args.labels.split(","))
    if len(labels) != 2:
        raise ConfigError("--labels needs exactly two comma-separated labels")
    _echo_config(args, cfg)
    report = join2(
        args.left, args.right, args.gt, args.gt_format, labels, args.out, cfg,
        sameas_uri=args.sameas_uri,
    )
    print(_report_line(report))
    return 0


def _cmd_join3(args) -> int:
    cfg = _exec_config(args)
    _echo_config(args, cfg)
    report = join3(args.left, args.right, args.shared, args.order.split(","), args.out, cfg)
    print(_report_line(report))
    return 0


def _cmd_sample(args) -> int:
    _echo_config(args)
    written = sample_lines(args.infile, SampleSpec(n=args.n, seed=args.seed), args.out)
    print(f"lines_written={written}")
    return 0


def _cmd_filter_type(args) -> int:
    _echo_config(args)
    spec = TypeFilterSpec(args.type_uri, args.side, args.type_predicate)
    kept = filter_by_type(args.infile, spec, args.out, args.mode)
    print(f"lines_written={kept}")
    return 0


def _cmd_stats(args) -> int:
    _echo_config(args)
    report = stats(args.infile, args.mode, args.type_predicate, args.top_k)
    if args.machine:
        types = [f"type:{uri}={n}" for uri, n in report.top_types]
        print(" ".join([_report_line(report, omit="top_types"), *types]))
        return 0
    print(f"lines:       {report.lines}")
    print(f"bytes:       {report.bytes}")
    print(f"unparseable: {report.unparseable}")
    for i, count in enumerate(report.slot_entities, 1):
        print(f"slot {i} distinct entities: {count}")
    if report.top_types:
        print("top types:")
    for uri, n in report.top_types:
        print(f"  {n:>10}  {uri}")
    return 0


def _cmd_validate(args) -> int:
    _echo_config(args)
    report = validate(args.infile, args.mode)
    if args.machine:
        print(f"ok_lines={report.ok_lines} violations={report.violation_count}")
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
    # (config key, (path as given, resolved path)) of each input file and,
    # keyed the same way, of each output, in stage order.
    inputs: list[tuple[str, tuple[str, str]]] = field(default_factory=list)
    outputs: dict[str, tuple[str, str]] = field(default_factory=dict)


# The numbered section kinds: how many sections of each there may be, their
# required keys and their optional keys with each one's default.
_SECTIONS = {
    "kb": (3, ("label", "inputs", "out"), {}),
    "link": (2, ("gt", "gt_format", "out"), {"sameas_uri": OWL_SAMEAS}),
}


def parse_pipeline_config(path: str) -> PipelineConfig:
    """Flat key=value format; relative paths resolve against the file's dir.

    Keys: ``kb<i>.label / kb<i>.inputs / kb<i>.out`` for two or three KBs;
    ``link1.*`` joins kb1 x kb2 and ``link2.*`` joins kb3 x kb2 (keys gt,
    gt_format, out, optional sameas_uri).  `_SECTIONS` gives these numbered
    sections; each needs the one before it, so none is renumbered.  Optional
    ``join3.out``, and with it ``join3.order``, the three KB labels once each
    (default kb2,kb1,kb3); plus the engine keys memory_budget_bytes and spill_dir.
    An empty value, an empty item of ``kb<i>.inputs``, a KB label that
    compile would refuse, two outputs on one path and an output on an input
    path are refused, and so is a line that is not UTF-8.  Every refusal is
    a ConfigError, raised before any stage runs.
    """
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p: str) -> str:
        return p if os.path.isabs(p) else os.path.join(base, p)

    values: dict[str, str] = {}
    with open_input(path) as fh:
        data = fh.read()
    # bytes.splitlines() splits at LF, CR LF and a lone CR, as text mode does.
    for line_no, raw in enumerate(data.splitlines(), 1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            raise ConfigError(f"{path}:{line_no}: not UTF-8") from None
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key=value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in values:
            raise ConfigError(f"{path}:{line_no}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{path}:{line_no}: empty value for {key!r}")
        values[key] = value

    engine = {k: values[k] for k in ("memory_budget_bytes", "spill_dir") if k in values}
    known = set(engine)
    if "join3.out" in values:
        known |= {"join3.out", "join3.order"}
    elif "join3.order" in values:
        raise ConfigError("join3.order needs join3.out")
    sections: dict[str, list[dict]] = {}
    for kind, (count, required, optional) in _SECTIONS.items():
        found = sections[kind] = []
        for i in range(1, count + 1):
            name = f"{kind}{i}"
            if not any(key.startswith(name + ".") for key in values):
                continue
            if len(found) < i - 1:
                raise ConfigError(f"{name} needs {kind}{i - 1}")
            keys = {k: f"{name}.{k}" for k in (*required, *optional)}
            missing = [keys[k] for k in required if keys[k] not in values]
            if missing:
                raise ConfigError(f"{name} needs {', '.join(required[:-1])} and {required[-1]}"
                                  f" ({missing[0]!r} missing)")
            found.append({k: values.get(key, optional.get(k)) for k, key in keys.items()})
            known |= set(keys.values())

    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    if "spill_dir" in engine:
        engine["spill_dir"] = resolve(engine["spill_dir"])
    cfg = PipelineConfig(engine_values=engine)
    for i, kb in enumerate(sections["kb"], 1):
        key = f"kb{i}.inputs"
        inputs = [(p, resolve(p)) for p in _split_inputs(kb["inputs"], key)]
        cfg.inputs += [(key, pair) for pair in inputs]
        spec = KbSpec(kb["label"], [path for _, path in inputs], resolve(kb["out"]))
        try:
            spec.validate()
        except FlatlinkError as exc:
            raise ConfigError(f"kb{i}.label: {exc}") from exc
        cfg.kbs.append(spec)
    for i, link in enumerate(sections["link"], 1):
        if link["gt_format"] not in GT_FORMATS:
            raise ConfigError(f"link{i}.gt_format must be one of {GT_FORMATS}")
        gt = resolve(link["gt"])
        cfg.inputs.append((f"link{i}.gt", (link["gt"], gt)))
        cfg.links.append({**link, "gt": gt, "out": resolve(link["out"])})
    if "join3.out" in values:
        cfg.join3 = {"out": resolve(values["join3.out"]), "order": values.get("join3.order")}

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
    if cfg.join3:
        if len(cfg.kbs) != 3:
            raise ConfigError("join3 needs three KBs")
        labels = [kb.label for kb in cfg.kbs]
        order = cfg.join3["order"]
        cfg.join3["order"] = order.split(",") if order else [labels[1], labels[0], labels[2]]
        if sorted(cfg.join3["order"]) != sorted(labels):
            raise ConfigError(
                f"join3.order must list the KB labels {','.join(labels)} once each,"
                f" not {order!r}"
            )

    # Paths compare resolved, so `out/../x` and a symlink to x name x.  No
    # stage may write what any stage reads, one that ran before it included.
    outputs = {f"kb{i}.out": kb.output_path for i, kb in enumerate(cfg.kbs, 1)}
    outputs.update({f"link{i}.out": j["out"] for i, j in enumerate(cfg.links, 1)})
    if cfg.join3:
        outputs["join3.out"] = cfg.join3["out"]
    real = {key: os.path.realpath(p) for key, p in outputs.items()}
    if len(set(real.values())) != len(real):
        raise ConfigError("output paths must be distinct")
    read = {os.path.realpath(path) for _, (_, path) in cfg.inputs}
    for key, path in real.items():
        if path in read:
            raise ConfigError(f"{key} names an input: {outputs[key]!r}")
    cfg.outputs = {key: (values[key], path) for key, path in outputs.items()}
    return cfg


def _cmd_pipeline(args) -> int:
    pipe = parse_pipeline_config(args.config)
    cfg = _exec_config(args, pipe.engine_values)
    _echo_config(args, cfg)

    kbs = pipe.kbs
    stages = [partial(compile_kb, kb, cfg) for kb in kbs]
    # link1 joins kb1 x kb2; link2 joins kb3 x kb2; kb2 is the shared KB.
    shared = kbs[1]
    for job, left in zip(pipe.links, kbs[0::2]):
        stages.append(partial(
            join2, left.output_path, shared.output_path, job["gt"], job["gt_format"],
            (left.label, shared.label), job["out"], cfg, sameas_uri=job["sameas_uri"],
        ))
    if pipe.join3:
        stages.append(partial(
            join3, pipe.links[0]["out"], pipe.links[1]["out"], shared.label,
            pipe.join3["order"], pipe.join3["out"], cfg,
        ))

    # Every input is opened, and then every output directory made, before
    # the first stage runs, so any of them that fails is refused before any
    # stage has run, by its key and the path as given.
    for key, (given, path) in pipe.inputs:
        try:
            open(path, "rb").close()
        except OSError as exc:
            raise ConfigError(f"{key}: cannot read {given}: {exc.strerror}") from exc
    for key, (given, path) in pipe.outputs.items():
        make_dir(os.path.dirname(path), f"{key}: cannot write {given}")
    for stage in stages:
        print(_report_line(stage()))
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
    except (FlatlinkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
