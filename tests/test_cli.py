import errno
import hashlib
import os
import shlex
import shutil
import subprocess
import sys
import tempfile

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flatlink
from flatlink.cli import build_parser, main, parse_pipeline_config
from flatlink.engine import ExecConfig
from flatlink.errors import ConfigError
from flatlink.link_join import OWL_SAMEAS

from conftest import damage_gz

DEMO = os.path.join(os.path.dirname(__file__), os.pardir, "demo")


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def demo_dir(tmp_path):
    dest = tmp_path / "demo"
    shutil.copytree(DEMO, dest)
    return dest


def test_compile_subcommand(capsys, demo_dir, tmp_path):
    out = tmp_path / "fb.ents"
    code, stdout, stderr = run(
        capsys, "compile", "--label", "freebase",
        "--in", str(demo_dir / "freebase.nt"), "--out", str(out),
    )
    assert code == 0
    assert "entities=8" in stdout
    assert stderr.startswith("config: cmd=compile")
    assert out.exists()


def test_compile_multiple_inputs_comma_separated(capsys, demo_dir, tmp_path):
    out = tmp_path / "db.ents"
    code, stdout, _ = run(
        capsys, "compile", "--label", "dbpedia",
        "--in", f"{demo_dir}/dbpedia_infobox.nt,{demo_dir}/dbpedia_types.nt",
        "--out", str(out),
    )
    assert code == 0
    assert "entities=7" in stdout


def test_join2_subcommand(capsys, demo_dir, tmp_path):
    fb = tmp_path / "fb.ents"
    db = tmp_path / "db.ents"
    run(capsys, "compile", "--label", "freebase", "--in", str(demo_dir / "freebase.nt"),
        "--out", str(fb))
    run(capsys, "compile", "--label", "dbpedia",
        "--in", f"{demo_dir}/dbpedia_infobox.nt,{demo_dir}/dbpedia_types.nt",
        "--out", str(db))
    out = tmp_path / "fd.links"
    code, stdout, _ = run(
        capsys, "join2", "--left", str(fb), "--right", str(db),
        "--gt", str(demo_dir / "gt_fd.tsv"), "--labels", "freebase,dbpedia",
        "--out", str(out),
    )
    assert code == 0
    assert "lines_emitted=6" in stdout
    assert out.read_text(encoding="utf-8").startswith("fd-1\tfreebase-instance\t")


def test_join2_echo_names_its_sameas_uri(capsys, demo_dir, tmp_path):
    # A run that reads no pair because of its --sameas-uri must say so in its
    # echo, or it reads like a default run over an empty ground truth.
    ents = {}
    for label, inputs in [("yago", "yago.nt"),
                          ("dbpedia", "dbpedia_infobox.nt,dbpedia_types.nt")]:
        ents[label] = tmp_path / f"{label}.ents"
        run(capsys, "compile", "--label", label, "--out", str(ents[label]),
            "--in", ",".join(str(demo_dir / name) for name in inputs.split(",")))
    echoes = {}
    for uri in (OWL_SAMEAS, "http://x/same"):
        code, stdout, stderr = run(
            capsys, "join2", "--left", str(ents["yago"]), "--right", str(ents["dbpedia"]),
            "--gt", str(demo_dir / "gt_yd.nt"), "--gt-format", "ntriples-sameas",
            "--labels", "yago,dbpedia", "--sameas-uri", uri, "--out", str(tmp_path / "yd.links"),
        )
        assert code == 0
        assert ("pairs_read=0 " in stdout) == (uri != OWL_SAMEAS)
        (echoes[uri],) = [line for line in stderr.splitlines() if line.startswith("config: ")]
        assert f" sameas_uri={uri} " in echoes[uri]
    assert echoes[OWL_SAMEAS] != echoes["http://x/same"]


# One run of each subcommand on the demo; {d} is the demo copy, {o} its out/.
ECHO_RUNS = {
    "compile": ["--label", "freebase", "--in", "{d}/freebase.nt", "--out", "{d}/fb.ents",
                "--memory-budget", "4096"],
    "join2": ["--left", "{o}/freebase.ents", "--right", "{o}/dbpedia.ents",
              "--gt", "{d}/gt_fd.tsv", "--labels", "freebase,dbpedia", "--out", "{d}/fd.links",
              "--spill-dir", "{d}/spill"],
    "join3": ["--left", "{o}/fd.links", "--right", "{o}/yd.links", "--shared", "dbpedia",
              "--order", "dbpedia,freebase,yago", "--out", "{d}/dfy.links"],
    "sample": ["--in", "{o}/dfy.links", "--out", "{d}/dfy.sample.links", "-n", "2"],
    "filter-type": ["--in", "{o}/fd.links", "--out", "{d}/players.links", "--mode", "link2",
                    "--type-uri", "http://dbpedia.org/ontology/FootballPlayer"],
    "stats": ["--in", "{o}/fd.links", "--mode", "link2", "--machine"],
    "validate": ["--in", "{o}/yago.ents", "--mode", "entity"],
    "pipeline": ["--config", "{d}/demo.cfg"],
}
# What each engine command's settings resolve to: a flag, else the config
# file (demo.cfg sets the budget), else the default.
ECHO_ENGINE = {
    "compile": (4096, "<temp>"),
    "join2": (ExecConfig.memory_budget_bytes, "{d}/spill"),
    "join3": (ExecConfig.memory_budget_bytes, "<temp>"),
    "pipeline": (4194304, "<temp>"),
}


@pytest.mark.parametrize("command", sorted(ECHO_RUNS))
def test_echo_names_every_parsed_argument(capsys, demo_dir, monkeypatch, command):
    monkeypatch.delenv("FLATLINK_SPILL_DIR", raising=False)
    assert run(capsys, "pipeline", "--config", str(demo_dir / "demo.cfg"))[0] == 0
    argv = [command, *(a.format(d=demo_dir, o=demo_dir / "out") for a in ECHO_RUNS[command])]
    code, _, stderr = run(capsys, *argv)
    assert code == 0
    (echo,) = [line for line in stderr.splitlines() if line.startswith("config: ")]
    # Every dest, in parser order, with its parsed value; the engine flags
    # show as the settings they resolve to.
    dests = {k: v for k, v in vars(build_parser().parse_args(argv)).items()
             if k not in ("command", "func", "memory_budget", "spill_dir")}
    expected = [f"cmd={command}", *(f"{k}={v}" for k, v in dests.items())]
    if command in ECHO_ENGINE:
        budget, spill = ECHO_ENGINE[command]
        expected += [f"memory_budget_bytes={budget}", f"spill_dir={spill.format(d=demo_dir)}"]
    assert echo == "config: " + " ".join(expected)


def test_echo_reads_back_as_shell_words(capsys, demo_dir, tmp_path):
    # A value holding a space or a quote is quoted, so the echo splits back
    # into the run's arguments.
    spaced = demo_dir / "free base.nt"
    shutil.copy(demo_dir / "freebase.nt", spaced)
    out = tmp_path / "it's.ents"
    code, _, stderr = run(capsys, "compile", "--label", "freebase", "--in", str(spaced),
                          "--out", str(out))
    assert code == 0
    (echo,) = [line for line in stderr.splitlines() if line.startswith("config: ")]
    words = shlex.split(echo.removeprefix("config: "))
    assert words[:4] == ["cmd=compile", "label=freebase", f"inputs={spaced}", f"out={out}"]


def test_flag_order_independence(capsys, demo_dir, tmp_path):
    out1 = tmp_path / "a.ents"
    out2 = tmp_path / "b.ents"
    run(capsys, "compile", "--label", "yago", "--in", str(demo_dir / "yago.nt"),
        "--out", str(out1))
    run(capsys, "compile", "--out", str(out2), "--in", str(demo_dir / "yago.nt"),
        "--label", "yago")
    assert out1.read_bytes() == out2.read_bytes()


def test_pipeline_runs_and_is_deterministic(capsys, tmp_path):
    hashes = []
    for round_dir in ("one", "two"):
        dest = tmp_path / round_dir
        shutil.copytree(DEMO, dest)
        code, stdout, _ = run(capsys, "pipeline", "--config", str(dest / "demo.cfg"))
        assert code == 0
        digest = {}
        for name in ("freebase.ents", "dbpedia.ents", "yago.ents",
                     "fd.links", "yd.links", "dfy.links"):
            digest[name] = hashlib.sha256((dest / "out" / name).read_bytes()).hexdigest()
        hashes.append(digest)
    assert hashes[0] == hashes[1]


def test_pipeline_outputs_validate_clean(capsys, demo_dir):
    code, _, _ = run(capsys, "pipeline", "--config", str(demo_dir / "demo.cfg"))
    assert code == 0
    for name, mode in (
        ("freebase.ents", "entity"),
        ("dbpedia.ents", "entity"),
        ("yago.ents", "entity"),
        ("fd.links", "link2"),
        ("yd.links", "link2"),
        ("dfy.links", "link3"),
    ):
        code, stdout, _ = run(
            capsys, "validate", "--in", str(demo_dir / "out" / name),
            "--mode", mode, "--machine",
        )
        assert code == 0, f"{name}: {stdout}"
        assert "violations=0" in stdout
        code, stdout, _ = run(
            capsys, "stats", "--in", str(demo_dir / "out" / name),
            "--mode", mode, "--machine",
        )
        assert code == 0
        assert " unparseable=0 " in stdout, f"{name}: {stdout}"


def test_validate_exit_code_nonzero_on_violation(capsys, tmp_path):
    bad = tmp_path / "bad.ents"
    bad.write_text("uri\tkey-without-value\n", encoding="utf-8")
    code, stdout, _ = run(capsys, "validate", "--in", str(bad), "--mode", "entity")
    assert code == 1
    assert stdout == "ok_lines:   0\nviolations: 1\n  line 1: even token count (2)\n"


def test_sample_and_filter_and_stats(capsys, demo_dir, tmp_path):
    run(capsys, "pipeline", "--config", str(demo_dir / "demo.cfg"))
    links = demo_dir / "out" / "fd.links"

    sampled = tmp_path / "sample.links"
    code, stdout, _ = run(
        capsys, "sample", "--in", str(links), "--out", str(sampled),
        "-n", "3", "--seed", "42",
    )
    assert code == 0
    assert "lines_written=3" in stdout

    filtered = tmp_path / "players.links"
    code, stdout, _ = run(
        capsys, "filter-type", "--in", str(links), "--out", str(filtered),
        "--mode", "link2", "--type-uri", "http://dbpedia.org/ontology/FootballPlayer",
        "--side", "second",
    )
    assert code == 0
    assert "lines_written=2" in stdout  # Alex Park and Eli Vega

    for path in (sampled, filtered):
        code, stdout, _ = run(capsys, "validate", "--in", str(path), "--mode", "link2")
        assert code == 0, f"{path.name}: {stdout}"

    code, stdout, _ = run(
        capsys, "stats", "--in", str(links), "--mode", "link2", "--machine",
    )
    assert code == 0
    assert "lines=6" in stdout
    assert f"bytes={links.stat().st_size}" in stdout


def test_stats_rejects_negative_top_k(capsys, tmp_path):
    # A negative top_k used to slice the last type off the histogram.
    ents = tmp_path / "kb.ents"
    ents.write_text("http://x/1\thttp://www.w3.org/1999/02/22-rdf-syntax-ns#type\thttp://x/T\n",
                    encoding="utf-8")
    code, stdout, stderr = run(
        capsys, "stats", "--in", str(ents), "--mode", "entity", "--top-k", "-1",
    )
    assert code == 2
    assert [l for l in stderr.splitlines() if l.startswith("error: ")] == [
        "error: top_k must be >= 0"
    ]


def test_error_is_single_line(capsys, tmp_path):
    code, stdout, stderr = run(
        capsys, "compile", "--label", "BAD LABEL", "--in", "x.nt",
        "--out", str(tmp_path / "o"),
    )
    assert code == 2
    err_lines = [l for l in stderr.splitlines() if l.startswith("error: ")]
    assert len(err_lines) == 1


_SAMEAS = "http://www.w3.org/2002/07/owl#sameAs"
DAMAGED_GZ_INPUTS = {
    "compile": lambda i: f'<http://f/{i}> <http://x/p> "v {i * 7919 % 1000}" .\n',
    "join2-tsv-pairs": lambda i: f"http://f/{i * 7919 % 1000}\thttp://d/{i}\n",
    "join2-ntriples-sameas":
        lambda i: f"<http://f/{i * 7919 % 1000}> <{_SAMEAS}> <http://d/{i}> .\n",
}


@pytest.mark.parametrize("damage", ["truncated", "corrupt", "header"])
@pytest.mark.parametrize("stage", sorted(DAMAGED_GZ_INPUTS))
def test_damaged_gz_input_is_one_error_line(capsys, tmp_path, stage, damage):
    # A damaged .gz KB or ground-truth file ends the stage with one error
    # line naming the file and exit 2, and leaves no output, temp file or
    # spill run behind, though the stage may have spilled before it.
    data = "".join(DAMAGED_GZ_INPUTS[stage](i) for i in range(400)).encode()
    bad = tmp_path / ("gt.tsv.gz" if stage == "join2-tsv-pairs" else "in.nt.gz")
    bad.write_bytes(damage_gz(data, damage))
    outdir, spill = tmp_path / "out", tmp_path / "spill"
    outdir.mkdir()
    out = outdir / "result"
    engine_flags = ["--memory-budget", "512", "--spill-dir", str(spill)]
    if stage == "compile":
        argv = ["compile", "--label", "kb", "--in", str(bad)]
    else:
        ents = {}
        for side, host in (("left", "f"), ("right", "d")):
            ents[side] = tmp_path / f"{side}.ents"
            ents[side].write_text(  # in URI order, which join2 requires
                "".join(f'http://{host}/{i}\thttp://x/p\t""v""\n'
                        for i in sorted(range(1000), key=str)),
                encoding="utf-8",
            )
        argv = ["join2", "--left", str(ents["left"]), "--right", str(ents["right"]),
                "--gt", str(bad), "--gt-format", stage[len("join2-"):], "--labels", "f,d"]
    code, _, stderr = run(capsys, *argv, "--out", str(out), *engine_flags)
    assert code == 2
    errors = [line for line in stderr.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1
    assert errors[0].startswith(f"error: {bad}: damaged gzip data: ")
    assert "Traceback" not in stderr
    assert list(outdir.iterdir()) == []
    assert list(spill.iterdir()) == []


def test_compile_in_with_an_empty_item_names_the_flag(capsys, demo_dir, tmp_path):
    # Refused as the config reader refuses kb<i>.inputs, not opened as ''.
    inputs = f"{demo_dir / 'freebase.nt'},"
    out = tmp_path / "fb.ents"
    code, _, stderr = run(capsys, "compile", "--label", "freebase", "--in", inputs,
                          "--out", str(out))
    assert code == 2
    assert [line for line in stderr.splitlines() if line.startswith("error: ")] == [
        f"error: --in has an empty item: {inputs!r}"
    ]
    assert not out.exists()


def test_missing_input_reports_error(capsys, tmp_path):
    code, _, stderr = run(
        capsys, "compile", "--label", "kb", "--in", str(tmp_path / "absent.nt"),
        "--out", str(tmp_path / "o"),
    )
    assert code == 2
    assert "error: " in stderr


def test_env_overrides(capsys, demo_dir, tmp_path, monkeypatch):
    spill = tmp_path / "custom-spill"
    monkeypatch.setenv("FLATLINK_SPILL_DIR", str(spill))
    out = tmp_path / "fb.ents"
    code, _, stderr = run(
        capsys, "compile", "--label", "freebase",
        "--in", str(demo_dir / "freebase.nt"), "--out", str(out),
    )
    assert code == 0
    assert f"spill_dir={spill}" in stderr
    assert spill.is_dir()
    assert list(spill.iterdir()) == []  # runs are unnamed files


def test_flag_beats_env(capsys, demo_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("FLATLINK_SPILL_DIR", str(tmp_path / "env-spill"))
    out = tmp_path / "fb.ents"
    flag_spill = tmp_path / "flag-spill"
    _, _, stderr = run(
        capsys, "compile", "--label", "freebase",
        "--in", str(demo_dir / "freebase.nt"), "--out", str(out),
        "--spill-dir", str(flag_spill),
    )
    assert f"spill_dir={flag_spill}" in stderr
    assert flag_spill.is_dir()
    assert not (tmp_path / "env-spill").exists()


def test_env_beats_config_file_spill_dir(capsys, demo_dir, tmp_path, monkeypatch):
    env_spill = tmp_path / "env-spill"
    monkeypatch.setenv("FLATLINK_SPILL_DIR", str(env_spill))
    cfg = demo_dir / "demo.cfg"
    cfg.write_text(cfg.read_text(encoding="utf-8") + "spill_dir=cfg-spill\n", encoding="utf-8")
    code, _, stderr = run(capsys, "pipeline", "--config", str(cfg))
    assert code == 0
    assert f"spill_dir={env_spill}" in stderr
    assert env_spill.is_dir()
    assert not (demo_dir / "cfg-spill").exists()


def test_bad_config_file_budget_fails_before_any_stage(capsys, demo_dir):
    cfg = demo_dir / "demo.cfg"
    text = cfg.read_text(encoding="utf-8").replace("out/", "run/")
    cfg.write_text(text.replace("memory_budget_bytes=4194304", "memory_budget_bytes=abc"),
                   encoding="utf-8")
    code, _, stderr = run(capsys, "pipeline", "--config", str(cfg))
    assert code == 2
    assert [line for line in stderr.splitlines() if line.startswith("error: ")] == [
        "error: bad engine setting: invalid literal for int() with base 10: 'abc'"
    ]
    assert not (demo_dir / "run").exists()


def test_zero_budget_flag_is_refused(capsys, demo_dir, tmp_path):
    out = tmp_path / "fb.ents"
    code, _, stderr = run(
        capsys, "compile", "--label", "freebase",
        "--in", str(demo_dir / "freebase.nt"), "--out", str(out), "--memory-budget", "0",
    )
    assert code == 2
    assert "error: memory_budget_bytes must be >= 1" in stderr.splitlines()
    assert not out.exists()


def test_removed_engine_knobs_are_rejected(capsys, demo_dir, tmp_path):
    for flag in ("--partitions", "--parallelism"):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "compile", "--label", "freebase",
                "--in", str(demo_dir / "freebase.nt"), "--out", str(tmp_path / "o"),
                flag, "2")
        assert exc.value.code == 2
    for key in ("partitions=4", "parallelism=1", "seed=7"):
        cfg = tmp_path / "old.cfg"
        cfg.write_text((demo_dir / "demo.cfg").read_text(encoding="utf-8") + key + "\n",
                       encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_pipeline_config(str(cfg))


def test_config_parser_rejects_bad_files(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense line\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="key=value"):
        parse_pipeline_config(str(cfg))

    cfg.write_text("unknown.key=1\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        parse_pipeline_config(str(cfg))

    cfg.write_text(
        "kb1.label=a\nkb1.inputs=x\nkb1.out=o1\n"
        "kb2.label=a\nkb2.inputs=y\nkb2.out=o2\n"
        "link1.gt=g\nlink1.gt_format=tsv-pairs\nlink1.out=o3\n",
        encoding="utf-8",
    )
    with pytest.raises(ConfigError, match="unique"):
        parse_pipeline_config(str(cfg))

    cfg.write_text(
        "kb1.label=a\nkb1.inputs=x\nkb1.out=same\n"
        "kb2.label=b\nkb2.inputs=y\nkb2.out=same\n"
        "link1.gt=g\nlink1.gt_format=tsv-pairs\nlink1.out=o3\n",
        encoding="utf-8",
    )
    with pytest.raises(ConfigError, match="distinct"):
        parse_pipeline_config(str(cfg))


def test_config_relative_paths_resolve_to_config_dir(tmp_path):
    sub = tmp_path / "nested"
    sub.mkdir()
    cfg = sub / "p.cfg"
    cfg.write_text(
        "kb1.label=a\nkb1.inputs=x.nt\nkb1.out=out/a.ents\n"
        "kb2.label=b\nkb2.inputs=y.nt\nkb2.out=out/b.ents\n"
        "link1.gt=gt.tsv\nlink1.gt_format=tsv-pairs\nlink1.out=out/ab.links\n",
        encoding="utf-8",
    )
    pipe = parse_pipeline_config(str(cfg))
    assert pipe.kbs[0].input_paths == [str(sub / "x.nt")]
    assert pipe.links[0]["out"] == str(sub / "out" / "ab.links")


def test_compile_out_naming_its_input_keeps_it_on_error(capsys, tmp_path):
    # With no parseable triple compile fails; its input, also its output,
    # stays byte-equal and no temp file is left beside it.
    src = tmp_path / "a.nt"
    src.write_bytes(b"not a triple\n# comment\n")
    code, _, stderr = run(capsys, "compile", "--label", "kb", "--in", str(src),
                          "--out", str(src))
    assert code == 2
    assert "no parseable triples" in stderr
    assert src.read_bytes() == b"not a triple\n# comment\n"
    assert [p.name for p in tmp_path.iterdir()] == ["a.nt"]


# Each stage enters its output before it reads an input, so an output that
# cannot be written is refused first, here beside inputs that do not exist;
# every error names the path the user gave, never the temp file.
_NO_DIR = "error: cannot write nodir/o: No such file or directory"
_IS_DIR = "error: cannot write adir: Is a directory"
OUTPUT_ERRORS = {
    "compile-out-in-missing-dir": (["compile", "--label", "kb", "--in", "a.nt", "--out", "nodir/o"],
                                   _NO_DIR),
    "compile-out-is-a-dir": (["compile", "--label", "kb", "--in", "absent.nt", "--out", "adir"],
                             _IS_DIR),
    "compile-spill-dir-is-a-file": (["compile", "--label", "kb", "--in", "a.nt", "--out", "o",
                                     "--spill-dir", "a.nt"],
                                    "error: cannot use spill dir a.nt: Not a directory"),
    "join2-out-is-a-dir": (["join2", "--left", "absent", "--right", "absent", "--gt", "absent",
                            "--labels", "f,d", "--out", "adir"], _IS_DIR),
    "join3-out-is-a-dir": (["join3", "--left", "absent", "--right", "absent", "--shared", "d",
                            "--order", "f,d,y", "--out", "adir"], _IS_DIR),
    "sample-out-in-missing-dir": (["sample", "--in", "absent", "--out", "nodir/o", "-n", "1"],
                                  _NO_DIR),
    "filter-type-out-is-a-dir": (["filter-type", "--in", "absent", "--out", "adir",
                                  "--mode", "entity", "--type-uri", "http://t"], _IS_DIR),
    # Refused before the output is opened, so nothing is written either.
    "join2-three-labels": (["join2", "--left", "absent", "--right", "absent", "--gt", "absent",
                            "--labels", "f,d,y", "--out", "o"],
                           "error: --labels needs exactly two comma-separated labels"),
}


@pytest.mark.parametrize("case", sorted(OUTPUT_ERRORS))
def test_output_and_spill_dir_errors_name_the_given_path(capsys, tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.nt").write_bytes(b"<http://a> <http://p> <http://b> .\n")
    (tmp_path / "adir").mkdir()
    argv, message = OUTPUT_ERRORS[case]
    code, _, stderr = run(capsys, *argv)
    assert code == 2
    assert [line for line in stderr.splitlines() if line.startswith("error: ")] == [message]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.nt", "adir"]
    assert list((tmp_path / "adir").iterdir()) == []


# A child that lowers its own file-size limit and runs the CLI, so a write
# past the limit fails with EFBIG (Python ignores SIGXFSZ).
_FSIZE_CHILD = """
import resource, sys
from flatlink.cli import main
resource.setrlimit(resource.RLIMIT_FSIZE, (int(sys.argv[1]), resource.RLIM_INFINITY))
sys.exit(main(sys.argv[2:]))
"""
_FSIZE_ERRORS = {
    "output": ([], "error: cannot write o.ents: {reason}"),
    "spill-run": (["--memory-budget", "300000", "--spill-dir", "sp"],
                  "error: [Errno {errno}] {reason}: 'sp'"),
}


@pytest.mark.skipif(resource is None or not hasattr(resource, "RLIMIT_FSIZE"),
                    reason="needs resource.RLIMIT_FSIZE")
@pytest.mark.parametrize("case", sorted(_FSIZE_ERRORS))
def test_a_write_that_fails_mid_stage_names_its_file(tmp_path, case):
    # The output's write fails as an EngineError naming the output as given;
    # a spill run's stays an OSError and names the spill dir.  Either way no
    # temp output or spill run is left.  Every write past 100 kB fails.
    (tmp_path / "kb.nt").write_text(
        "".join(f'<http://e/{i:06}> <http://p/v> "{"x" * 40}" .\n' for i in range(5000)),
        encoding="utf-8")
    (tmp_path / "sp").mkdir()
    flags, message = _FSIZE_ERRORS[case]
    src = os.path.dirname(os.path.dirname(os.path.abspath(flatlink.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    child = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", _FSIZE_CHILD,
         "100000", "compile", "--label", "kb", "--in", "kb.nt", "--out", "o.ents", *flags],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 2
    assert child.stdout == ""
    assert child.stderr.splitlines()[1:] == [
        message.format(errno=errno.EFBIG, reason=os.strerror(errno.EFBIG))]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kb.nt", "sp"]
    assert list((tmp_path / "sp").iterdir()) == []


# Each input that cannot be opened, written here as BAD, is refused by the
# path the user gave and the OS reason, as outputs are.  Every other input
# exists (`empty` is a valid entity, ground-truth and linkage file), so the
# error is BAD's, even where it is read after them.
INPUT_ERRORS = {
    "compile-in": ["compile", "--label", "kb", "--in", "BAD", "--out", "o"],
    "compile-second-in": ["compile", "--label", "kb", "--in", "a.nt,BAD", "--out", "o"],
    "join2-gt": ["join2", "--left", "empty", "--right", "empty", "--gt", "BAD",
                 "--labels", "f,d", "--out", "o"],
    "join2-left": ["join2", "--left", "BAD", "--right", "empty", "--gt", "empty",
                   "--labels", "f,d", "--out", "o"],
    "join3-right": ["join3", "--left", "empty", "--right", "BAD", "--shared", "d",
                    "--order", "f,d,y", "--out", "o"],
    "validate-in": ["validate", "--in", "BAD", "--mode", "entity"],
    "stats-in": ["stats", "--in", "BAD", "--mode", "entity"],
    "filter-type-in": ["filter-type", "--in", "BAD", "--out", "o", "--mode", "entity",
                       "--type-uri", "http://t"],
    "sample-in": ["sample", "--in", "BAD", "--out", "o", "-n", "1"],
    "pipeline-config": ["pipeline", "--config", "BAD"],
}


@pytest.mark.parametrize("bad, reason", [("adir", "Is a directory"),
                                         ("absent", "No such file or directory")])
@pytest.mark.parametrize("case", sorted(INPUT_ERRORS))
def test_input_errors_name_the_given_path(capsys, tmp_path, monkeypatch, case, bad, reason):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.nt").write_bytes(b"<http://a> <http://p> <http://b> .\n")
    (tmp_path / "empty").write_bytes(b"")
    (tmp_path / "adir").mkdir()
    argv = [arg.replace("BAD", bad) for arg in INPUT_ERRORS[case]]
    code, stdout, stderr = run(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert [line for line in stderr.splitlines() if line.startswith("error: ")] == [
        f"error: cannot read {bad}: {reason}"
    ]
    # No output, and no <out>.<pid>.tmp beside it.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.nt", "adir", "empty"]
    assert list((tmp_path / "adir").iterdir()) == []


@pytest.mark.parametrize("out", ["gt_yd.nt", "out/../gt_yd.nt", "gt_yd.link"])
def test_pipeline_refuses_an_output_on_an_input(capsys, demo_dir, out):
    # link1 writing over link2's ground truth would leave yd.links and
    # dfy.links empty.  Paths compare resolved, through `..` and symlinks.
    (demo_dir / "gt_yd.link").symlink_to("gt_yd.nt")
    cfg = demo_dir / "demo.cfg"
    cfg.write_text(cfg.read_text(encoding="utf-8").replace(
        "link1.out=out/fd.links", f"link1.out={out}"), encoding="utf-8")
    names, gt = sorted(os.listdir(demo_dir)), (demo_dir / "gt_yd.nt").read_bytes()
    code, stdout, stderr = run(capsys, "pipeline", "--config", str(cfg))
    assert code == 2
    assert (stdout, stderr) == ("", f"error: link1.out names an input: {str(demo_dir / out)!r}\n")
    assert sorted(os.listdir(demo_dir)) == names  # no out/
    assert (demo_dir / "gt_yd.nt").read_bytes() == gt


def test_pipeline_refuses_a_config_line_that_is_not_utf8(capsys, demo_dir):
    # One error line naming the file and the line, exit 2, and no stage
    # runs: not a UnicodeDecodeError traceback.
    cfg = demo_dir / "demo.cfg"
    data = cfg.read_bytes()
    assert b"\nkb1.label=freebase\n" in data
    cfg.write_bytes(data.replace(b"\nkb1.label=freebase\n", b"\nkb1.label=a\xff\n"))
    line_no = data[: data.index(b"\nkb1.label=")].count(b"\n") + 2
    names = sorted(os.listdir(demo_dir))
    code, stdout, stderr = run(capsys, "pipeline", "--config", str(cfg))
    assert code == 2
    assert (stdout, stderr) == ("", f"error: {cfg}:{line_no}: not UTF-8\n")
    assert sorted(os.listdir(demo_dir)) == names  # no out/


def test_config_lines_end_where_text_mode_ends_them(demo_dir):
    # LF, CR LF and a lone CR end a line, and a last line needs no ending;
    # a form feed, vertical tab or 0x1C-0x1E separator inside a value ends
    # nothing.
    lines = (demo_dir / "demo.cfg").read_bytes().splitlines()
    assert len(lines) > 10
    expected = parse_pipeline_config(str(demo_dir / "demo.cfg"))
    for name, data in [("crlf", b"\r\n".join(lines) + b"\r\n"),
                       ("cr", b"\r".join(lines) + b"\r"),
                       ("no-final-newline", b"\n".join(lines))]:
        (demo_dir / f"{name}.cfg").write_bytes(data)
        assert parse_pipeline_config(str(demo_dir / f"{name}.cfg")) == expected, name
    cfg = demo_dir / "sep.cfg"
    for sep in b"\x0b\x0c\x1c\x1d\x1e":
        cfg.write_bytes(b"\n".join(lines) + b"\nspill_dir=a" + bytes([sep]) + b"b\n")
        engine_values = parse_pipeline_config(str(cfg)).engine_values
        assert engine_values["spill_dir"] == str(demo_dir / f"a{chr(sep)}b")
    # The bad line is numbered among CR-ended lines, not as their one line.
    cfg.write_bytes(b"\r".join(lines[:4]) + b"\rkb9.x=a\xff\r" + b"\r".join(lines[4:]))
    with pytest.raises(ConfigError) as exc:
        parse_pipeline_config(str(cfg))
    assert str(exc.value) == f"{cfg}:5: not UTF-8"


@pytest.mark.parametrize("key", ["kb1.out", "link1.out"])
def test_pipeline_refuses_an_output_under_a_file_before_any_stage(capsys, demo_dir, key):
    # Every output directory is made before the first stage, so an output
    # under a file is refused first, by its key and the path as given,
    # even link1.out, which would be written after three compiles.
    cfg = demo_dir / "demo.cfg"
    lines = cfg.read_text(encoding="utf-8").splitlines()
    outs = [line.partition("=")[2] for line in lines if line.split("=")[0].endswith(".out")]
    cfg.write_text("".join(
        f"{key}=yago.nt/fb.ents\n" if line.startswith(key + "=") else line + "\n" for line in lines
    ), encoding="utf-8")
    code, stdout, stderr = run(capsys, "pipeline", "--config", str(cfg))
    assert code == 2
    assert stdout == ""
    assert [line for line in stderr.splitlines() if line.startswith("error: ")] == [
        f"error: {key}: cannot write yago.nt/fb.ents: Not a directory"
    ]
    assert [out for out in outs if (demo_dir / out).exists()] == []


# (config key, its value in demo.cfg, that value with BAD for one input)
PIPELINE_INPUTS = [
    ("kb2.inputs", "dbpedia_infobox.nt,dbpedia_types.nt", "dbpedia_infobox.nt,BAD"),
    ("link1.gt", "gt_fd.tsv", "BAD"),
]


@pytest.mark.parametrize("bad, reason", [("adir", "Is a directory"),
                                         ("absent", "No such file or directory")])
@pytest.mark.parametrize("key, value, edited", PIPELINE_INPUTS,
                         ids=[key for key, *_ in PIPELINE_INPUTS])
def test_pipeline_input_errors_name_the_key_and_given_path(capsys, demo_dir, key, value, edited,
                                                           bad, reason):
    # Every input is opened before any output directory is made or any stage
    # runs, so one read after earlier stages (kb2's second input, link1's
    # ground truth) is refused first, by its key and the path as given.
    (demo_dir / "adir").mkdir()
    cfg = demo_dir / "demo.cfg"
    text = cfg.read_text(encoding="utf-8")
    assert f"\n{key}={value}\n" in text
    cfg.write_text(text.replace(f"\n{key}={value}\n", f"\n{key}={edited.replace('BAD', bad)}\n"),
                   encoding="utf-8")
    names = sorted(os.listdir(demo_dir))
    code, stdout, stderr = run(capsys, "pipeline", "--config", str(cfg))
    assert code == 2
    assert stdout == ""
    assert [line for line in stderr.splitlines() if line.startswith("error: ")] == [
        f"error: {key}: cannot read {bad}: {reason}"
    ]
    assert sorted(os.listdir(demo_dir)) == names  # no out/
    assert list((demo_dir / "adir").iterdir()) == []


def test_report_out_flag_is_gone(capsys, demo_dir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "compile", "--label", "freebase", "--in", str(demo_dir / "freebase.nt"),
            "--out", str(tmp_path / "o"), "--report-out", str(tmp_path / "r"))
    assert exc.value.code == 2


def test_join3_subcommand_matches_pipeline(capsys, demo_dir, tmp_path):
    run(capsys, "pipeline", "--config", str(demo_dir / "demo.cfg"))
    out_dir = demo_dir / "out"
    dfy = tmp_path / "dfy.links"
    code, stdout, stderr = run(
        capsys, "join3", "--left", str(out_dir / "fd.links"),
        "--right", str(out_dir / "yd.links"), "--shared", "dbpedia",
        "--order", "dbpedia,freebase,yago", "--out", str(dfy),
    )
    assert code == 0
    assert stderr.startswith("config: cmd=join3")
    assert stdout.startswith("lines_left=6 lines_right=")
    assert dfy.read_bytes() == (out_dir / "dfy.links").read_bytes()


def test_stats_text_output(capsys, demo_dir):
    run(capsys, "pipeline", "--config", str(demo_dir / "demo.cfg"))
    links = demo_dir / "out" / "fd.links"
    code, stdout, _ = run(capsys, "stats", "--in", str(links), "--mode", "link2",
                          "--top-k", "1")
    assert code == 0
    lines = stdout.splitlines()
    assert lines[:5] == [
        "lines:       6",
        f"bytes:       {links.stat().st_size}",
        "unparseable: 0",
        "slot 1 distinct entities: 6",
        "slot 2 distinct entities: 6",
    ]
    assert lines[5] == "top types:"
    count, uri = lines[6].split()
    assert int(count) > 0 and uri.startswith("http://")
    assert len(lines) == 7


_FD_TYPES = [
    (2, "http://dbpedia.org/ontology/FootballPlayer"),
    (2, "http://dbpedia.org/ontology/MusicalArtist"),
    (2, "http://rdf.freebase.com/ns/music.artist"),
    (2, "http://rdf.freebase.com/ns/sports.football_player"),
    (1, "http://dbpedia.org/ontology/CivilParish"),
    (1, "http://dbpedia.org/ontology/Person"),
    (1, "http://rdf.freebase.com/ns/location.civil_parish"),
]
# Every line a run prints on the demo, whole: (argv, exit code, stdout).
# {d} is the demo copy, {o} its out/ after the pipeline.
PRINTED = [
    (["pipeline", "--config", "{d}/demo.cfg"], 0, [
        "label=freebase entities=8 triples=18 skipped_lines=0 spill_runs=0",
        "label=dbpedia entities=7 triples=17 skipped_lines=0 spill_runs=0",
        "label=yago entities=5 triples=8 skipped_lines=0 spill_runs=0",
        "labels=freebase,dbpedia pairs_read=8 pairs_unique=8 pairs_dropped_left=1"
        " pairs_dropped_right=1 lines_emitted=6 gt_lines_skipped=0 spill_runs=0",
        "labels=yago,dbpedia pairs_read=6 pairs_unique=6 pairs_dropped_left=1"
        " pairs_dropped_right=0 lines_emitted=5 gt_lines_skipped=0 spill_runs=0",
        "lines_left=6 lines_right=5 lines_emitted=4 spill_runs=0",
    ]),
    (["compile", "--label", "yago", "--in", "{d}/yago.nt", "--out", "{d}/y.ents"], 0, [
        "label=yago entities=5 triples=8 skipped_lines=0 spill_runs=0",
    ]),
    (["join2", "--left", "{o}/freebase.ents", "--right", "{o}/dbpedia.ents",
      "--gt", "{d}/gt_fd.tsv", "--labels", "freebase,dbpedia", "--out", "{d}/fd.links"], 0, [
        "labels=freebase,dbpedia pairs_read=8 pairs_unique=8 pairs_dropped_left=1"
        " pairs_dropped_right=1 lines_emitted=6 gt_lines_skipped=0 spill_runs=0",
    ]),
    (["join3", "--left", "{o}/fd.links", "--right", "{o}/yd.links", "--shared", "dbpedia",
      "--order", "dbpedia,freebase,yago", "--out", "{d}/dfy.links"], 0, [
        "lines_left=6 lines_right=5 lines_emitted=4 spill_runs=0",
    ]),
    (["stats", "--in", "{o}/fd.links", "--mode", "link2", "--machine"], 0, [
        "mode=link2 lines=6 bytes=2849 unparseable=0 slot_entities=6,6 "
        + " ".join(f"type:{uri}={n}" for n, uri in _FD_TYPES),
    ]),
    (["stats", "--in", "{o}/yago.ents", "--mode", "entity", "--machine", "--top-k", "0"], 0, [
        "mode=entity lines=5 bytes=773 unparseable=0 slot_entities=5",
    ]),
    (["stats", "--in", "{o}/fd.links", "--mode", "link2"], 0, [
        "lines:       6",
        "bytes:       2849",
        "unparseable: 0",
        "slot 1 distinct entities: 6",
        "slot 2 distinct entities: 6",
        "top types:",
        *(f"  {n:>10}  {uri}" for n, uri in _FD_TYPES),
    ]),
    (["validate", "--in", "{o}/yago.ents", "--mode", "entity", "--machine"], 0, [
        "ok_lines=5 violations=0",
    ]),
    (["validate", "--in", "{d}/bad.ents", "--mode", "entity", "--machine"], 1, [
        "ok_lines=1 violations=1",
    ]),
    (["validate", "--in", "{d}/bad.ents", "--mode", "entity"], 1, [
        "ok_lines:   1",
        "violations: 1",
        "  line 2: even token count (2)",
    ]),
    (["sample", "--in", "{o}/dfy.links", "--out", "{d}/dfy.sample.links", "-n", "2"], 0, [
        "lines_written=2",
    ]),
    (["filter-type", "--in", "{o}/fd.links", "--out", "{d}/players.links", "--mode", "link2",
      "--type-uri", "http://dbpedia.org/ontology/FootballPlayer"], 0, [
        "lines_written=2",
    ]),
]


def test_every_printed_line_on_the_demo(capsys, demo_dir):
    # Whole lines, so a report key that drifts from its field, a field that
    # moves or a separator that changes fails here.
    (demo_dir / "bad.ents").write_bytes(b"http://a/1\tk\tv\nuri\tkey-without-value\n")
    for argv, code, lines in PRINTED:
        argv = [a.format(d=demo_dir, o=demo_dir / "out") for a in argv]
        assert run(capsys, *argv)[:2] == (code, "".join(line + "\n" for line in lines)), argv


_KB = "kb{i}.label=k{i}\nkb{i}.inputs=x{i}.nt\nkb{i}.out=o{i}.ents\n"
_LINK = "link{i}.gt=g{i}\nlink{i}.gt_format=tsv-pairs\nlink{i}.out=l{i}.links\n"
_THREE = (_KB.format(i=1) + _KB.format(i=2) + _KB.format(i=3) + _LINK.format(i=1)
          + _LINK.format(i=2) + "join3.out=j.links\n")
CONFIG_ERRORS = {
    "duplicate-key": (_KB.format(i=1) + "kb1.label=again\n", "duplicate key 'kb1.label'"),
    "kb-key-missing": ("kb1.label=a\nkb1.out=o\n", "kb1 needs label, inputs and out"),
    "link-key-missing": (_KB.format(i=1) + _KB.format(i=2) + "link1.gt=g\n",
                         "link1 needs gt, gt_format and out"),
    "bad-gt-format": (_KB.format(i=1) + _KB.format(i=2)
                      + _LINK.format(i=1).replace("tsv-pairs", "csv"),
                      "link1.gt_format must be one of"),
    "one-kb": (_KB.format(i=1) + _LINK.format(i=1), "at least kb1 and kb2"),
    # A gap is refused, not renumbered: kb3 would take kb2's place.
    "kb-gap": (_KB.format(i=1) + _KB.format(i=3) + _LINK.format(i=2), "kb3 needs kb2"),
    "link-gap": (_KB.format(i=1) + _KB.format(i=2) + _KB.format(i=3) + _LINK.format(i=2),
                 "link2 needs link1"),
    "no-link": (_KB.format(i=1) + _KB.format(i=2), "at least link1"),
    "three-kbs-one-link": (_KB.format(i=1) + _KB.format(i=2) + _KB.format(i=3)
                           + _LINK.format(i=1), "three KBs need link1 and link2"),
    "two-kbs-two-links": (_KB.format(i=1) + _KB.format(i=2) + _LINK.format(i=1)
                          + _LINK.format(i=2), "two KBs take exactly link1"),
    # join3.order alone is a known key of a join3 that is not configured.
    "join3-order-without-out": (_THREE.replace("join3.out=j.links\n", "join3.order=k2,k1,k3\n"),
                                "join3.order needs join3.out"),
    "join3-two-kbs": (_KB.format(i=1) + _KB.format(i=2) + _LINK.format(i=1)
                      + "join3.out=j.links\n", "join3 needs three KBs"),
    "join3-order-two-labels": (_THREE + "join3.order=a,b\n",
        "join3.order must list the KB labels k1,k2,k3 once each, not 'a,b'"),
    "join3-order-unknown-label": (_THREE + "join3.order=k2,k1,wrong\n",
        "join3.order must list the KB labels k1,k2,k3 once each, not 'k2,k1,wrong'"),
    "join3-order-repeated-label": (_THREE + "join3.order=k2,k2,k3\n",
        "join3.order must list the KB labels k1,k2,k3 once each, not 'k2,k2,k3'"),
    # An empty value is refused, not taken as the config's dir or the default.
    "empty-spill-dir": (_THREE + "spill_dir=\n", "empty value for 'spill_dir'"),
    "empty-join3-order": (_THREE + "join3.order=\n", "empty value for 'join3.order'"),
    "empty-kb-label": (_THREE.replace("kb2.label=k2", "kb2.label= "),
                       "empty value for 'kb2.label'"),
    "empty-inputs-item": (_THREE.replace("kb3.inputs=x3.nt", "kb3.inputs=x3.nt,"),
                          "kb3.inputs has an empty item: 'x3.nt,'"),
    # Refused as compile would refuse it, but before kb1 and kb2 compile.
    "bad-kb-label": (_THREE.replace("kb3.label=k3", "kb3.label=K3"),
                     "kb3.label: bad KB label 'K3': must match"),
    # No stage writes what a stage reads, its own input included.
    "link-out-names-a-gt": (_THREE.replace("link1.out=l1.links", "link1.out=g2"),
                            "link1.out names an input: "),
    "kb-out-names-its-input": (_THREE.replace("kb2.out=o2.ents", "kb2.out=x2.nt"),
                               "kb2.out names an input: "),
    "outputs-equal-once-resolved": (_THREE.replace("link2.out=l2.links",
                                                   "link2.out=sub/../l1.links"),
                                    "output paths must be distinct"),
}


@pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
def test_config_parser_errors(tmp_path, case):
    text, message = CONFIG_ERRORS[case]
    cfg = tmp_path / "p.cfg"
    cfg.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        parse_pipeline_config(str(cfg))
    assert message in str(exc.value)


def test_join3_order_defaults_to_the_shared_kb_first(tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(_THREE, encoding="utf-8")
    assert parse_pipeline_config(str(cfg)).join3["order"] == ["k2", "k1", "k3"]


_SECTION_TEXT = {"kb1": _KB.format(i=1), "kb2": _KB.format(i=2), "kb3": _KB.format(i=3),
                 "link1": _LINK.format(i=1), "link2": _LINK.format(i=2),
                 "join3": "join3.out=j.links\n"}
_ACCEPTED = [{"kb1", "kb2", "link1"}, {"kb1", "kb2", "kb3", "link1", "link2"},
             {"kb1", "kb2", "kb3", "link1", "link2", "join3"}]


@settings(max_examples=150, deadline=None)
@given(st.sets(st.sampled_from(sorted(_SECTION_TEXT))), st.booleans())
def test_config_accepts_only_the_two_pipeline_shapes(sections, sameas):
    # Each section well formed, so only which sections are present decides.
    text = "".join(_SECTION_TEXT[name] for name in sorted(sections))
    if sameas and "link1" in sections:
        text += "link1.sameas_uri=http://x/same\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        if sections not in _ACCEPTED:
            with pytest.raises(ConfigError):
                parse_pipeline_config(path)
            return
        pipe = parse_pipeline_config(path)
    n_kbs = 3 if "kb3" in sections else 2
    assert [kb.label for kb in pipe.kbs] == [f"k{i}" for i in range(1, n_kbs + 1)]
    assert [kb.input_paths for kb in pipe.kbs] == [
        [os.path.join(tmp, f"x{i}.nt")] for i in range(1, n_kbs + 1)]
    assert [(j["gt"], j["out"]) for j in pipe.links] == [
        (os.path.join(tmp, f"g{i}"), os.path.join(tmp, f"l{i}.links")) for i in range(1, n_kbs)]
    assert {j["gt_format"] for j in pipe.links} == {"tsv-pairs"}
    first = "http://x/same" if sameas else OWL_SAMEAS
    assert [j["sameas_uri"] for j in pipe.links] == [first, OWL_SAMEAS][:n_kbs - 1]
    if "join3" in sections:
        assert pipe.join3 == {"out": os.path.join(tmp, "j.links"), "order": ["k2", "k1", "k3"]}
    else:
        assert pipe.join3 is None
    assert pipe.engine_values == {}
