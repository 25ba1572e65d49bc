"""The demo pipeline's output bytes, pinned by digest.

The digests were recorded from ``flatlink pipeline --config demo/demo.cfg``;
any change to them is a change of the output contract.
"""

import gzip
import hashlib
import os
import shutil

import pytest

from flatlink.cli import main

DEMO = os.path.join(os.path.dirname(__file__), os.pardir, "demo")

GOLDEN_SHA256 = {
    "dbpedia.ents": "5bd463043b1afeb0b737b12bdfef5a8c6661a0c94c3a3ca9c63576bab449a836",
    "dfy.links": "3861e36b754f2a387163b218a99eb309f72718b9537bb306a247e3aff601e527",
    "fd.links": "bf6a44f731c1e6f2fa691a9aae3f3356ff5f0689c7d183d38f09ddcd36ecda4f",
    "freebase.ents": "c8728c99216c56e083c9b31a63a4143ff6db64f63f05018d006510687b7cc5ce",
    "yago.ents": "b18960bd4b6641c90a950065d580b51cddf5d9f12c22b5057a276e4ca33d3272",
    "yd.links": "3ecaa3cf6a81cda8abce654b0711463d005776a87151eaa8a4044cda837063b7",
}


def _digests(out) -> dict[str, str]:
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in sorted(os.listdir(out))
    }


# The demo config's 4 MiB budget sorts in memory; 256 bytes spills a run
# every few items in every compile and join.  The runs are unnamed files,
# so the spill dir holds nothing afterwards.
@pytest.mark.parametrize("budget_args", [[], ["--memory-budget", "256"]])
def test_demo_pipeline_outputs_match_golden_digests(tmp_path, capsys, budget_args):
    demo = tmp_path / "demo"
    shutil.copytree(DEMO, demo, ignore=shutil.ignore_patterns("out"))
    spill = tmp_path / "spill"
    argv = ["pipeline", "--config", str(demo / "demo.cfg"), *budget_args,
            "--spill-dir", str(spill)]
    assert main(argv) == 0
    capsys.readouterr()
    assert _digests(demo / "out") == GOLDEN_SHA256
    assert os.listdir(spill) == []


def test_crlf_gzipped_inputs_give_the_golden_bytes(tmp_path, capsys):
    # Line endings and compression change no output byte: every KB and
    # ground-truth input, in both formats, is read as a CRLF, gzipped copy.
    demo = tmp_path / "demo"
    demo.mkdir()
    for name in os.listdir(DEMO):
        if name.endswith((".nt", ".tsv")):
            with open(os.path.join(DEMO, name), "rb") as fh:
                data = fh.read().replace(b"\n", b"\r\n")
            (demo / f"{name}.gz").write_bytes(gzip.compress(data))
    with open(os.path.join(DEMO, "demo.cfg"), encoding="utf-8") as fh:
        cfg = fh.read().replace(".nt", ".nt.gz").replace(".tsv", ".tsv.gz")
    (demo / "demo.cfg").write_text(cfg, encoding="utf-8")
    assert main(["pipeline", "--config", str(demo / "demo.cfg")]) == 0
    capsys.readouterr()
    assert _digests(demo / "out") == GOLDEN_SHA256
