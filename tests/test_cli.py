"""CLI subcommands: happy paths, exit codes, determinism."""

import argparse
import hashlib
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import hierkit
from hierkit import __version__
from hierkit.cli import _build_parser, main
from hierkit.encoding import Codebook
from hierkit.io import (
    fmt,
    read_vectors_csv,
    write_codebook,
    write_gram_csv,
    write_model,
    write_scores_csv,
)
from hierkit.bottomup import read_plan
from hierkit.labelmap import read_label_map
from hierkit.svm import SvmModel, svm_score

from gen import write_frames_bin
from oracles import (
    oracle_chi2_distances,
    oracle_chi2_gamma,
    oracle_export_trainlist,
    oracle_write_frames_csv,
)

LABELMAP_HEADER = "# hierkit-labelmap v1 p\n"
PLAN_HEADER = "# hierkit-subsample-plan v1 rule=shuffle-v1 t_s=3 seed=11\n"


@pytest.fixture
def meta(tmp_path):
    """Small taxonomy on disk: R{A{A1,A2}, B{B1{B2}}, C}."""
    isa = tmp_path / "is_a.tsv"
    counts = tmp_path / "counts.tsv"
    words = tmp_path / "words.tsv"
    isa.write_text(
        "R A\nR B\nR C\nA A1\nA A2\nB B1\nB1 B2\n"
    )
    counts.write_text(
        "A 10\nA1 3\nA2 4\nB 1\nB1 2\nB2 5\nC 100\n"
    )
    words.write_text("R\troot\nA\talpha\nC\tcharlie\n")
    return {"isa": str(isa), "counts": str(counts), "words": str(words)}


@pytest.fixture
def videos(tmp_path):
    """Six toy videos: positives near (0.8,0.15,0.05), negatives mirrored."""
    rng = np.random.default_rng(123)
    paths, labels = [], {}
    for i in range(6):
        positive = i < 3
        alphas = [16, 3, 1] if positive else [1, 3, 16]
        frames = rng.dirichlet(alphas, size=12)
        path = tmp_path / f"vid{i}.csv"
        path.write_text(oracle_write_frames_csv(frames))
        paths.append(str(path))
        labels[f"vid{i}"] = 1 if positive else 0
    labels_path = tmp_path / "labels.csv"
    labels_path.write_text(
        "".join(f"{k},{v}\n" for k, v in sorted(labels.items()))
    )
    return {"paths": paths, "labels": str(labels_path)}


def run(*argv):
    return main(list(argv))


class TestValidateAndStats:
    def test_validate_ok(self, meta, capsys):
        code = run(
            "validate", "--isa", meta["isa"], "--counts", meta["counts"],
            "--names", meta["words"],
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "nodes=8" in out
        assert "ok=1" in out
        assert "total_images=125" in out

    def test_stats_file_output(self, meta, tmp_path):
        out = tmp_path / "stats.txt"
        code = run(
            "stats", "--isa", meta["isa"], "--counts", meta["counts"],
            "--out", str(out),
        )
        assert code == 0
        text = out.read_text()
        assert "class_count=8" in text
        assert "total_images=125" in text
        assert "singleton_classes=1" in text
        assert "max_count_class=C" in text

    def test_comment_lines_are_not_records(self, meta, capsys):
        argv = ["--isa", meta["isa"], "--counts", meta["counts"],
                "--names", meta["words"]]

        def outputs():
            assert run("validate", *argv) == 0
            assert run("stats", *argv) == 0
            return capsys.readouterr().out

        before = outputs()
        for key, comment in (("isa", "# c\n"), ("counts", "# 5\n"),
                             ("words", "#\tx\n")):
            with open(meta[key], "r+") as handle:
                text = handle.read()
                handle.seek(0)
                handle.write(comment + text + "  " + comment)
        assert outputs() == before


    def test_repeated_edges_report(self, tmp_path, capsys):
        isa = tmp_path / "is_a.tsv"
        counts = tmp_path / "counts.tsv"
        isa.write_text("R A\nR B\nR A\nA C\nR B\nB C\n")
        counts.write_text("A 1\nC 2\nB 3\n")
        assert run("validate", "--isa", str(isa), "--counts", str(counts)) == 0
        assert capsys.readouterr().out.split("\n", 1)[1] == (
            "nodes=4\nroot=R\nsynthetic_root=0\ndropped_edges=1\n"
            "orphans=0\nduplicate_edges=2\ntotal_images=6\nok=1\n"
        )

    def test_malformed_names_is_parse_error(self, meta, tmp_path, capsys):
        """No output shows a name, but ``--names`` still checks its file."""
        words = tmp_path / "bad_words.tsv"
        words.write_text("R\troot\nA alpha\n")
        assert run("validate", "--isa", meta["isa"], "--counts",
                   meta["counts"], "--names", str(words)) == 2
        assert "line 2" in capsys.readouterr().err


class TestReorg:
    def test_bottomup_writes_labelmap_and_plan(self, meta, tmp_path):
        out = tmp_path / "lm.tsv"
        plan = tmp_path / "plan.tsv"
        code = run(
            "reorg-bottomup", "--isa", meta["isa"], "--counts", meta["counts"],
            "--tb", "20", "--tp", "10", "--ts", "2000", "--seed", "1",
            "--out", str(out), "--plan-out", str(plan),
        )
        assert code == 0
        label_map = read_label_map(out.read_text())
        assert [c.representative for c in label_map.classes] == ["A", "C"]
        assert "t_b=20" in label_map.provenance
        plan_lines = [
            l for l in plan.read_text().splitlines() if not l.startswith("#")
        ]
        assert all(l.endswith("\t1") for l in plan_lines)  # per-line seed

    def test_bottomup_requires_thresholds_or_preset(self, meta, tmp_path):
        code = run(
            "reorg-bottomup", "--isa", meta["isa"], "--counts", meta["counts"],
            "--out", str(tmp_path / "x.tsv"),
        )
        assert code == 1

    @pytest.mark.parametrize("subcommand,preset", [
        ("reorg-bottomup", "bottomup-5k"),
        ("reorg-bottomup", "topdown-4k"),
        ("reorg-topdown", "topdown-8k"),
        ("reorg-topdown", "bottomup-4k"),
    ])
    def test_unknown_preset_is_usage_error(self, meta, tmp_path, subcommand,
                                           preset):
        out = tmp_path / "lm.tsv"
        assert run(
            subcommand, "--isa", meta["isa"], "--counts", meta["counts"],
            "--preset", preset, "--out", str(out),
        ) == 1
        assert not out.exists()

    def test_bottomup_preset(self, meta, tmp_path):
        out = tmp_path / "lm.tsv"
        code = run(
            "reorg-bottomup", "--isa", meta["isa"], "--counts", meta["counts"],
            "--preset", "bottomup-4k", "--out", str(out),
        )
        assert code == 0
        label_map = read_label_map(out.read_text())
        assert "t_b=7000 t_p=1250 t_s=2000" in label_map.provenance

    def test_topdown(self, meta, tmp_path):
        out = tmp_path / "lm.tsv"
        code = run(
            "reorg-topdown", "--isa", meta["isa"], "--counts", meta["counts"],
            "--tt", "5", "--budget", "3", "--out", str(out),
        )
        assert code == 0
        label_map = read_label_map(out.read_text())
        assert len(label_map.classes) == 3
        assert label_map.provenance.endswith("topdown t_t=5 budget=3")

    def test_topdown_warns_about_short_classes(self, meta, tmp_path, capsys):
        out = tmp_path / "lm.tsv"
        assert run(
            "reorg-topdown", "--isa", meta["isa"], "--counts", meta["counts"],
            "--tt", "3", "--budget", "10", "--out", str(out),
        ) == 0
        assert capsys.readouterr().err.splitlines()[:2] == [
            "warning: class B: effective count 1 < t_t=3",
            "warning: class B1: effective count 2 < t_t=3",
        ]
        assert out.exists()

    def test_topdown_preset_caps_at_eligible(self, meta, tmp_path):
        out = tmp_path / "lm.tsv"
        code = run(
            "reorg-topdown", "--isa", meta["isa"], "--counts", meta["counts"],
            "--preset", "topdown-4k", "--out", str(out),
        )
        assert code == 0
        # nothing in the toy taxonomy reaches 1,200 images
        assert read_label_map(out.read_text()).classes == []

    def test_rerun_is_byte_identical(self, meta, tmp_path):
        out = tmp_path / "lm.tsv"
        argv = (
            "reorg-bottomup", "--isa", meta["isa"], "--counts", meta["counts"],
            "--tb", "20", "--tp", "10", "--ts", "2000", "--seed", "1",
            "--out", str(out),
        )
        run(*argv)
        first = out.read_bytes()
        run(*argv)
        assert out.read_bytes() == first


class TestTrainList:
    def test_export_with_plan_caps_classes(self, meta, tmp_path):
        labelmap_path = tmp_path / "lm.tsv"
        plan_path = tmp_path / "plan.tsv"
        run(
            "reorg-bottomup", "--isa", meta["isa"], "--counts", meta["counts"],
            "--tb", "0", "--tp", "0", "--ts", "3", "--seed", "9",
            "--out", str(labelmap_path), "--plan-out", str(plan_path),
        )
        images = tmp_path / "images.tsv"
        rows = [f"imgA{i}\tA\n" for i in range(10)] + ["imgC0\tC\n"]
        images.write_text("".join(rows))
        out = tmp_path / "train.tsv"
        code = run(
            "export-trainlist", "--labelmap", str(labelmap_path),
            "--images", str(images), "--plan", str(plan_path),
            "--out", str(out),
        )
        assert code == 0
        lines = [
            l for l in out.read_text().splitlines() if not l.startswith("#")
        ]
        label_map = read_label_map(labelmap_path.read_text())
        class_a = label_map.class_of_synset()["A"]
        a_lines = [l for l in lines if l.endswith(f"\t{class_a}")]
        assert len(a_lines) == 3  # capped by t_s
        assert any(l.startswith("imgC0\t") for l in lines)

    @pytest.mark.parametrize("pattern,repl", [
        (r"\t9$", "\tx"),                    # per-line seed
        (r"^(\d+)\t\d+\t", r"\1\t-1\t"),     # target
        (r"(seed=|\t)9$", r"\1-1"),          # header and per-line seed
        (r"rule=\S+", "rule=bogus-v9"),
        (r"t_s=\d+", "t_s=-4"),
        (r"t_s=\d+", "t_s=0"),
        (r"t_s=\d+", "t_s=x"),
        (r"^(0\t\d+\t9\n)", r"\1\1"),          # class id listed twice
        (r"^0\t\d+\t", "0\t4\t"),               # target above t_s=3
    ], ids=["seed_field_x", "negative_target", "negative_header_seed",
            "unknown_rule", "negative_t_s", "zero_t_s", "non_numeric_t_s",
            "duplicate_class",
            "target_above_t_s"])
    def test_malformed_plan_is_parse_error(self, meta, tmp_path, capsys,
                                           pattern, repl):
        labelmap_path = tmp_path / "lm.tsv"
        plan_path = tmp_path / "plan.tsv"
        assert run(
            "reorg-bottomup", "--isa", meta["isa"], "--counts", meta["counts"],
            "--tb", "0", "--tp", "0", "--ts", "3", "--seed", "9",
            "--out", str(labelmap_path), "--plan-out", str(plan_path),
        ) == 0
        text = plan_path.read_text()
        edited = re.sub(pattern, repl, text, flags=re.MULTILINE)
        assert edited != text
        plan_path.write_text(edited)
        images = tmp_path / "images.tsv"
        images.write_text("".join(f"imgA{i}\tA\n" for i in range(10)))
        out = tmp_path / "train.tsv"
        code = run(
            "export-trainlist", "--labelmap", str(labelmap_path),
            "--images", str(images), "--plan", str(plan_path),
            "--out", str(out),
        )
        assert code == 2
        assert "parse error: line " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace("\n0\t3\t11\n", "\n"),
        lambda text: text + "9\t3\t11\n",
    ], ids=["class_missing", "unknown_class"])
    def test_plan_classes_differ_from_label_map(self, tmp_path, capsys,
                                                edit):
        labelmap = tmp_path / "lm.tsv"
        labelmap.write_text(LABELMAP_HEADER + "0\tA\t5\tA\n1\tB\t5\tB\n")
        plan = tmp_path / "plan.tsv"
        text = PLAN_HEADER + "0\t3\t11\n1\t3\t11\n"
        assert edit(text) != text
        plan.write_text(edit(text))
        images = tmp_path / "images.tsv"
        images.write_text("".join(f"i{i}\t{s}\n" for s in "AB"
                                  for i in range(5)))
        out = tmp_path / "train.tsv"
        assert run(
            "export-trainlist", "--labelmap", str(labelmap),
            "--images", str(images), "--plan", str(plan), "--out", str(out),
        ) == 3
        assert "contract violation: class " in capsys.readouterr().err
        assert not out.exists()

    def test_images_skip_blank_and_comment_lines(self, meta, tmp_path,
                                                 capsys):
        labelmap_path = tmp_path / "lm.tsv"
        assert run(
            "reorg-bottomup", "--isa", meta["isa"], "--counts", meta["counts"],
            "--tb", "0", "--tp", "0", "--ts", "2000",
            "--out", str(labelmap_path),
        ) == 0
        images = tmp_path / "images.tsv"
        images.write_text("# id\tsynset\r\ni1\tA\r\n\n  \n #x\tA\ni2\tA\n")
        out = tmp_path / "train.tsv"
        argv = ["export-trainlist", "--labelmap", str(labelmap_path),
                "--images", str(images), "--out", str(out)]
        assert run(*argv) == 0
        assert [l.split("\t")[0] for l in out.read_text().splitlines()
                if not l.startswith("#")] == ["i1", "i2"]
        images.write_text("# id\tsynset\n\ni1\tA\nbad line\n")
        capsys.readouterr()
        assert run(*argv) == 2
        assert "line 4:" in capsys.readouterr().err

    def test_export_without_plan_keeps_everything(self, meta, tmp_path):
        labelmap_path = tmp_path / "lm.tsv"
        run(
            "reorg-bottomup", "--isa", meta["isa"], "--counts", meta["counts"],
            "--tb", "0", "--tp", "0", "--ts", "2000", "--seed", "9",
            "--out", str(labelmap_path),
        )
        images = tmp_path / "images.tsv"
        images.write_text("i1\tA\ni2\tA\ni3\tB2\n")
        out = tmp_path / "train.tsv"
        assert run(
            "export-trainlist", "--labelmap", str(labelmap_path),
            "--images", str(images), "--out", str(out),
        ) == 0
        lines = [
            l for l in out.read_text().splitlines() if not l.startswith("#")
        ]
        assert len(lines) == 3


class TestTrainListBytes:
    LABELMAP = (
        LABELMAP_HEADER
        + "0\tA\t5\tA\n1\tB\t9\tB,B1,B2\n2\tC\t4\tC\n"
        + "#UNASSIGNED\nD\t2\n"
    )
    # targets under and at t_s; C's target reaches past its images
    PLAN = (PLAN_HEADER.replace("t_s=3", "t_s=6")
            + "0\t3\t11\n1\t4\t11\n2\t6\t11\n")

    # the default read block, then images.tsv read a few characters at a time
    @pytest.mark.parametrize("with_plan,block", [
        pytest.param(with_plan, block, id=("plan" if with_plan else "all")
                     + (f"-block{block}" if block else ""))
        for block in (None, 1, 5, 64) for with_plan in (False, True)
    ])
    def test_export_bytes_match_oracle(self, tmp_path, monkeypatch, with_plan,
                                       block):
        if block:
            monkeypatch.setattr(hierkit.io, "READ_BLOCK", block)
        labelmap = tmp_path / "lm.tsv"
        labelmap.write_text(self.LABELMAP)
        plan = tmp_path / "plan.tsv"
        plan.write_text(self.PLAN)
        synsets = ["B", "A", "B2", "C", "B1", "D", "B", "A", "B1"]
        rows = [f"img{i:02d}\t{synsets[i % 9]}" for i in range(40)]
        rows[3:3] = ["", "#img99\tA", "   "]
        rows[10] = "  " + rows[10] + " "
        images = tmp_path / "images.tsv"
        images.write_bytes(
            "".join(row + ("\r\n" if i % 3 else "\n")
                    for i, row in enumerate(rows)).encode()
        )
        out = tmp_path / "train.tsv"
        argv = ["export-trainlist", "--labelmap", str(labelmap),
                "--images", str(images), "--out", str(out)]
        if with_plan:
            argv[-2:-2] = ["--plan", str(plan)]
        assert run(*argv) == 0
        expected = oracle_export_trainlist(
            read_label_map(self.LABELMAP),
            read_plan(self.PLAN) if with_plan else None,
            images.read_text(),
            f"hierkit {__version__} " + " ".join(argv),
        )
        assert out.read_bytes() == expected.encode()

    @pytest.mark.parametrize("body", [
        "-1\tA\t3\tA\n",
        "0\tA\t3\tA\n0\tB\t2\tB\n",
        "0\tA\t3\tA\n1\tB\t2\tB,A\n",
        "0\tA\t-5\tA\n",
        "0\tA\t3\tA\n#UNASSIGNED\nD\t-3\n",
        "0\tA\t3\tA\n#UNASSIGNED\nD\tx\n",
    ], ids=["negative_id", "duplicate_id", "shared_member", "negative_count",
            "negative_unassigned_count", "non_numeric_unassigned_count"])
    @pytest.mark.parametrize("with_plan", [False, True], ids=["all", "plan"])
    def test_invalid_label_map_is_parse_error(self, tmp_path, capsys, body,
                                              with_plan):
        labelmap = tmp_path / "lm.tsv"
        labelmap.write_text(LABELMAP_HEADER + body)
        plan = tmp_path / "plan.tsv"
        plan.write_text(PLAN_HEADER + "-1\t3\t11\n0\t3\t11\n1\t3\t11\n")
        images = tmp_path / "images.tsv"
        images.write_text("i1\tA\ni2\tB\n")
        out = tmp_path / "train.tsv"
        argv = ["export-trainlist", "--labelmap", str(labelmap),
                "--images", str(images), "--out", str(out)]
        if with_plan:
            argv += ["--plan", str(plan)]
        assert run(*argv) == 2
        assert "parse error: line " in capsys.readouterr().err
        assert not out.exists()


class TestTrainListStreaming:
    """``images.tsv`` is read in blocks and the train list written in
    pieces: a failure late in the stream still ends in exit 2 with no
    output, and memory follows the ids kept, not the file."""

    @pytest.fixture
    def export(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(hierkit.io, "READ_BLOCK", 16)
        labelmap = tmp_path / "lm.tsv"
        labelmap.write_text(LABELMAP_HEADER + "0\tA\t5\tA\n")
        out = tmp_path / "train.tsv"

        def export(images):
            capsys.readouterr()
            code = run("export-trainlist", "--labelmap", str(labelmap),
                       "--images", str(images), "--out", str(out))
            assert not out.exists()
            assert [p for p in os.listdir(tmp_path)
                    if p.startswith(".hierkit")] == []
            return code, capsys.readouterr().err

        return export

    def test_undecodable_byte_after_first_block(self, tmp_path, export):
        images = tmp_path / "images.tsv"
        images.write_bytes(b"".join(b"i%d\tA\n" % i for i in range(40))
                           + b"\xff\n")
        code, err = export(images)
        assert code == 2
        assert f"parse error: cannot read {images}: " in err

    def test_malformed_line_in_late_block_names_its_line(self, tmp_path,
                                                         export):
        rows = [f"i{i}\tA" for i in range(100)]
        rows[3:3] = ["", "# comment", "  "]
        rows[90] = "bad line"
        images = tmp_path / "images.tsv"
        images.write_bytes("".join(row + ("\r\n" if i % 2 else "\n")
                                   for i, row in enumerate(rows)).encode())
        code, err = export(images)
        assert code == 2
        assert "line 91: expected 'image_id<TAB>synset_id'" in err

    @pytest.mark.parametrize("kind", ["directory", "missing"])
    def test_images_path_that_is_not_a_file(self, tmp_path, export, kind):
        images = tmp_path / "images"
        if kind == "directory":
            images.mkdir()
        code, err = export(images)
        assert code == 2
        assert f"parse error: cannot read {images}: " in err

    def test_export_memory_follows_kept_ids_not_file_size(self, tmp_path):
        # 200k images over 100 synsets, half of them in the label map. An
        # export holding the text, its lines, every output line and the
        # joined output peaks at 20.2 MiB traced here; a streamed one at
        # 7.2 MiB, about the 100k kept ids.
        labelmap = tmp_path / "lm.tsv"
        labelmap.write_text(LABELMAP_HEADER + "".join(
            f"{c}\tS{c:02d}\t1\tS{c:02d}\n" for c in range(50)))
        images = tmp_path / "images.tsv"
        images.write_text("".join(
            f"img{i:07d}\tS{i % 100:02d}\n" for i in range(200_000)))
        out = tmp_path / "train.tsv"
        tracemalloc.start()
        try:
            code = run("export-trainlist", "--labelmap", str(labelmap),
                       "--images", str(images), "--out", str(out))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + 100_000
        assert peak < 12 * 2**20


_IDS = st.sampled_from(("A", "B", "C", "R", "__root__"))
_NUMS = st.sampled_from(("0", "1", "2", "7", "-1"))
_TOKENS = st.one_of(_IDS, _NUMS, st.sampled_from(("", "#", "A,B", "x")))


def _fuzz_text(well_formed, sep, fields, header=""):
    """Well formed: a header and lines of the file's own fields, whose
    values still make cycles, negative ids, shared members and the like.
    Otherwise arbitrary text, or lines from a small token set behind an
    optional header."""
    if well_formed:
        return st.lists(st.tuples(*fields).map(sep.join), max_size=8).map(
            lambda lines: header + "".join(line + "\n" for line in lines)
        )
    soup = st.lists(st.lists(_TOKENS, max_size=4).map(sep.join), max_size=8)
    return st.one_of(
        st.text(max_size=60),
        st.tuples(st.sampled_from(("", header)), soup).map(
            lambda parts: parts[0] + "\n".join(parts[1]) + "\n"
        ),
    )


def _fuzz_files(well_formed):
    def text(*args):
        return _fuzz_text(well_formed, *args)
    return st.fixed_dictionaries({
        "is_a": text(" ", [_IDS, _IDS]),
        "counts": text(" ", [_IDS, _NUMS]),
        "words": text("\t", [_IDS, st.just("a b")]),
        "labelmap": text("\t", [
            _NUMS, _IDS, _NUMS, st.sampled_from(("A", "B,C", "A,B", "")),
        ], LABELMAP_HEADER),
        "plan": text("\t", [_NUMS, _NUMS, st.just("11")], PLAN_HEADER),
        "images": text("\t", [st.sampled_from(("i1", "i2", "i3")), _IDS]),
    })


_TAXONOMY_ARGS = ["--isa", "{d}/is_a", "--counts", "{d}/counts",
                  "--names", "{d}/words"]
_FUZZ_COMMANDS = {
    "validate": ["validate", *_TAXONOMY_ARGS, "--out", "{d}/out"],
    "stats": ["stats", *_TAXONOMY_ARGS, "--out", "{d}/out"],
    "reorg-bottomup": ["reorg-bottomup", *_TAXONOMY_ARGS, "--tb", "3",
                       "--tp", "2", "--ts", "2", "--out", "{d}/out",
                       "--plan-out", "{d}/out.plan"],
    "reorg-topdown": ["reorg-topdown", *_TAXONOMY_ARGS, "--tt", "2",
                      "--budget", "3", "--out", "{d}/out"],
    "export-trainlist": ["export-trainlist", "--labelmap", "{d}/labelmap",
                         "--images", "{d}/images", "--out", "{d}/out"],
    "export-trainlist --plan": ["export-trainlist", "--labelmap",
                                "{d}/labelmap", "--images", "{d}/images",
                                "--plan", "{d}/plan", "--out", "{d}/out"],
}
_FUZZ_FILES = st.one_of(_fuzz_files(True), _fuzz_files(False))


_NUMBERS = st.sampled_from(("0", "0.5", "1", "2", "-1", "1e308", "1e-320",
                            "nan", "inf"))
_EVENT_IDS = st.sampled_from(("a", "b", "c"))
_EVENT_TOKENS = st.one_of(_NUMBERS, _EVENT_IDS,
                          st.sampled_from(("cols", "", "x")))


def _event_text(header="", ids=True):
    """Arbitrary text or bytes; lines of comma-joined ids and numbers behind
    an optional header; or rows of one width, each an id (when ``ids``)
    and numbers."""
    soup = st.lists(st.lists(_EVENT_TOKENS, max_size=4).map(",".join),
                    max_size=6)
    rows = st.integers(1, 3).flatmap(lambda width: st.lists(
        st.tuples(_EVENT_IDS if ids else st.just(None),
                  st.lists(_NUMBERS, min_size=width, max_size=width)).map(
            lambda row: ",".join(([row[0]] if row[0] else []) + row[1])),
        min_size=1, max_size=4))
    return st.one_of(
        st.text(max_size=60),
        st.binary(max_size=60),
        st.tuples(st.sampled_from(("", header)), st.one_of(soup, rows)).map(
            lambda parts: parts[0] + "\n".join(parts[1]) + "\n"
        ),
    )


def _small_matrix(rows, cols):
    return st.lists(st.lists(st.sampled_from((0.0, 0.5, 1.0, 3.0)),
                             min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(np.array)


def _blob(valid):
    """Arbitrary bytes, or a well-formed container."""
    return st.one_of(st.binary(max_size=60), valid)


_EVENT_FILES = st.fixed_dictionaries({
    "f1.csv": _event_text(ids=False),
    "f2.csv": _event_text(ids=False),
    "f3.bin": _blob(st.integers(1, 3).flatmap(
        lambda d: _small_matrix(3, d)).map(write_frames_bin)),
    "codebook": _blob(st.integers(1, 3).flatmap(
        lambda d: _small_matrix(2, d)).map(
            lambda c: write_codebook(Codebook(centroids=c, seed=0)))),
    "x.csv": _event_text(),
    "y.csv": _event_text(),
    "gram.csv": _event_text("cols,a,b\n"),
    "labels.csv": _event_text(),
    "model": _blob(st.sampled_from((1.0, 0.5)).map(lambda c: write_model(
        SvmModel(alpha=np.array([c, c]), labels=np.array([1.0, -1.0]),
                 bias=0.25, C=1.0, train_ids=["a", "b"])))),
    "s1.csv": _event_text(),
    "s2.csv": _event_text(),
})

_EVENT_COMMANDS = {
    "pool": ["pool", "--frames", "{d}/f1.csv", "{d}/f2.csv", "{d}/f3.bin"],
    "vlad --k": ["vlad", "--frames", "{d}/f1.csv", "{d}/f2.csv", "--k", "2"],
    "vlad --codebook": ["vlad", "--frames", "{d}/f1.csv", "{d}/f3.bin",
                        "--codebook", "{d}/codebook"],
    "kernel": ["kernel", "--x", "{d}/x.csv"],
    "kernel --y": ["kernel", "--x", "{d}/x.csv", "--y", "{d}/y.csv",
                   "--gamma", "0.5"],
    "train-svm": ["train-svm", "--gram", "{d}/gram.csv",
                  "--labels", "{d}/labels.csv"],
    "score": ["score", "--model", "{d}/model", "--gram-rows", "{d}/gram.csv"],
    "fuse": ["fuse", "--scores", "{d}/s1.csv", "--scores", "{d}/s2.csv"],
    "eval": ["eval", "--scores", "{d}/s1.csv", "--labels", "{d}/labels.csv"],
}


class TestFuzz:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(command=st.sampled_from(sorted(_FUZZ_COMMANDS)), files=_FUZZ_FILES)
    @example(command="export-trainlist --plan", files={
        "is_a": "", "counts": "", "words": "",
        "labelmap": LABELMAP_HEADER + "-1\tA\t3\tA\n",
        "plan": PLAN_HEADER + "-1\t3\t11\n", "images": "i1\tA\n",
    })
    def test_taxonomy_commands_exit_with_a_documented_code(
            self, tmp_path, capsys, command, files):
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        argv = [arg.format(d=tmp_path) for arg in _FUZZ_COMMANDS[command]]
        assert main(argv) in (0, 1, 2, 3)
        capsys.readouterr()

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(command=st.sampled_from(sorted(_EVENT_COMMANDS)),
           files=_EVENT_FILES)
    def test_event_commands_exit_with_a_documented_code(
            self, tmp_path, capsys, command, files):
        for name, content in files.items():
            if isinstance(content, bytes):
                (tmp_path / name).write_bytes(content)
            else:
                (tmp_path / name).write_text(content, encoding="utf-8")
        argv = [arg.format(d=tmp_path) for arg in _EVENT_COMMANDS[command]]
        # the library's own warnings become stderr lines; any other
        # RuntimeWarning (a numpy overflow, say) still fails the run
        assert main(argv + ["--out", f"{tmp_path}/out"]) in (0, 1, 2, 3)
        capsys.readouterr()

    def test_undecodable_input_is_parse_error(self, meta, tmp_path):
        isa = tmp_path / "is_a.tsv"
        isa.write_bytes(b"R \xff\n")
        assert run("validate", "--isa", str(isa),
                   "--counts", meta["counts"]) == 2
        frames = tmp_path / "v.csv"
        frames.write_bytes(b"0.5,\xff\n")
        assert run("pool", "--frames", str(frames),
                   "--out", str(tmp_path / "out.csv")) == 2


class TestEncodingCommands:
    def test_pool_writes_one_row_per_video(self, videos, tmp_path):
        out = tmp_path / "pooled.csv"
        code = run("pool", "--frames", *videos["paths"], "--out", str(out))
        assert code == 0
        lines = [
            l for l in out.read_text().splitlines() if not l.startswith("#")
        ]
        assert len(lines) == 6
        assert lines[0].startswith("vid0,")

    def test_pool_reads_binary(self, tmp_path):
        frames = np.array([[1.0, 3.0], [3.0, 1.0]])
        path = tmp_path / "v.bin"
        path.write_bytes(write_frames_bin(frames))
        out = tmp_path / "pooled.csv"
        code = run(
            "pool", "--frames", str(path), "--format", "bin",
            "--out", str(out),
        )
        assert code == 0
        assert out.read_text().splitlines()[1] == "v,0.5,0.5"

    def test_vlad_fit_and_reuse_codebook(self, videos, tmp_path):
        codebook = tmp_path / "codebook.bin"
        out1 = tmp_path / "vlad1.csv"
        code = run(
            "vlad", "--frames", *videos["paths"], "--k", "4", "--seed", "3",
            "--save-codebook", str(codebook), "--out", str(out1),
        )
        assert code == 0
        out2 = tmp_path / "vlad2.csv"
        code = run(
            "vlad", "--frames", *videos["paths"],
            "--codebook", str(codebook), "--out", str(out2),
        )
        assert code == 0
        payload1 = [
            l for l in out1.read_text().splitlines() if not l.startswith("#")
        ]
        payload2 = [
            l for l in out2.read_text().splitlines() if not l.startswith("#")
        ]
        assert payload1 == payload2
        # k*d = 4*3
        assert len(payload1[0].split(",")) == 1 + 12

    def test_vlad_on_identical_frames(self, tmp_path, capsys):
        path = tmp_path / "same.bin"
        path.write_bytes(write_frames_bin(np.ones((6, 3))))
        out = tmp_path / "vlad.csv"
        code = run(
            "vlad", "--frames", str(path), "--k", "3", "--out", str(out),
        )
        assert code == 0
        assert "warning: vlad_encode: zero aggregate" in (
            capsys.readouterr().err.splitlines()
        )
        assert out.read_text().splitlines()[1] == "same," + ",".join(
            ["0.0"] * 9
        )

    @pytest.mark.parametrize("flag", ["--k", "--seed", "--save-codebook"])
    def test_vlad_codebook_excludes_fit_flags(self, videos, tmp_path, flag):
        codebook = tmp_path / "codebook.hkcb"
        assert run(
            "vlad", "--frames", *videos["paths"], "--k", "4",
            "--save-codebook", str(codebook), "--out", str(tmp_path / "a.csv"),
        ) == 0
        again = tmp_path / "again.hkcb"
        out = tmp_path / "b.csv"
        assert run(
            "vlad", "--frames", *videos["paths"], "--codebook", str(codebook),
            flag, str(again) if flag == "--save-codebook" else "5",
            "--out", str(out),
        ) == 1
        assert not out.exists() and not again.exists()

    def test_vlad_needs_codebook_or_k(self, videos, tmp_path):
        code = run(
            "vlad", "--frames", *videos["paths"],
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1

    def test_vlad_reads_codebook_before_frames(self, tmp_path, capsys):
        frames = tmp_path / "v.bin"
        frames.write_bytes(b"\x00")
        codebook = tmp_path / "codebook.hkcb"
        codebook.write_bytes(b"nope")
        out = tmp_path / "vlad.csv"
        code = run("vlad", "--frames", str(frames), "--codebook", str(codebook),
                   "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == (
            "parse error: not a codebook container\n")
        assert not out.exists()


class TestProvenance:
    def test_argument_with_line_break_stays_on_one_line(self, videos,
                                                        tmp_path):
        """An argument that holds a line break is written as its ``repr``,
        so the vector CSV still reads back; every other one as given."""
        out = str(tmp_path / "p\nq.csv")
        argv = ["pool", "--frames", *videos["paths"], "--out", out]
        assert run(*argv) == 0
        with open(out) as handle:
            header = handle.readline()
        assert header == "# hierkit {} {} {!r}\n".format(
            __version__, " ".join(argv[:-1]), out)
        assert run("kernel", "--x", out, "--out",
                   str(tmp_path / "gram.csv")) == 0


class TestVladMemory:
    """``vlad`` holds the frames once: k-means runs on one stack that the
    videos are then encoded from, and with ``--codebook`` each video is
    encoded as it is read. 400 x 128 frames a video and k = 64, as in the
    event_encode benchmark; 12 videos' frames are 4.7 MiB as float64."""

    @staticmethod
    def write_videos(tmp_path, count):
        rng = np.random.default_rng(7)
        words = rng.random((64, 128))
        paths = []
        for i in range(count):
            frames = (words[rng.integers(64, size=400)]
                      + 0.01 * rng.random((400, 128)))
            path = tmp_path / f"v{i:02d}.bin"
            path.write_bytes(write_frames_bin(frames))
            paths.append(str(path))
        return words, paths

    @staticmethod
    def traced_vlad(*argv):
        tracemalloc.start()
        try:
            code = run("vlad", "--format", "bin", *argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        return peak

    def test_fit_holds_the_frames_once(self, tmp_path):
        # k-means on a stacked copy beside the per-video matrices, then the
        # output as one text, peaked at 12.4 MiB traced; on the one stack
        # the videos are encoded from, written a line at a time, at 9.5 MiB
        _, paths = self.write_videos(tmp_path, 12)
        peak = self.traced_vlad("--frames", *paths, "--k", "64",
                                "--out", str(tmp_path / "vlad.csv"))
        assert peak < 11 * 2**20

    def test_codebook_encodes_each_video_as_read(self, tmp_path):
        # every video read before the first is encoded: 12.2 MiB traced for
        # 12 videos, 24.3 MiB for 24; each encoded as it is read, its 64 KiB
        # encoding kept, then stacked: 2.8 and 4.3 MiB; each encoded, written
        # and dropped as it is read: 1.9 and 1.8 MiB, so 12 more videos add
        # neither frames nor encodings
        words, paths = self.write_videos(tmp_path, 24)
        codebook = tmp_path / "codebook.hkcb"
        codebook.write_bytes(write_codebook(Codebook(centroids=words, seed=0)))
        twelve, twenty_four = (
            self.traced_vlad("--frames", *paths[:count], "--codebook",
                             str(codebook), "--out", str(tmp_path / "vlad.csv"))
            for count in (12, 24)
        )
        assert twelve < 4 * 2**20
        assert twenty_four - twelve < 0.25 * 2**20


class TestEncodingGoldenBytes:
    """``pool`` and ``vlad`` outputs keep their exact bytes whatever order
    or arithmetic the encoders use inside. The frame set holds repeated
    frames and a first column with ties, 0.0 against -0.0 among them. The
    chain runs from the output directory with relative paths, so the
    provenance lines hold no temporary path; a version bump changes them
    and needs new digests."""

    DIGESTS = {
        "pool.csv":
            "e88cfdf4308c4b5049c3f27ab961bf2572341f4799a3f3fdb247ea32b914c7b1",
        "vlad.csv":
            "e0371c46a95b91728d3b6ae01cd89c8deb349a13b4637fd72a8bd902de82185b",
        "codebook.hkcb":
            "a8517d1d8f343f94e9aa4b0e0116380a67c3a08ff17bd06c26e8b4232930ac43",
        "vlad_reuse.csv":
            "c7a165e97b4184103eaa6f3fa75983873e8d89265f952d3b7370e82ea30eceb7",
    }

    @staticmethod
    def write_frame_set():
        rng = np.random.default_rng(31)

        def draw(n):
            # magnitudes over six decades, so float64 sums of these float32
            # values round and their order shows in the output bits
            scale = 10.0 ** rng.uniform(-3, 3, size=(n, 5))
            return (rng.normal(size=(n, 5)) * scale).astype(np.float32)

        plain = draw(12)
        dup = draw(7)[[0, 1, 2, 3, 1, 4, 5, 6, 0, 3, 5, 1]]  # repeats
        tied = draw(30)
        tied[:, 0] = rng.choice([0.5, -0.25, 0.0, -0.0, 1.0], size=30)
        names = []
        for name, frames in (("plain", plain), ("dup", dup), ("tied", tied)):
            path = f"{name}.bin"
            with open(path, "wb") as handle:
                handle.write(write_frames_bin(frames))
            names.append(path)
        return names

    def test_pool_and_vlad_bytes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        frames = self.write_frame_set()
        assert run("pool", "--frames", *frames, "--out", "pool.csv") == 0
        assert run(
            "vlad", "--frames", *frames, "--k", "4", "--seed", "0",
            "--save-codebook", "codebook.hkcb", "--out", "vlad.csv",
        ) == 0
        assert run(
            "vlad", "--frames", *frames, "--codebook", "codebook.hkcb",
            "--out", "vlad_reuse.csv",
        ) == 0
        got = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in self.DIGESTS
        }
        assert got == self.DIGESTS


class TestModelCommands:
    def make_gram(self, videos, tmp_path):
        pooled = tmp_path / "pooled.csv"
        run("pool", "--frames", *videos["paths"], "--out", str(pooled))
        gram = tmp_path / "gram.csv"
        run("kernel", "--x", str(pooled), "--out", str(gram))
        return pooled, gram

    def test_kernel_diag_is_one(self, videos, tmp_path):
        _, gram = self.make_gram(videos, tmp_path)
        lines = [
            l for l in gram.read_text().splitlines() if not l.startswith("#")
        ]
        assert lines[0].startswith("cols,vid0,")
        first_row = lines[1].split(",")
        assert first_row[0] == "vid0"
        assert float(first_row[1]) == 1.0

    def test_kernel_rectangular_requires_gamma(self, videos, tmp_path):
        pooled, _ = self.make_gram(videos, tmp_path)
        out = tmp_path / "rows.csv"
        code = run(
            "kernel", "--x", str(pooled), "--y", str(pooled), "--out", str(out)
        )
        assert code == 1
        assert not out.exists()
        code = run(
            "kernel", "--x", str(pooled), "--y", str(pooled),
            "--gamma", "0.5", "--out", str(out),
        )
        assert code == 0

    def expected_gram(self, argv, x_path, y_path=None, gamma=None):
        """The kernel file rendered from the per-row oracle distances."""
        x_ids, x = read_vectors_csv(x_path.read_text())
        y_ids, y = x_ids, None
        if y_path is not None:
            y_ids, y = read_vectors_csv(y_path.read_text())
        dists = oracle_chi2_distances(x, y)
        if gamma is None:
            gamma = oracle_chi2_gamma(dists)
        prov = f"hierkit {__version__} " + " ".join(argv)
        return "".join(write_gram_csv(
            x_ids, y_ids, np.exp(-gamma * dists),
            header=f"{prov} | gamma={fmt(gamma)}",
        )).encode()

    def test_kernel_auto_gamma_matches_oracle_bytes(self, videos, tmp_path):
        pooled, _ = self.make_gram(videos, tmp_path)
        out = tmp_path / "auto.csv"
        argv = ["kernel", "--x", str(pooled), "--out", str(out)]
        assert run(*argv) == 0
        assert out.read_bytes() == self.expected_gram(argv, pooled)

    def test_kernel_rows_with_gamma_match_oracle_bytes(self, videos, tmp_path):
        pooled, _ = self.make_gram(videos, tmp_path)
        test = tmp_path / "test.csv"
        run("pool", "--frames", *videos["paths"][1:4], "--out", str(test))
        out = tmp_path / "rows.csv"
        argv = ["kernel", "--x", str(test), "--y", str(pooled),
                "--gamma", "0.7", "--out", str(out)]
        assert run(*argv) == 0
        assert out.read_bytes() == self.expected_gram(
            argv, test, pooled, gamma=0.7
        )

    def test_train_score_fuse_eval(self, videos, tmp_path):
        _, gram = self.make_gram(videos, tmp_path)
        model = tmp_path / "model.bin"
        assert run(
            "train-svm", "--gram", str(gram), "--labels", videos["labels"],
            "--c", "100", "--out", str(model),
        ) == 0

        scores = tmp_path / "scores.csv"
        assert run(
            "score", "--model", str(model), "--gram-rows", str(gram),
            "--out", str(scores),
        ) == 0

        fused = tmp_path / "fused.csv"
        assert run(
            "fuse", "--scores", str(scores), "--scores", str(scores),
            "--out", str(fused),
        ) == 0

        report = tmp_path / "report.txt"
        assert run(
            "eval", "--scores", str(scores), "--labels", videos["labels"],
            "--events", "toy", "--out", str(report),
        ) == 0
        text = report.read_text()
        assert "ap.toy=1.0" in text
        assert "map=1.0" in text

    def test_score_is_one_product_per_row(self, tmp_path):
        """Score bytes and ``svm_score`` are pinned to one product per row,
        on a Gram whose batched ``rows @ coef`` rounds differently."""
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n, m = int(rng.integers(20, 60)), int(rng.integers(5, 30))
            rows = rng.random((m, n))
            labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            model = SvmModel(alpha=rng.random(n), labels=labels, bias=0.1,
                             C=1.0, train_ids=[f"t{i}" for i in range(n)])
            per_row = [float(row @ model.coef + model.bias) for row in rows]
            if per_row != (rows @ model.coef + model.bias).tolist():
                break
        else:
            raise AssertionError("batched and per-row products agree on "
                                 "every Gram tried")
        assert svm_score(model, rows).tolist() == per_row
        model_path = tmp_path / "model.bin"
        model_path.write_bytes(write_model(model))
        gram = tmp_path / "rows.csv"
        row_ids = [f"q{j}" for j in range(m)]
        gram.write_text("".join(write_gram_csv(row_ids, model.train_ids, rows)))
        out = tmp_path / "scores.csv"
        argv = ["score", "--model", str(model_path), "--gram-rows", str(gram),
                "--out", str(out)]
        assert run(*argv) == 0
        prov = f"hierkit {__version__} " + " ".join(argv)
        assert out.read_text() == "".join(write_scores_csv(
            list(zip(row_ids, per_row)), header=prov))

    def test_eval_perfect_ranking_to_stdout(self, tmp_path, capsys):
        scores = tmp_path / "s.csv"
        labels = tmp_path / "l.csv"
        scores.write_text("a,0.9\nb,0.8\nc,0.1\n")
        labels.write_text("a,1\nb,1\nc,0\n")
        assert run("eval", "--scores", str(scores), "--labels", str(labels)) == 0
        out = capsys.readouterr().out
        assert "ap.0=1.0" in out
        assert "map=1.0" in out

    def test_score_rejects_mismatched_columns(self, videos, tmp_path):
        _, gram = self.make_gram(videos, tmp_path)
        model = tmp_path / "model.bin"
        run(
            "train-svm", "--gram", str(gram), "--labels", videos["labels"],
            "--out", str(model),
        )
        bad = tmp_path / "bad.csv"
        bad.write_text("cols,x1,x2\nq,0.5,0.5\n")
        out = tmp_path / "scores.csv"
        code = run(
            "score", "--model", str(model), "--gram-rows", str(bad),
            "--out", str(out),
        )
        assert code == 3
        assert not out.exists()


@pytest.fixture(scope="module")
def chain_inputs(tmp_path_factory):
    """One input file for every subcommand, made by running the chain."""
    d = tmp_path_factory.mktemp("inputs")
    (d / "is_a.tsv").write_text("R A\nR B\nR C\nA A1\nA A2\nB B1\nB1 B2\n")
    (d / "counts.tsv").write_text(
        "A 10\nA1 3\nA2 4\nB 1\nB1 2\nB2 5\nC 100\n")
    (d / "images.tsv").write_text("i1\tA\ni2\tC\ni3\tA1\n")
    rng = np.random.default_rng(5)
    frames = []
    for i in range(4):
        path = d / f"vid{i}.csv"
        path.write_text(oracle_write_frames_csv(rng.dirichlet([4, 2, 1], 6)))
        frames.append(str(path))
    (d / "labels.csv").write_text("vid0,1\nvid1,1\nvid2,0\nvid3,0\n")
    taxonomy = ["--isa", str(d / "is_a.tsv"), "--counts", str(d / "counts.tsv")]
    for argv in (
        ["reorg-bottomup", *taxonomy, "--tb", "20", "--tp", "10", "--ts", "2",
         "--out", str(d / "lm.tsv"), "--plan-out", str(d / "plan.tsv")],
        ["pool", "--frames", *frames, "--out", str(d / "pooled.csv")],
        ["kernel", "--x", str(d / "pooled.csv"), "--out", str(d / "gram.csv")],
        ["train-svm", "--gram", str(d / "gram.csv"), "--labels",
         str(d / "labels.csv"), "--out", str(d / "model.bin")],
        ["score", "--model", str(d / "model.bin"), "--gram-rows",
         str(d / "gram.csv"), "--out", str(d / "scores.csv")],
    ):
        assert main(argv) == 0
    scores = ["--scores", str(d / "scores.csv")]
    return {
        "validate": ["validate", *taxonomy],
        "stats": ["stats", *taxonomy],
        "reorg-bottomup": ["reorg-bottomup", *taxonomy, "--tb", "20",
                           "--tp", "10", "--ts", "2"],
        "reorg-topdown": ["reorg-topdown", *taxonomy, "--tt", "5",
                          "--budget", "3"],
        "export-trainlist": ["export-trainlist", "--labelmap",
                             str(d / "lm.tsv"), "--images",
                             str(d / "images.tsv"), "--plan",
                             str(d / "plan.tsv")],
        "pool": ["pool", "--frames", *frames],
        "vlad": ["vlad", "--frames", *frames, "--k", "2"],
        "kernel": ["kernel", "--x", str(d / "pooled.csv")],
        "train-svm": ["train-svm", "--gram", str(d / "gram.csv"),
                      "--labels", str(d / "labels.csv")],
        "score": ["score", "--model", str(d / "model.bin"), "--gram-rows",
                  str(d / "gram.csv")],
        "fuse": ["fuse", *scores, *scores],
        "eval": ["eval", *scores, "--labels", str(d / "labels.csv")],
    }


class TestUnwritableOutput:
    """An output that cannot be written is a usage error (exit 1) naming
    it, with no traceback and no temp file left behind."""

    @pytest.mark.parametrize("target", ["missing_dir", "existing_dir"])
    @pytest.mark.parametrize("subcommand", [
        "validate", "stats", "reorg-bottomup", "reorg-topdown",
        "export-trainlist", "pool", "vlad", "kernel", "train-svm", "score",
        "fuse", "eval",
    ])
    def test_bad_out_is_usage_error(self, chain_inputs, tmp_path, capsys,
                                    subcommand, target):
        out = tmp_path / "out"
        if target == "missing_dir":
            out = tmp_path / "absent" / "out"
        else:
            out.mkdir()
        code = main(chain_inputs[subcommand] + ["--out", str(out)])
        assert code == 1
        assert f"usage error: cannot write {out}: " in capsys.readouterr().err
        assert os.listdir(tmp_path) == (
            [] if target == "missing_dir" else ["out"])
        if target == "existing_dir":
            assert os.listdir(out) == []

    def test_bottomup_writes_out_before_plan_out(self, chain_inputs, tmp_path,
                                                 capsys):
        out = tmp_path / "lm.tsv"
        code = main(chain_inputs["reorg-bottomup"] + [
            "--out", str(out), "--plan-out", str(tmp_path / "absent" / "p")])
        assert code == 1
        assert "cannot write" in capsys.readouterr().err
        assert read_label_map(out.read_text()).classes
        assert os.listdir(tmp_path) == ["lm.tsv"]

    def test_vlad_writes_codebook_before_out(self, chain_inputs, tmp_path,
                                             capsys):
        out = tmp_path / "vlad.csv"
        code = main(chain_inputs["vlad"] + [
            "--save-codebook", str(tmp_path / "absent" / "cb"),
            "--out", str(out)])
        assert code == 1
        assert "cannot write" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


    @pytest.mark.parametrize("subcommand,first,second", [
        ("reorg-bottomup", "--out", "--plan-out"),
        ("vlad", "--out", "--save-codebook"),
    ], ids=["reorg-bottomup", "vlad"])
    def test_colliding_outputs_are_usage_error(self, chain_inputs, tmp_path,
                                               capsys, subcommand, first,
                                               second):
        """Two outputs that resolve to one file: exit 1 naming it, raised
        before any input is read, and nothing written."""
        same = f"{tmp_path}/./same"
        argv = chain_inputs[subcommand] + [
            first, str(tmp_path / "same"), second, same]
        assert main(argv) == 1
        assert (f"usage error: {first} and {second} both name {same}"
                in capsys.readouterr().err)
        argv[2] = str(tmp_path / "absent")  # the first input file
        assert main(argv) == 1
        assert os.listdir(tmp_path) == []


class TestWarnings:
    """A library warning reaches the user as one ``warning:`` line on
    stderr, on every call, whatever the warning filters say, and leaves the
    exit code alone."""

    ZERO = "warning: l1_normalize: zero vector left unchanged"

    @staticmethod
    def _zero_frames(tmp_path):
        path = tmp_path / "zeros.csv"
        path.write_text("0,0\n0,0\n")
        return ["pool", "--frames", str(path), "--out", str(tmp_path / "q.csv")]

    def test_every_in_process_call_prints_it(self, tmp_path, capsys):
        argv = self._zero_frames(tmp_path)
        for _ in range(2):
            assert main(argv) == 0
            assert capsys.readouterr().err.splitlines() == [self.ZERO]

    def test_error_filter_gives_no_traceback(self, tmp_path):
        done = subprocess.run(
            [sys.executable, "-m", "hierkit.cli", *self._zero_frames(tmp_path)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONWARNINGS": "error", "PYTHONPATH":
                 os.path.dirname(os.path.dirname(hierkit.__file__))},
        )
        assert (done.returncode, done.stderr) == (0, self.ZERO + "\n")

    def test_other_warnings_pass_through(self, tmp_path, monkeypatch):
        def overflowing_pool(frames):
            return np.float64(1e308) * np.float64(10.0) * np.ones(2)

        monkeypatch.setattr("hierkit.cli.average_pool", overflowing_pool)
        argv = self._zero_frames(tmp_path)
        with pytest.raises(RuntimeWarning, match="overflow"):
            main(argv)  # under the suite's error::RuntimeWarning filter
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert main(argv) == 0
        assert [w.category for w in seen] == [RuntimeWarning]


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, meta, tmp_path):
        out = tmp_path / "x.tsv"
        code = run(
            "reorg-bottomup", "--isa", meta["isa"], "--counts", meta["counts"],
            "--tb", "1", "--tp", "1", "--ts", "1",
            "--out", str(out), "--bogus",
        )
        assert code == 1
        assert not out.exists()

    def test_missing_subcommand(self):
        assert run() == 1

    def test_help_and_version_exit_zero(self, capsys):
        assert run("--help") == 0
        assert run("--version") == 0
        capsys.readouterr()

    def test_unknown_subcommand(self):
        assert run("frobnicate") == 1

    def test_python_dash_m_runs_main(self):
        env = {**os.environ,
               "PYTHONPATH": os.path.dirname(os.path.dirname(hierkit.__file__))}

        def module(*argv):
            return subprocess.run(
                [sys.executable, "-m", "hierkit.cli", *argv],
                capture_output=True, text=True, env=env, timeout=60,
            )

        version = module("--version")
        assert (version.returncode, version.stdout) == (0, f"{__version__}\n")
        unknown = module("frobnicate")
        assert unknown.returncode == 1
        assert "usage error" in unknown.stderr

    @pytest.mark.parametrize("subcommand", ["pool", "vlad", "score"])
    def test_threads_is_usage_error(self, subcommand, videos, tmp_path):
        model = tmp_path / "model.hksv"
        model.write_bytes(write_model(SvmModel(
            alpha=np.array([0.5, 0.5]), labels=np.array([1.0, -1.0]),
            bias=0.0, C=1.0,
        )))
        rows = tmp_path / "rows.csv"
        rows.write_text("cols,a,b\nx,0.5,0.25\n")
        inputs = {
            "pool": ["--frames", *videos["paths"]],
            "vlad": ["--frames", *videos["paths"], "--k", "2"],
            "score": ["--model", str(model), "--gram-rows", str(rows)],
        }[subcommand]
        out = tmp_path / "out.csv"
        assert run(subcommand, *inputs, "--out", str(out)) == 0
        out.unlink()
        assert run(subcommand, *inputs, "--threads", "2", "--out", str(out)) == 1
        assert not out.exists()

    def test_negative_kmeans_seed_is_contract_violation(self, videos, tmp_path):
        out = tmp_path / "vlad.csv"
        code = run(
            "vlad", "--frames", *videos["paths"], "--k", "2", "--seed", "-1",
            "--out", str(out),
        )
        assert code == 3
        assert not out.exists()

    def test_invalid_model_label_is_parse_error(self, tmp_path):
        blob = write_model(SvmModel(
            alpha=np.array([0.5, 0.5]), labels=np.array([1.0, -1.0]),
            bias=0.0, C=1.0, train_ids=["a", "b"],
        ))
        labels_at = 29 + 8 * 2  # empty provenance, then n, C, bias, alpha
        assert blob[labels_at:labels_at + 2] == b"\x01\xff"
        model = tmp_path / "bad.hksv"
        model.write_bytes(blob[:labels_at] + b"\x05" + blob[labels_at + 1:])
        rows = tmp_path / "rows.csv"
        rows.write_text("cols,a,b\nx,0.5,0.25\n")
        out = tmp_path / "scores.csv"
        code = run(
            "score", "--model", str(model), "--gram-rows", str(rows),
            "--out", str(out),
        )
        assert code == 2
        assert not out.exists()

    def test_model_id_count_other_than_n_is_parse_error(self, tmp_path):
        blob = write_model(SvmModel(
            alpha=np.array([0.5, 0.25, 0.25]),
            labels=np.array([1.0, -1.0, -1.0]),
            bias=0.0, C=1.0, train_ids=["a", "b", "c"],
        ))
        ids_at = 29 + 9 * 3  # empty provenance, then n, C, bias, alpha, labels
        assert blob[ids_at:] == b"\x05\x00\x00\x00a\nb\nc"
        model = tmp_path / "bad.hksv"
        model.write_bytes(blob[:ids_at] + b"\x03\x00\x00\x00a\nb")
        rows = tmp_path / "rows.csv"
        rows.write_text("cols,a,b\nx,0.5,0.25\n")
        out = tmp_path / "scores.csv"
        code = run(
            "score", "--model", str(model), "--gram-rows", str(rows),
            "--out", str(out),
        )
        assert code == 2
        assert not out.exists()

    def test_truncated_codebook_is_parse_error(self, videos, tmp_path):
        codebook = tmp_path / "short.hkcb"
        codebook.write_bytes(b"HKCB\x01" + bytes(5))
        out = tmp_path / "vlad.csv"
        code = run(
            "vlad", "--frames", *videos["paths"], "--codebook", str(codebook),
            "--out", str(out),
        )
        assert code == 2
        assert not out.exists()

    def test_truncated_model_is_parse_error(self, tmp_path):
        model = tmp_path / "short.hksv"
        model.write_bytes(b"HKSV\x01" + bytes(5))
        rows = tmp_path / "rows.csv"
        rows.write_text("cols,a\nx,0.5\n")
        out = tmp_path / "scores.csv"
        code = run(
            "score", "--model", str(model), "--gram-rows", str(rows),
            "--out", str(out),
        )
        assert code == 2
        assert not out.exists()

    def test_malformed_counts_is_parse_error(self, meta, tmp_path):
        bad = tmp_path / "bad_counts.tsv"
        bad.write_text("A ten\n")
        code = run(
            "validate", "--isa", meta["isa"], "--counts", str(bad)
        )
        assert code == 2

    def test_repeated_synset_in_counts_is_parse_error(self, meta, tmp_path,
                                                      capsys):
        counts = tmp_path / "repeated.tsv"
        counts.write_text("A 5\nC 1\nA 7\n")
        assert run("validate", "--isa", meta["isa"],
                   "--counts", str(counts)) == 2
        assert "line 3: duplicate synset id 'A'" in capsys.readouterr().err

    def test_reserved_root_id_in_counts_is_contract_violation(self, tmp_path,
                                                              capsys):
        """Under a synthetic root, ``__root__`` in counts.tsv would give
        that zero-count root images."""
        isa = tmp_path / "is_a.tsv"
        counts = tmp_path / "counts.tsv"
        isa.write_text("a b\nc d\n")
        counts.write_text("b 3\nd 4\n__root__ 9\n")
        assert run("validate", "--isa", str(isa), "--counts", str(counts)) == 3
        assert "reserved id '__root__'" in capsys.readouterr().err

    def test_missing_file_is_parse_error(self, meta):
        code = run(
            "validate", "--isa", meta["isa"], "--counts", "/nonexistent.tsv"
        )
        assert code == 2

    def test_colliding_frame_basenames_are_contract_violation(self, videos,
                                                              tmp_path,
                                                              capsys):
        other = tmp_path / "other"
        other.mkdir()
        twin = other / os.path.basename(videos["paths"][0])
        twin.write_text(oracle_write_frames_csv(np.full((2, 3), 0.5)))
        out = tmp_path / "pooled.csv"
        assert run("pool", "--frames", *videos["paths"], str(twin),
                   "--out", str(out)) == 3
        assert "frame file basenames collide" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["pool", "vlad"])
    @pytest.mark.parametrize("stem", [
        "c,1", "p\nq", "p\u2028q", " v", "\tv", "#v1",
    ], ids=["comma", "newline", "line_separator", "space", "tab", "hash"])
    def test_frame_id_a_csv_cannot_carry_is_contract_violation(
            self, tmp_path, capsys, subcommand, stem):
        """Checked before any frames file is read: both files here are
        broken and would be a parse error (exit 2)."""
        broken = tmp_path / "a.csv"
        broken.write_text("x\n")
        bad = tmp_path / f"{stem}.csv"
        bad.write_text("x\n")
        out = tmp_path / "out.csv"
        argv = [subcommand, "--frames", str(broken), str(bad),
                "--out", str(out)]
        assert run(*argv, *(["--k", "2"] if subcommand == "vlad" else [])) == 3
        assert capsys.readouterr().err == (
            f"contract violation: frame file id {stem!r} cannot be a vector "
            "CSV id\n")
        assert not out.exists()

    def test_frame_ids_a_csv_can_carry_read_back(self, tmp_path):
        """Inner and trailing blanks and an inner ``#`` stay in the id."""
        stems = ["v 1", "v1 ", "v#1"]
        paths = []
        for stem in stems:
            paths.append(str(tmp_path / f"{stem}.csv"))
            with open(paths[-1], "w") as handle:
                handle.write(oracle_write_frames_csv(np.full((2, 3), 0.5)))
        out = tmp_path / "pooled.csv"
        assert run("pool", "--frames", *paths, "--out", str(out)) == 0
        assert read_vectors_csv(out.read_text())[0] == stems

    def test_binary_frames_declaring_no_frames_is_parse_error(self, tmp_path,
                                                              capsys):
        frames = tmp_path / "empty.bin"
        frames.write_bytes((0).to_bytes(4, "little") + (3).to_bytes(4, "little"))
        out = tmp_path / "pooled.csv"
        assert run("pool", "--frames", str(frames), "--out", str(out)) == 2
        assert "declares an empty matrix" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("gram,labels,message", [
        ("cols,a,b\nb,1.0,0.5\na,0.5,1.0\n", "a,1\nb,0\n",
         "training gram must have matching row/col ids"),
        ("cols,a,b\na,1.0,0.5\nb,0.5,1.0\n", "a,1\n",
         "labels missing for 1 items, e.g. 'b'"),
    ], ids=["row_ids_differ_from_cols", "labels_missing"])
    def test_train_svm_contract_violations(self, tmp_path, capsys, gram,
                                           labels, message):
        (tmp_path / "gram.csv").write_text(gram)
        (tmp_path / "labels.csv").write_text(labels)
        model = tmp_path / "model.bin"
        assert run("train-svm", "--gram", str(tmp_path / "gram.csv"),
                   "--labels", str(tmp_path / "labels.csv"),
                   "--out", str(model)) == 3
        assert f"contract violation: {message}" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("extra,message", [
        (["--labels", "labels.csv"], "--scores and --labels must be paired"),
        (["--events", "E1,E2"], "--events count must match --scores count"),
    ], ids=["unpaired", "events_count"])
    def test_eval_usage_errors(self, chain_inputs, tmp_path, capsys, extra,
                               message):
        out = tmp_path / "report.txt"
        assert main(chain_inputs["eval"] + extra + ["--out", str(out)]) == 1
        assert f"usage error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_item_without_label_is_contract_violation(
            self, chain_inputs, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_text("vid0,1\nvid1,1\nvid2,0\n")
        argv = list(chain_inputs["eval"])
        argv[argv.index("--labels") + 1] = str(labels)
        out = tmp_path / "report.txt"
        assert main(argv + ["--out", str(out)]) == 3
        assert ("contract violation: no label for item 'vid3' in event 0"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_missing_model_is_parse_error(self, chain_inputs, tmp_path,
                                          capsys):
        argv = list(chain_inputs["score"])
        argv[argv.index("--model") + 1] = str(tmp_path / "absent.bin")
        out = tmp_path / "scores.csv"
        assert main(argv + ["--out", str(out)]) == 2
        assert "cannot read" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_frames_file_is_parse_error(self, tmp_path):
        code = run(
            "pool", "--frames", str(tmp_path / "absent.csv"),
            "--out", str(tmp_path / "out.csv"),
        )
        assert code == 2

    def test_cycle_is_contract_violation(self, tmp_path):
        isa = tmp_path / "isa.tsv"
        counts = tmp_path / "c.tsv"
        isa.write_text("A B\nB A\n")
        counts.write_text("A 1\n")
        assert run("validate", "--isa", str(isa), "--counts", str(counts)) == 3

    def test_one_class_training_is_contract_violation(self, videos, tmp_path):
        pooled = tmp_path / "pooled.csv"
        run("pool", "--frames", *videos["paths"], "--out", str(pooled))
        gram = tmp_path / "gram.csv"
        run("kernel", "--x", str(pooled), "--out", str(gram))
        labels = tmp_path / "all_pos.csv"
        labels.write_text("".join(f"vid{i},1\n" for i in range(6)))
        model = tmp_path / "model.bin"
        code = run(
            "train-svm", "--gram", str(gram), "--labels", str(labels),
            "--out", str(model),
        )
        assert code == 3
        assert not model.exists()

    def test_repeated_label_id_is_parse_error(self, videos, tmp_path, capsys):
        pooled = tmp_path / "pooled.csv"
        run("pool", "--frames", *videos["paths"], "--out", str(pooled))
        gram = tmp_path / "gram.csv"
        run("kernel", "--x", str(pooled), "--out", str(gram))
        labels = tmp_path / "repeated.csv"
        labels.write_text(
            "".join(f"vid{i},{int(i < 3)}\n" for i in range(6)) + "vid0,0\n"
        )
        model = tmp_path / "model.bin"
        code = run(
            "train-svm", "--gram", str(gram), "--labels", str(labels),
            "--out", str(model),
        )
        assert code == 2
        assert "duplicate item id 'vid0'" in capsys.readouterr().err
        assert not model.exists()


    @pytest.mark.parametrize("subcommand", ["pool", "vlad"])
    def test_mixed_frame_dims_is_contract_violation(self, subcommand, videos,
                                                    tmp_path, capsys):
        odd = tmp_path / "odd.csv"
        odd.write_text(oracle_write_frames_csv(np.full((4, 5), 0.2)))
        extra = ["--k", "2"] if subcommand == "vlad" else []
        out = tmp_path / "out.csv"
        code = run(subcommand, "--frames", *videos["paths"], str(odd),
                   *extra, "--out", str(out))
        assert code == 3
        assert str(odd) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["pool", "vlad"])
    def test_overflowing_frames_are_contract_violation(self, subcommand,
                                                       tmp_path):
        frames = tmp_path / "huge.csv"
        frames.write_text("1e308,0\n0,1e308\n")
        extra = ["--k", "2"] if subcommand == "vlad" else []
        out = tmp_path / "out.csv"
        assert run(subcommand, "--frames", str(frames), *extra,
                   "--out", str(out)) == 3
        assert not out.exists()

    def test_infinite_c_is_contract_violation(self, videos, tmp_path):
        pooled = tmp_path / "pooled.csv"
        run("pool", "--frames", *videos["paths"], "--out", str(pooled))
        gram = tmp_path / "gram.csv"
        run("kernel", "--x", str(pooled), "--out", str(gram))
        model = tmp_path / "model.bin"
        code = run(
            "train-svm", "--gram", str(gram), "--labels", videos["labels"],
            "--c", "inf", "--out", str(model),
        )
        assert code == 3
        assert not model.exists()

    @pytest.mark.parametrize("gamma", ["inf", "nan", "0"])
    def test_non_finite_or_zero_gamma_is_contract_violation(self, gamma,
                                                            tmp_path):
        vectors = tmp_path / "v.csv"
        vectors.write_text("a,0.5,0.5\nb,0.25,0.75\n")
        out = tmp_path / "gram.csv"
        code = run("kernel", "--x", str(vectors), "--gamma", gamma,
                   "--out", str(out))
        assert code == 3
        assert not out.exists()

    def test_overflowing_vectors_are_contract_violation(self, tmp_path):
        vectors = tmp_path / "huge.csv"
        vectors.write_text("a,1e308,0.0\nb,0.0,1e308\n")
        out = tmp_path / "gram.csv"
        assert run("kernel", "--x", str(vectors), "--out", str(out)) == 3
        assert not out.exists()

    def test_signed_vlad_vectors_are_contract_violation(self, videos,
                                                        tmp_path, capsys):
        """VLAD's signed square roots are no chi-squared input."""
        vlad = tmp_path / "vlad.csv"
        assert run("vlad", "--frames", *videos["paths"], "--k", "4",
                   "--out", str(vlad)) == 0
        out = tmp_path / "gram.csv"
        capsys.readouterr()
        assert run("kernel", "--x", str(vlad), "--out", str(out)) == 3
        assert "non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_gram_ids_is_parse_error(self, videos, tmp_path):
        gram = tmp_path / "dup.csv"
        gram.write_text("cols,vid0,vid0\nvid0,1.0,0.5\nvid0,0.5,1.0\n")
        model = tmp_path / "model.bin"
        code = run(
            "train-svm", "--gram", str(gram), "--labels", videos["labels"],
            "--out", str(model),
        )
        assert code == 2
        assert not model.exists()


def _readme_commands():
    """Every ``hierkit ...`` command in README's ``sh`` blocks, as the
    argv after ``hierkit``: ``\\`` continuations joined, ``#`` comments
    dropped."""
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "README.md")
    with open(readme, encoding="utf-8") as handle:
        blocks = re.findall(r"^```sh\n(.*?)^```", handle.read(),
                            re.MULTILINE | re.DOTALL)
    return [
        argv[1:] for block in blocks
        for line in block.replace("\\\n", " ").splitlines()
        if (argv := shlex.split(line, comments=True))[:1] == ["hierkit"]
    ]


def test_readme_commands_parse():
    """Every documented command parses, and every subcommand has one; none
    is run."""
    parser = _build_parser()
    commands = _readme_commands()
    for argv in commands:
        parser.parse_args(argv)
    subcommands = next(action.choices for action in parser._actions
                       if isinstance(action, argparse._SubParsersAction))
    assert {argv[0] for argv in commands} == set(subcommands)
