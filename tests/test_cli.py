"""CLI subcommands: happy paths, exit codes, determinism."""

import hashlib
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import hierkit
from hierkit import __version__
from hierkit.cli import main
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
        (r"^(0\t\d+\t9\n)", r"\1\1"),          # class id listed twice
        (r"^0\t\d+\t", "0\t4\t"),               # target above t_s=3
    ], ids=["seed_field_x", "negative_target", "negative_header_seed",
            "unknown_rule", "negative_t_s", "zero_t_s", "duplicate_class",
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

    @pytest.mark.parametrize("with_plan", [False, True], ids=["all", "plan"])
    def test_export_bytes_match_oracle(self, tmp_path, with_plan):
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
    ], ids=["negative_id", "duplicate_id", "shared_member", "negative_count",
            "negative_unassigned_count"])
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

# the library's own warnings about degenerate but valid input; any other
# RuntimeWarning (a numpy overflow, say) still fails the run
_EXPECTED_WARNINGS = r"(l1_normalize|kmeans_fit|vlad_encode|train_kernel_svm): "


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
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message=_EXPECTED_WARNINGS,
                                    category=RuntimeWarning)
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

    def test_vlad_on_identical_frames(self, tmp_path):
        path = tmp_path / "same.bin"
        path.write_bytes(write_frames_bin(np.ones((6, 3))))
        out = tmp_path / "vlad.csv"
        with pytest.warns(RuntimeWarning, match="zero aggregate"):
            code = run(
                "vlad", "--frames", str(path), "--k", "3", "--out", str(out),
            )
        assert code == 0
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
        return write_gram_csv(
            x_ids, y_ids, np.exp(-gamma * dists),
            header=f"{prov} | gamma={fmt(gamma)}",
        ).encode()

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
        gram.write_text(write_gram_csv(row_ids, model.train_ids, rows))
        out = tmp_path / "scores.csv"
        argv = ["score", "--model", str(model_path), "--gram-rows", str(gram),
                "--out", str(out)]
        assert run(*argv) == 0
        prov = f"hierkit {__version__} " + " ".join(argv)
        assert out.read_text() == write_scores_csv(
            list(zip(row_ids, per_row)), header=prov)

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

    def test_missing_file_is_parse_error(self, meta):
        code = run(
            "validate", "--isa", meta["isa"], "--counts", "/nonexistent.tsv"
        )
        assert code == 2

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
