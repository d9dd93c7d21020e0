"""CLI subcommands: happy paths, exit codes, determinism."""

import numpy as np
import pytest

from hierkit import __version__
from hierkit.cli import main
from hierkit.io import (
    fmt,
    read_vectors_csv,
    write_frames_bin,
    write_frames_csv,
    write_gram_csv,
)
from hierkit.labelmap import read_label_map

from oracles import oracle_chi2_distances


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
        path.write_text(write_frames_csv(frames))
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

    def test_vlad_needs_codebook_or_k(self, videos, tmp_path):
        code = run(
            "vlad", "--frames", *videos["paths"],
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1


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
            pairs = len(x_ids) * (len(x_ids) - 1) / 2
            gamma = 1.0 / (float(np.triu(dists, k=1).sum()) / pairs)
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


class TestThreads:
    def test_thread_count_does_not_change_output(self, videos, tmp_path):
        compare = {}
        for threads in ("1", "8"):
            out = tmp_path / f"pooled{threads}.csv"
            run(
                "pool", "--frames", *videos["paths"],
                "--threads", threads, "--out", str(out),
            )
            compare[threads] = out.read_bytes()
        assert compare["1"].split(b"\n", 1)[1] == compare["8"].split(b"\n", 1)[1]
