"""Label-map construction and file round-trips."""

import os

import pytest

from hierkit.errors import ContractViolation, ParseError
from hierkit.io import atomic_write_text
from hierkit.labelmap import (
    LabelClass,
    LabelMap,
    from_members,
    read_label_map,
    write_label_map,
)


def sample_map():
    return from_members(
        members={"n02": {"n02", "n03"}, "n01": {"n01"}},
        assigned_counts={"n02": 12, "n01": 7},
        unassigned=[("n09", 4)],
        provenance="bottomup order=roll,bind,promote,subsample "
        "t_b=10 t_p=2 t_s=5 seed=1",
    )


class TestConstruction:
    def test_ids_follow_sorted_representatives(self):
        label_map = sample_map()
        assert [c.class_id for c in label_map.classes] == [0, 1]
        assert [c.representative for c in label_map.classes] == ["n01", "n02"]

    def test_members_sorted(self):
        label_map = sample_map()
        assert label_map.classes[1].members == ("n02", "n03")

    def test_totals(self):
        label_map = sample_map()
        assert sum(c.assigned_count for c in label_map.classes) == 19
        assert label_map.total_unassigned() == 4

    def test_class_of_synset(self):
        assert sample_map().class_of_synset() == {
            "n01": 0, "n02": 1, "n03": 1
        }


class TestRoundTrip:
    def test_write_read_identity(self):
        label_map = sample_map()
        text = "".join(write_label_map(label_map))
        parsed = read_label_map(text)
        assert parsed.classes == label_map.classes
        assert parsed.unassigned == label_map.unassigned
        assert parsed.provenance == label_map.provenance
        assert "".join(write_label_map(parsed)) == text

    def test_empty_unassigned_section(self):
        label_map = LabelMap(
            classes=[
                LabelClass(
                    class_id=0,
                    representative="n01",
                    members=("n01",),
                    assigned_count=3,
                )
            ],
            provenance="topdown t_t=1 budget=1",
        )
        parsed = read_label_map("".join(write_label_map(label_map)))
        assert parsed.classes == label_map.classes
        assert parsed.unassigned == []

    def test_class_without_members_not_written(self):
        empty = LabelMap(classes=[LabelClass(0, "A", (), 3)])
        with pytest.raises(ContractViolation, match="class 0 has no members"):
            "".join(write_label_map(empty))

    @pytest.mark.parametrize("existing", [None, "old\n"], ids=["new", "old"])
    def test_class_without_members_leaves_no_file(self, tmp_path, existing):
        target = tmp_path / "map.tsv"
        if existing is not None:
            target.write_text(existing)
        label_map = LabelMap(classes=[LabelClass(0, "A", ("A",), 3),
                                      LabelClass(1, "B", (), 3)])
        with pytest.raises(ContractViolation, match="class 1 has no members"):
            atomic_write_text(str(target), write_label_map(label_map))
        assert os.listdir(tmp_path) == ([] if existing is None else ["map.tsv"])
        if existing is not None:
            assert target.read_text() == existing

    def test_missing_header_rejected(self):
        with pytest.raises(ParseError):
            read_label_map("0\tn01\t3\tn01\n")

    def test_malformed_class_line_rejected(self):
        text = "".join(write_label_map(sample_map())) + "not\tenough\n"
        with pytest.raises(ParseError):
            read_label_map(text.replace("#UNASSIGNED\n", ""))

    def test_bad_count_reports_line(self):
        text = "# hierkit-labelmap v1 p\n0\tn01\tmany\tn01\n#UNASSIGNED\n"
        with pytest.raises(ParseError, match="line 2"):
            read_label_map(text)


class TestValidity:
    @pytest.mark.parametrize("body,message", [
        ("-1\tA\t3\tA\n", "line 2: negative class id -1"),
        ("0\tA\t3\tA\n0\tB\t2\tB\n", "line 3: duplicate class id 0"),
        ("0\tA\t3\tA\n1\tB\t2\tB,A\n",
         "line 3: synset 'A' is in classes 0 and 1"),
        ("0\tA\t-5\tA\n", "line 2: negative count -5"),
        ("0\tA\t3\tA\n#UNASSIGNED\nD\t-3\n", "line 4: negative count -3"),
        ("0\tA\t3\tA\n#UNASSIGNED\nD\t4\nE\t1\nD\t4\n",
         "line 6: duplicate synset id 'D'"),
        ("0\tA\t5\tA,B\n#UNASSIGNED\nB\t3\n",
         "synset 'B' is in class 0 and unassigned"),
    ], ids=["negative_id", "duplicate_id", "shared_member", "negative_count",
            "negative_unassigned_count", "duplicate_unassigned",
            "member_unassigned"])
    def test_invalid_map_rejected(self, body, message):
        text = "# hierkit-labelmap v1 p\n" + body + "#UNASSIGNED\n"
        with pytest.raises(ParseError) as info:
            read_label_map(text)
        assert str(info.value) == message

    def test_member_repeated_within_one_class_accepted(self):
        text = "# hierkit-labelmap v1 p\n0\tA\t3\tA,A\n#UNASSIGNED\n"
        assert read_label_map(text).class_of_synset() == {"A": 0}
