"""Label maps: merged training classes and their synset membership.

Both reorganization routes produce the same artifact by one rule
(``topdown.assign_to_selected``): a synset's images go to its nearest
selected ancestor-or-self, and synsets with none are unassigned. A label
map is the list of training classes, each backed by a disjoint set of
original synsets, plus the unassigned images that were dropped from
training. The on-disk format is line oriented:

    # hierkit-labelmap v1 <provenance>
    <class_id>\\t<representative_synset>\\t<assigned_count>\\t<members,...>
    ...
    #UNASSIGNED
    <synset>\\t<count>

Records follow ``io._records``: blank and ``#`` lines are skipped and
whitespace around a record is ignored. The exact line ``#UNASSIGNED``
starts the unassigned section, read as ``counts.tsv`` is (one line per
synset). Counts and class ids must be >= 0; no synset is both a class
member and unassigned.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import chain

from .errors import ContractViolation, ParseError
from .io import _count_table, _records
from .taxonomy import SynsetId

_HEADER_PREFIX = "# hierkit-labelmap v1"


@dataclass(frozen=True)
class LabelClass:
    class_id: int
    representative: SynsetId
    members: tuple[SynsetId, ...]
    assigned_count: int


@dataclass
class LabelMap:
    classes: list[LabelClass]
    unassigned: list[tuple[SynsetId, int]] = field(default_factory=list)
    provenance: str = ""

    def total_unassigned(self) -> int:
        return sum(count for _, count in self.unassigned)

    def class_of_synset(self) -> dict[SynsetId, int]:
        out: dict[SynsetId, int] = {}
        for cls in self.classes:
            for member in cls.members:
                out[member] = cls.class_id
        return out


def from_members(
    members: dict[SynsetId, set[SynsetId]],
    assigned_counts: dict[SynsetId, int],
    unassigned: list[tuple[SynsetId, int]],
    provenance: str,
) -> LabelMap:
    """Assign consecutive class ids to survivors, sorted by representative."""
    classes = [
        LabelClass(
            class_id=class_id,
            representative=rep,
            members=tuple(sorted(members[rep])),
            assigned_count=assigned_counts[rep],
        )
        for class_id, rep in enumerate(sorted(members))
    ]
    return LabelMap(
        classes=classes,
        unassigned=sorted(unassigned),
        provenance=provenance,
    )


def write_label_map(label_map: LabelMap) -> Iterator[str]:
    """The file's lines; a class with no members is a ContractViolation,
    raised when its line is taken."""
    yield f"{_HEADER_PREFIX} {label_map.provenance}".rstrip() + "\n"
    for cls in label_map.classes:
        if not cls.members:  # reading would strip its trailing tab
            raise ContractViolation(f"class {cls.class_id} has no members")
        yield (f"{cls.class_id}\t{cls.representative}\t{cls.assigned_count}"
               f"\t{','.join(cls.members)}\n")
    yield "#UNASSIGNED\n"
    for synset, count in label_map.unassigned:
        yield f"{synset}\t{count}\n"


def read_label_map(text: str) -> LabelMap:
    lines = text.splitlines()
    if not lines or not lines[0].startswith(_HEADER_PREFIX):
        raise ParseError("missing label-map header", line=1)
    provenance = lines[0][len(_HEADER_PREFIX):].strip()
    try:  # records after this line number are unassigned entries
        boundary = lines.index("#UNASSIGNED", 1) + 1
    except ValueError:
        boundary = len(lines)
    del lines
    classes: list[LabelClass] = []
    class_ids: set[int] = set()
    class_of: dict[SynsetId, int] = {}
    records = _records(text, "\t")
    for lineno, raw, fields in records:
        if lineno > boundary:  # this record and the rest are unassigned
            records = chain([(lineno, raw, fields)], records)
            break
        if len(fields) != 4:
            raise ParseError(
                "expected 'class_id<TAB>representative<TAB>count<TAB>"
                f"members', got {raw!r}",
                line=lineno,
            )
        try:
            class_id = int(fields[0])
            count = int(fields[2])
        except ValueError:
            raise ParseError(
                f"non-numeric field in {raw!r}", line=lineno
            ) from None
        if class_id < 0:
            raise ParseError(f"negative class id {class_id}", line=lineno)
        if count < 0:
            raise ParseError(f"negative count {count}", line=lineno)
        if class_id in class_ids:
            raise ParseError(f"duplicate class id {class_id}", line=lineno)
        class_ids.add(class_id)
        members = tuple(m for m in fields[3].split(",") if m)
        for member in members:
            if class_of.setdefault(member, class_id) != class_id:
                raise ParseError(
                    f"synset {member!r} is in classes {class_of[member]} "
                    f"and {class_id}",
                    line=lineno,
                )
        classes.append(
            LabelClass(
                class_id=class_id,
                representative=fields[1],
                members=members,
                assigned_count=count,
            )
        )
    unassigned = _count_table(records, "synset<TAB>count")
    for synset in unassigned:
        if synset in class_of:
            raise ParseError(f"synset {synset!r} is in class "
                             f"{class_of[synset]} and unassigned")
    return LabelMap(classes=classes, unassigned=list(unassigned.items()),
                    provenance=provenance)
