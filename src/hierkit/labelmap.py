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
starts the unassigned section. Counts and class ids must be >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ContractViolation, ParseError
from .io import _records
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

    def total_assigned(self) -> int:
        return sum(c.assigned_count for c in self.classes)

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


def write_label_map(label_map: LabelMap) -> str:
    lines = [f"{_HEADER_PREFIX} {label_map.provenance}".rstrip()]
    for cls in label_map.classes:
        if not cls.members:  # reading would strip its trailing tab
            raise ContractViolation(f"class {cls.class_id} has no members")
        lines.append(
            f"{cls.class_id}\t{cls.representative}\t{cls.assigned_count}\t"
            + ",".join(cls.members)
        )
    lines.append("#UNASSIGNED")
    for synset, count in label_map.unassigned:
        lines.append(f"{synset}\t{count}")
    return "\n".join(lines) + "\n"


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
    unassigned: list[tuple[SynsetId, int]] = []
    class_ids: set[int] = set()
    class_of: dict[SynsetId, int] = {}
    for lineno, raw, fields in _records(text, "\t"):
        if lineno > boundary:
            if len(fields) != 2:
                raise ParseError(
                    f"expected 'synset<TAB>count', got {raw!r}", line=lineno
                )
            try:
                count = int(fields[1])
            except ValueError:
                raise ParseError(
                    f"non-numeric count {fields[1]!r}", line=lineno
                ) from None
            if count < 0:
                raise ParseError(f"negative count {count}", line=lineno)
            unassigned.append((fields[0], count))
            continue
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
    return LabelMap(classes=classes, unassigned=unassigned, provenance=provenance)
