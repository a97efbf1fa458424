"""Three-level land-use class hierarchy with roll-up maps between levels.

The built-in hierarchy has 5 top classes, 16 middle classes and 45 fine
classes. Class indices are positions in the canonical enumeration order,
0-based, and are stable across runs. Alternate hierarchies can be loaded
from a plain-text file (see :func:`Taxonomy.from_text`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache


class TaxonomyError(ValueError):
    pass


class Level(Enum):
    FINE = "fine"
    MIDDLE = "middle"
    TOP = "top"


# (top, [(middle, [fine, ...]), ...]) in canonical enumeration order.
_HIERARCHY = [
    ("Residence or accommodation functions", [
        ("Hotels, motels, or other accommodation services", [
            "lodging",
        ]),
    ]),
    ("General sales or services", [
        ("Retail sales or service", [
            "bicycle_store",
            "car_service",
            "department_store",
            "home_goods_store",
            "book_store",
            "clothing_store",
            "jewelry_store",
            "shoe_store",
            "bakery",
            "pharmacy",
            "shopping_mall",
        ]),
        ("Finance and Insurance", [
            "bank",
        ]),
        ("Business, professional, scientific, and technical services", [
            "post_office",
            "travel_agency",
            "veterinary_care",
        ]),
        ("Food services", [
            "restaurant",
            "coffee_house",
            "night_club",
            "bar",
        ]),
        ("Personal services", [
            "hair_care",
        ]),
    ]),
    ("Transportation, communication, information, and utilities", [
        ("Transportation service", [
            "bus_station",
            "subway_station",
            "train_station",
            "parking",
        ]),
        ("Communications and information", [
            "library",
        ]),
    ]),
    ("Arts, entertainment and recreation", [
        ("Performing arts or supporting establishment", [
            "art_gallery",
            "movie_theater",
            "stadium",
        ]),
        ("Museums and other special purpose recreational institutions", [
            "aquarium",
            "museum",
            "zoo",
        ]),
        ("Amusement, sports, or recreation establishment", [
            "park",
            "amusement_park",
            "gym",
        ]),
    ]),
    ("Education, public admin, health care and other institution", [
        ("Educational services", [
            "school",
            "university",
        ]),
        ("Public administration", [
            "city_hall",
            "courthouse",
            "local_government_office",
        ]),
        ("Public safety", [
            "fire_station",
            "police_station",
        ]),
        ("Health and human services", [
            "hospital",
        ]),
        ("Religious institutions", [
            "church",
            "temple",
        ]),
    ]),
]


@dataclass(frozen=True)
class Taxonomy:
    """Immutable class hierarchy. Safe for unrestricted concurrent reads."""

    fine_classes: tuple[str, ...]
    middle_classes: tuple[str, ...]
    top_classes: tuple[str, ...]
    fine_to_middle: tuple[int, ...]
    middle_to_top: tuple[int, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for names, label in ((self.fine_classes, "fine"),
                             (self.middle_classes, "middle"),
                             (self.top_classes, "top")):
            if len(set(names)) != len(names):
                raise TaxonomyError(f"duplicate class names at {label} level")
        if len(self.fine_to_middle) != len(self.fine_classes):
            raise TaxonomyError("fine_to_middle must cover every fine class")
        if len(self.middle_to_top) != len(self.middle_classes):
            raise TaxonomyError("middle_to_top must cover every middle class")
        for j in self.fine_to_middle:
            if not 0 <= j < len(self.middle_classes):
                raise TaxonomyError(f"fine_to_middle target {j} out of range")
        for j in self.middle_to_top:
            if not 0 <= j < len(self.top_classes):
                raise TaxonomyError(f"middle_to_top target {j} out of range")
        object.__setattr__(self, "_index", {
            level: {name: i for i, name in enumerate(self.classes(level))}
            for level in Level})

    # -- lookups ---------------------------------------------------------

    def classes(self, level: Level) -> tuple[str, ...]:
        return {Level.FINE: self.fine_classes,
                Level.MIDDLE: self.middle_classes,
                Level.TOP: self.top_classes}[level]

    def n_classes(self, level: Level) -> int:
        return len(self.classes(level))

    def index(self, name: str, level: Level = Level.FINE) -> int:
        """Case-sensitive exact-name lookup. Unknown names raise."""
        try:
            return self._index[level][name]
        except KeyError:
            raise TaxonomyError(
                f"unknown {level.value} class name: {name!r}") from None

    def name(self, index: int, level: Level = Level.FINE) -> str:
        classes = self.classes(level)
        if not 0 <= index < len(classes):
            raise TaxonomyError(
                f"{level.value} index {index} out of range [0, {len(classes)})")
        return classes[index]

    # -- roll-up ---------------------------------------------------------

    def roll_up(self, fine_index: int, target: Level) -> int:
        """Unique ancestor index of a fine class at the target level."""
        if not 0 <= fine_index < len(self.fine_classes):
            raise TaxonomyError(
                f"fine index {fine_index} out of range [0, {len(self.fine_classes)})")
        if target is Level.FINE:
            return fine_index
        middle = self.fine_to_middle[fine_index]
        if target is Level.MIDDLE:
            return middle
        return self.middle_to_top[middle]

    # -- serialization ---------------------------------------------------

    def to_text(self) -> str:
        """Plain-text hierarchy: one class per line, indentation depth
        0/1/2 encodes top/middle/fine, in canonical order."""
        lines = []
        for t, top in enumerate(self.top_classes):
            lines.append(top)
            for m, middle in enumerate(self.middle_classes):
                if self.middle_to_top[m] != t:
                    continue
                lines.append("  " + middle)
                for f, fine in enumerate(self.fine_classes):
                    if self.fine_to_middle[f] == m:
                        lines.append("    " + fine)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Taxonomy":
        """The hierarchy ``to_text`` writes, built by ``from_nested``."""
        hierarchy = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            if not raw.strip():
                continue
            indent = len(raw) - len(raw.lstrip(" "))
            name = raw.strip()
            if indent == 0:
                hierarchy.append((name, []))
            elif indent == 2:
                if not hierarchy:
                    raise TaxonomyError(f"line {lineno}: middle class before any top class")
                hierarchy[-1][1].append((name, []))
            elif indent == 4:
                if not hierarchy or not hierarchy[-1][1]:
                    raise TaxonomyError(f"line {lineno}: fine class before any middle class")
                hierarchy[-1][1][-1][1].append(name)
            else:
                raise TaxonomyError(f"line {lineno}: bad indentation {indent}")
        return cls.from_nested(hierarchy)

    @classmethod
    def from_nested(cls, hierarchy) -> "Taxonomy":
        top, middle, fine = [], [], []
        fine_to_middle, middle_to_top = [], []
        for top_name, middles in hierarchy:
            top.append(top_name)
            for middle_name, fines in middles:
                middle.append(middle_name)
                middle_to_top.append(len(top) - 1)
                for fine_name in fines:
                    fine.append(fine_name)
                    fine_to_middle.append(len(middle) - 1)
        return cls(tuple(fine), tuple(middle), tuple(top),
                   tuple(fine_to_middle), tuple(middle_to_top))


@lru_cache(maxsize=1)
def builtin_taxonomy() -> Taxonomy:
    """The canonical 5/16/45 hierarchy."""
    tax = Taxonomy.from_nested(_HIERARCHY)
    assert len(tax.top_classes) == 5
    assert len(tax.middle_classes) == 16
    assert len(tax.fine_classes) == 45
    return tax
