import pytest
from hypothesis import given, strategies as st

from landuse.taxonomy import Level, Taxonomy, TaxonomyError, builtin_taxonomy


@pytest.fixture(scope="module")
def tax():
    return builtin_taxonomy()


def test_level_counts(tax):
    assert len(tax.fine_classes) == 45
    assert len(tax.middle_classes) == 16
    assert len(tax.top_classes) == 5


def test_lodging_chain(tax):
    i = tax.index("lodging")
    m = tax.fine_to_middle[i]
    assert tax.middle_classes[m] == "Hotels, motels, or other accommodation services"
    assert tax.top_classes[tax.middle_to_top[m]] == "Residence or accommodation functions"


def test_bakery_rolls_to_retail(tax):
    i = tax.index("bakery")
    assert tax.name(tax.roll_up(i, Level.MIDDLE), Level.MIDDLE) == "Retail sales or service"
    assert tax.name(tax.roll_up(i, Level.TOP), Level.TOP) == "General sales or services"


def test_restaurant_top(tax):
    assert tax.roll_up(tax.index("restaurant"), Level.TOP) == \
        tax.index("General sales or services", Level.TOP)


def test_zoo_middle(tax):
    assert tax.roll_up(tax.index("zoo"), Level.MIDDLE) == tax.index(
        "Museums and other special purpose recreational institutions", Level.MIDDLE)


def test_fine_roll_up_is_identity(tax):
    for i in range(45):
        assert tax.roll_up(i, Level.FINE) == i


def test_composition_consistency(tax):
    # top ancestor must factor through the middle level
    for i in range(45):
        assert tax.roll_up(i, Level.TOP) == \
            tax.middle_to_top[tax.fine_to_middle[i]]


def test_unknown_name_raises(tax):
    with pytest.raises(TaxonomyError, match="notaclass"):
        tax.index("notaclass")


def test_index_inverts_classes_at_every_level(tax):
    for level in Level:
        names = tax.classes(level)
        assert [tax.index(n, level) for n in names] == list(range(len(names)))
    with pytest.raises(TaxonomyError, match="unknown middle class name: 'bank'"):
        tax.index("bank", Level.MIDDLE)


def test_index_out_of_range(tax):
    with pytest.raises(TaxonomyError):
        tax.name(45, Level.FINE)
    with pytest.raises(TaxonomyError):
        tax.roll_up(-1, Level.TOP)


def test_text_round_trip(tax):
    text = tax.to_text()
    again = Taxonomy.from_text(text)
    assert again == tax
    assert again.to_text() == text


def test_from_text_rejects_bad_indent():
    with pytest.raises(TaxonomyError, match="indentation"):
        Taxonomy.from_text("Top\n   oddly_indented\n")


def test_from_text_rejects_orphan_fine():
    with pytest.raises(TaxonomyError):
        Taxonomy.from_text("Top\n    fine_without_middle\n")
    # a top class with no middle class of its own: f2 is not M1's
    with pytest.raises(TaxonomyError,
                       match="line 5: fine class before any middle class"):
        Taxonomy.from_text("T1\n  M1\n    f1\nT2\n    f2\n")


def test_duplicate_names_rejected():
    with pytest.raises(TaxonomyError, match="duplicate"):
        Taxonomy(("a", "a"), ("m",), ("t",), (0, 0), (0,))


def test_mapping_lengths_validated():
    with pytest.raises(TaxonomyError):
        Taxonomy(("a", "b"), ("m",), ("t",), (0,), (0,))


@given(st.integers(min_value=0, max_value=44))
def test_roll_up_monotone_accuracy_property(i):
    # equal fine labels stay equal at every coarser level
    tax = builtin_taxonomy()
    for level in (Level.MIDDLE, Level.TOP):
        assert tax.roll_up(i, level) == tax.roll_up(i, level)
        assert 0 <= tax.roll_up(i, level) < tax.n_classes(level)
