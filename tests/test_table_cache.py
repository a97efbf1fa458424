"""The table cache behind ``load_manifest(..., cache=entry)``: a hit gives
the decoded table bit for bit, and anything else is a miss that decodes."""

import hashlib
import json
import os
import shutil
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from landuse import dataset, entry as entries
from landuse.dataset import (ManifestError, load_manifest, read_entry,
                             write_feature_file)
from landuse.taxonomy import Taxonomy, builtin_taxonomy

TAX = builtin_taxonomy()
COLUMNS = ("domain", "label", "lon", "lat", "has_geo")


def assert_same_table(got, want):
    """Equal ids, and every column and stream equal in dtype, shape and
    bits."""
    assert got.ids == want.ids
    assert all(type(rid) is str for rid in got.ids)
    arrays = [(getattr(got, c), getattr(want, c)) for c in COLUMNS]
    assert list(got.features) == list(want.features)
    arrays += [(got.features[s], want.features[s]) for s in want.features]
    for a, b in arrays:
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
        assert a.flags.c_contiguous and a.flags.writeable


# ---------------------------------------------------------------------------
# manifests to cache

#: endings that a fixed-width ``U`` array or a careless codec would lose
ID_TAILS = ("", "\x00", "\U0001F600", "é\x00")


@st.composite
def cases(draw):
    """(rows, per-stream mode, raw UTF-8 or not) for a valid manifest of
    0-6 records. Streams are inline, in an LUFV1 sidecar, or each."""
    dims = draw(st.dictionaries(st.sampled_from(("object", "scene", "ré")),
                                st.integers(0, 3), min_size=1, max_size=2))
    modes = {s: draw(st.sampled_from(("inline", "sidecar"))) for s in dims}
    n = draw(st.integers(0, 6))
    rows = []
    for i in range(n):
        rid = f"{i}{draw(st.text(max_size=3))}{draw(st.sampled_from(ID_TAILS))}"
        row = {"id": rid, "domain": draw(st.sampled_from("AB"))}
        label = draw(st.sampled_from(("name", "int", "none")))
        if label == "name":
            row["label"] = draw(st.sampled_from(TAX.fine_classes))
        elif label == "int":
            row["label"] = draw(st.integers(0, 44))
        if draw(st.booleans()):
            row["lon"] = draw(st.floats(-180, 180))
            row["lat"] = draw(st.floats(-90, 90))
        row["vectors"] = {
            s: draw(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                             if modes[s] == "inline"
                             else st.floats(-1e3, 1e3, width=32),
                             min_size=d, max_size=d))
            for s, d in dims.items()}
        rows.append(row)
    return rows, modes, draw(st.booleans())


def write_case(root, rows, modes, raw_utf8):
    """Write the manifest under ``root/data`` and return its path."""
    data = root / "data"
    data.mkdir(parents=True, exist_ok=True)
    sidecars = {s: {} for s, m in modes.items() if m == "sidecar"}
    lines = [{"provenance": {"seed": 1}}]
    for row in rows:
        line = {k: v for k, v in row.items() if k != "vectors"}
        for s, vec in row["vectors"].items():
            if s in sidecars:
                sidecars[s][row["id"]] = vec
                line.setdefault("features_ref", {})[s] = f"{s}.lufv"
            else:
                line.setdefault("features", {})[s] = vec
        lines.append(line)
    for s, vectors in sidecars.items():
        if vectors:
            write_feature_file(data / f"{s}.lufv", vectors)
    path = data / "m.jsonl"
    path.write_text("".join(json.dumps(r, ensure_ascii=not raw_utf8) + "\n"
                            for r in lines), encoding="utf-8")
    return path


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cases())
def test_hit_gives_the_decoded_table_bit_for_bit(tmp_path_factory, case):
    root = tmp_path_factory.mktemp("c")
    path = write_case(root, *case)
    entry = root / "out" / "m.lutab"
    decoded = load_manifest(path, TAX)
    assert read_entry(entry, path, TAX) is None
    assert_same_table(load_manifest(path, TAX, cache=entry), decoded)   # miss
    written = entry.read_bytes()
    hit = read_entry(entry, path, TAX)
    assert hit is not None
    assert_same_table(hit, decoded)
    assert_same_table(load_manifest(path, TAX, cache=entry), decoded)
    assert entry.read_bytes() == written

    # the same inputs elsewhere give the same entry
    other = tmp_path_factory.mktemp("c")
    shutil.copytree(root / "data", other / "data")
    entry2 = other / "elsewhere" / "x.lutab"
    load_manifest(other / "data" / "m.jsonl", TAX, cache=entry2)
    assert entry2.read_bytes() == written


# ---------------------------------------------------------------------------
# invalidation

def small_manifest(root):
    """Two records, one stream inline and one in a sidecar."""
    rows = [{"id": f"r{i}", "domain": "AB"[i], "label": i, "lon": 1.0,
             "lat": 2.0, "vectors": {"object": [0.5 + i, -1.0],
                                     "scene": [0.25 * i, 3.0, 1.0]}}
            for i in range(2)]
    return write_case(root, rows, {"object": "inline", "scene": "sidecar"},
                      False)


def flip_byte(path, pos):
    data = bytearray(path.read_bytes())
    data[pos] ^= 0x01
    path.write_bytes(bytes(data))


def test_manifest_byte_changed_is_a_miss_and_rewrites(tmp_path):
    path = small_manifest(tmp_path)
    entry = tmp_path / "m.lutab"
    load_manifest(path, TAX, cache=entry)
    before = entry.read_bytes()
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("0.5", "0.7"), encoding="utf-8")
    assert read_entry(entry, path, TAX) is None
    table = load_manifest(path, TAX, cache=entry)
    assert table.features["object"][0, 0] == 0.7
    assert entry.read_bytes() != before
    assert_same_table(read_entry(entry, path, TAX), load_manifest(path, TAX))


def test_sidecar_byte_changed_is_a_miss_and_rewrites(tmp_path):
    path = small_manifest(tmp_path)
    entry = tmp_path / "m.lutab"
    old = load_manifest(path, TAX, cache=entry)
    before = entry.read_bytes()
    sidecar = path.parent / "scene.lufv"
    flip_byte(sidecar, len(sidecar.read_bytes()) - 1)  # last float's top byte
    assert read_entry(entry, path, TAX) is None
    table = load_manifest(path, TAX, cache=entry)
    assert table.features["scene"][1, 2] != old.features["scene"][1, 2]
    assert entry.read_bytes() != before
    assert_same_table(read_entry(entry, path, TAX), load_manifest(path, TAX))


def test_sidecar_rewritten_after_its_read_is_never_hit(tmp_path,
                                                       monkeypatch):
    """The entry's key holds the digest of each sidecar's bytes as read, so
    a sidecar that changes after the read cannot key the rows read."""
    path = small_manifest(tmp_path)
    entry = tmp_path / "m.lutab"
    sidecar = path.parent / "scene.lufv"
    read = dataset.read_feature_file

    def read_then_rewrite(refpath):
        rows = read(refpath)
        flip_byte(sidecar, len(sidecar.read_bytes()) - 1)
        return rows

    monkeypatch.setattr(dataset, "read_feature_file", read_then_rewrite)
    old = load_manifest(path, TAX, cache=entry)
    monkeypatch.undo()
    assert read_entry(entry, path, TAX) is None
    table = load_manifest(path, TAX)
    assert table.features["scene"][1, 2] != old.features["scene"][1, 2]
    assert_same_table(load_manifest(path, TAX, cache=entry), table)
    assert_same_table(read_entry(entry, path, TAX), table)


def test_sidecar_changed_and_restored_around_its_read_is_never_hit(
        tmp_path, monkeypatch):
    """A sidecar that holds other bytes only while it is read keys its
    entry by those bytes, so the restored sidecar misses and decodes."""
    path = small_manifest(tmp_path)
    entry = tmp_path / "m.lutab"
    sidecar = path.parent / "scene.lufv"
    last = len(sidecar.read_bytes()) - 1   # the last float's top byte
    read = dataset.read_feature_file

    def change_read_restore(refpath):
        flip_byte(sidecar, last)
        rows = read(refpath)
        flip_byte(sidecar, last)
        return rows

    monkeypatch.setattr(dataset, "read_feature_file", change_read_restore)
    seen = load_manifest(path, TAX, cache=entry)
    monkeypatch.undo()
    table = load_manifest(path, TAX)
    assert seen.features["scene"][1, 2] != table.features["scene"][1, 2]
    assert read_entry(entry, path, TAX) is None
    assert_same_table(load_manifest(path, TAX, cache=entry), table)
    assert_same_table(read_entry(entry, path, TAX), table)


def test_manifest_changed_and_restored_during_the_decode_is_never_hit(
        tmp_path, monkeypatch):
    """A manifest rewritten with as many lines once its decode has begun,
    and restored once it ends, keys the entry by the bytes decoded."""
    path = small_manifest(tmp_path)
    entry = tmp_path / "m.lutab"
    text = path.read_text(encoding="utf-8")
    changed = text.replace("0.5", "0.7")
    assert changed != text and changed.count("\n") == text.count("\n")
    jsonl_rows = dataset.jsonl_rows

    def change_decode_restore(lines, source):
        path.write_text(changed, encoding="utf-8")
        yield from jsonl_rows(lines, source)
        path.write_text(text, encoding="utf-8")

    monkeypatch.setattr(dataset, "jsonl_rows", change_decode_restore)
    seen = load_manifest(path, TAX, cache=entry)
    monkeypatch.undo()
    assert seen.features["object"][0, 0] == 0.7
    table = load_manifest(path, TAX)
    assert table.features["object"][0, 0] == 0.5
    assert read_entry(entry, path, TAX) is None
    assert_same_table(load_manifest(path, TAX, cache=entry), table)
    assert_same_table(read_entry(entry, path, TAX), table)


def test_manifest_grown_during_the_decode_raises(tmp_path, monkeypatch):
    """The matrices are sized by a line count taken before the decode; a
    manifest that outgrows it while it is read raises ``ManifestError``
    naming the file, and writes no entry."""
    path = small_manifest(tmp_path)
    entry = tmp_path / "m.lutab"
    more = "".join(json.dumps({"id": f"x{i}", "features": {
        "object": [1.0, 2.0], "scene": [1.0, 2.0, 3.0]}}) + "\n"
        for i in range(2))
    jsonl_rows = dataset.jsonl_rows

    def grow_then_decode(lines, source):
        with open(path, "a", encoding="utf-8") as f:
            f.write(more)
        yield from jsonl_rows(lines, source)

    monkeypatch.setattr(dataset, "jsonl_rows", grow_then_decode)
    with pytest.raises(ManifestError) as e:
        load_manifest(path, TAX, cache=entry)
    monkeypatch.undo()
    assert str(e.value) == f"{path}: changed while it was read"
    assert not entry.exists()
    assert len(load_manifest(path, TAX)) == 4


def test_other_taxonomy_is_a_miss_and_rewrites(tmp_path):
    path = small_manifest(tmp_path)
    entry = tmp_path / "m.lutab"
    load_manifest(path, TAX, cache=entry)
    before = entry.read_bytes()
    text = TAX.to_text()
    name = TAX.fine_classes[0]
    other = Taxonomy.from_text(text.replace(name, name + "_x"))
    assert other.fine_classes != TAX.fine_classes
    assert read_entry(entry, path, other) is None
    load_manifest(path, other, cache=entry)
    assert entry.read_bytes() != before
    assert read_entry(entry, path, TAX) is None
    load_manifest(path, TAX, cache=entry)
    assert entry.read_bytes() == before


def test_missing_sidecar_is_a_miss_that_raises_as_without_a_cache(tmp_path):
    path = small_manifest(tmp_path)
    entry = tmp_path / "m.lutab"
    load_manifest(path, TAX, cache=entry)
    (path.parent / "scene.lufv").unlink()
    assert read_entry(entry, path, TAX) is None
    with pytest.raises(ManifestError) as plain:
        load_manifest(path, TAX)
    with pytest.raises(ManifestError) as cached:
        load_manifest(path, TAX, cache=entry)
    assert str(cached.value) == str(plain.value)
    assert str(plain.value) == ("record r0: cannot read feature file"
                                " scene.lufv: No such file or directory")


@pytest.mark.parametrize("fault", [
    lambda t: t.replace('"r1"', '"r0"'),              # repeated id
    lambda t: t.replace("0.5", "NaN"),                # non-finite value
    lambda t: t.replace('"label": 1', '"label": 99'),  # label out of range
    lambda t: t[:-5],                                 # cut last line
])
def test_bad_manifest_raises_the_same_with_or_without_an_entry(tmp_path, fault):
    path = small_manifest(tmp_path)
    fresh, stale = tmp_path / "fresh.lutab", tmp_path / "stale.lutab"
    load_manifest(path, TAX, cache=stale)
    before = stale.read_bytes()
    path.write_text(fault(path.read_text(encoding="utf-8")), encoding="utf-8")
    with pytest.raises(ManifestError) as plain:
        load_manifest(path, TAX)
    for entry in (fresh, stale):
        with pytest.raises(ManifestError) as cached:
            load_manifest(path, TAX, cache=entry)
        assert str(cached.value) == str(plain.value)
    assert not fresh.exists()
    assert stale.read_bytes() == before


def test_unwritable_entry_does_not_fail_the_load(tmp_path):
    path = small_manifest(tmp_path)
    blocker = tmp_path / "file"
    blocker.write_bytes(b"")
    table = load_manifest(path, TAX, cache=blocker / "m.lutab")
    assert_same_table(table, load_manifest(path, TAX))


def test_sidecar_named_two_ways_gives_one_table_and_a_hit(tmp_path):
    """A sidecar referenced as ``a.lufv`` and as ``./a.lufv`` fills the
    rows of both, and the entry, keyed by both spellings, hits next."""
    vectors = {"r0": [0.5, -1.0], "r1": [2.0, 0.25]}
    write_feature_file(tmp_path / "a.lufv", vectors)
    refs = ("a.lufv", "./a.lufv")
    path, inline = tmp_path / "m.jsonl", tmp_path / "inline.jsonl"
    path.write_text("".join(
        json.dumps({"id": rid, "features_ref": {"object": ref}}) + "\n"
        for rid, ref in zip(vectors, refs)), encoding="utf-8")
    inline.write_text("".join(
        json.dumps({"id": rid, "features": {"object": vec}}) + "\n"
        for rid, vec in vectors.items()), encoding="utf-8")
    want = load_manifest(inline, TAX)
    entry = tmp_path / "m.lutab"
    assert_same_table(load_manifest(path, TAX, cache=entry), want)
    items = entries.read_entry(entry, dataset.ENTRY_MAGIC,
                               dataset.ENTRY_VERSION)
    assert list(items[1]) == list(refs)
    written = entry.read_bytes()
    assert_same_table(read_entry(entry, path, TAX), want)
    assert_same_table(load_manifest(path, TAX, cache=entry), want)
    assert entry.read_bytes() == written


# ---------------------------------------------------------------------------
# cut and garbled entries


@pytest.fixture(scope="module")
def valid_entry(tmp_path_factory):
    root = tmp_path_factory.mktemp("entry")
    path = small_manifest(root)
    entry = root / "m.lutab"
    table = load_manifest(path, TAX, cache=entry)
    return path, entry, entry.read_bytes(), table


def assert_miss_then_rewritten(valid_entry, data):
    path, entry, whole, table = valid_entry
    entry.write_bytes(data)
    assert read_entry(entry, path, TAX) is None
    assert_same_table(load_manifest(path, TAX, cache=entry), table)
    assert entry.read_bytes() == whole


def test_every_proper_prefix_is_a_miss(valid_entry):
    whole = valid_entry[2]
    for cut in range(len(whole)):
        assert_miss_then_rewritten(valid_entry, whole[:cut])


def test_trailing_bytes_are_a_miss(valid_entry):
    whole = valid_entry[2]
    for extra in (b"\x00", b"LUTAB", whole):
        assert_miss_then_rewritten(valid_entry, whole + extra)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_single_byte_corruption_is_a_miss(valid_entry, data):
    whole = valid_entry[2]
    pos = data.draw(st.integers(0, len(whole) - 1))
    mask = data.draw(st.integers(1, 255))
    garbled = bytearray(whole)
    garbled[pos] ^= mask
    assert_miss_then_rewritten(valid_entry, bytes(garbled))


def test_entry_of_another_version_is_a_miss(valid_entry, monkeypatch):
    monkeypatch.setattr(dataset, "ENTRY_VERSION", dataset.ENTRY_VERSION + 1)
    path, entry, whole, table = valid_entry
    entry.write_bytes(whole)
    assert read_entry(entry, path, TAX) is None


def test_items_whose_lengths_disagree_are_a_miss(valid_entry, tmp_path):
    path, entry, whole, table = valid_entry
    entry.write_bytes(whole)
    magic, version = dataset.ENTRY_MAGIC, dataset.ENTRY_VERSION
    items = entries.read_entry(entry, magic, version)
    assert items[8].tolist() == table.lon.tolist()
    items[8] = items[8][:-1]   # lon one shorter than the ids
    short = tmp_path / "short.lutab"
    entries.write_entry(short, magic, version, items)
    assert entries.read_entry(short, magic, version) is not None
    assert_miss_then_rewritten(valid_entry, short.read_bytes())


@pytest.mark.parametrize("code", [b",", b"O", b"xx", b"\xff"])
def test_item_of_a_dtype_numpy_cannot_read_is_a_miss(valid_entry, code):
    whole = valid_entry[2]
    # the first float64 item, lon, gets another dtype code and a valid sha256
    body = whole[:-32].replace(b"<f8".ljust(8, b"\0"), code.ljust(8, b"\0"),
                               1)
    assert body != whole[:-32]
    assert_miss_then_rewritten(valid_entry, body + hashlib.sha256(body).digest())


# ---------------------------------------------------------------------------
# the manifest hashed while the entry is read


def test_manifest_deleted_behind_a_valid_entry_raises_as_without_a_cache(
        tmp_path):
    path = small_manifest(tmp_path)
    entry = tmp_path / "m.lutab"
    load_manifest(path, TAX, cache=entry)
    path.unlink()
    assert read_entry(entry, path, TAX) is None
    with pytest.raises(ManifestError) as plain:
        load_manifest(path, TAX)
    with pytest.raises(ManifestError) as cached:
        load_manifest(path, TAX, cache=entry)
    assert str(cached.value) == str(plain.value) == (
        f"{path}: cannot read manifest: No such file or directory")


def test_manifest_edited_after_the_entry_was_written_is_a_miss(tmp_path):
    """The key is the manifest's content: an edit of the same size that
    restores the file's times still misses."""
    path = small_manifest(tmp_path)
    entry = tmp_path / "m.lutab"
    old = load_manifest(path, TAX, cache=entry)
    stat = path.stat()
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("0.5", "0.6"), encoding="utf-8")
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert path.stat().st_size == stat.st_size
    assert read_entry(entry, path, TAX) is None
    table = load_manifest(path, TAX, cache=entry)
    assert table.features["object"][0, 0] == 0.6 != old.features["object"][0, 0]
    assert_same_table(read_entry(entry, path, TAX), load_manifest(path, TAX))


def test_a_load_leaves_no_thread_behind(tmp_path, monkeypatch):
    """The helper that hashes the manifest is joined after a hit, a miss
    and a failure."""
    path = small_manifest(tmp_path)
    entry = tmp_path / "m.lutab"
    threads = threading.active_count()
    table = load_manifest(path, TAX, cache=entry)             # cold miss
    assert threading.active_count() == threads
    assert_same_table(read_entry(entry, path, TAX), table)    # hit
    assert threading.active_count() == threads
    flip_byte(path.parent / "scene.lufv", 20)                 # stale entry
    assert read_entry(entry, path, TAX) is None
    assert threading.active_count() == threads

    def fail(*args):
        raise RuntimeError("entry read failed")

    monkeypatch.setattr(dataset, "read_items", fail)          # failure
    with pytest.raises(RuntimeError, match="entry read failed"):
        read_entry(entry, path, TAX)
    monkeypatch.undo()
    assert threading.active_count() == threads
    path.unlink()                                             # no manifest
    with pytest.raises(ManifestError, match="cannot read manifest"):
        load_manifest(path, TAX, cache=entry)
    assert threading.active_count() == threads


def test_hits_on_many_threads_under_a_short_switch_interval(tmp_path):
    """Each hit joins its own helper before it reads the digest, so hits
    on more threads than cores, switching every microsecond, all hit."""
    path = small_manifest(tmp_path)
    entry = tmp_path / "m.lutab"
    want = load_manifest(path, TAX, cache=entry)
    hits = []

    def hit():
        for _ in range(10):
            hits.append(read_entry(entry, path, TAX))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hit) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(hits) == 40
    for table in hits:
        assert_same_table(table, want)


def test_a_cold_load_hashes_the_manifest_once(tmp_path, monkeypatch):
    """With no entry to read, the manifest is hashed only by its decode."""
    path = small_manifest(tmp_path)
    entry = tmp_path / "out" / "m.lutab"
    hashed = []
    file_sha256 = dataset.file_sha256

    def counted(p):
        hashed.append(p)
        return file_sha256(p)

    monkeypatch.setattr(dataset, "file_sha256", counted)
    load_manifest(path, TAX, cache=entry)
    assert hashed == []
    load_manifest(path, TAX, cache=entry)
    assert hashed == [path, path.parent / "scene.lufv"]
