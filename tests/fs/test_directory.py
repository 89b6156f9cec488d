"""Unit tests for FFS directory chunk packing, read and edited through
``DirIndex`` as the file system does."""

import pytest
from hypothesis import given, strategies as st

from repro.fs import directory as d
from repro.fs.layout import FileType

from tests.conftest import iter_entries


def fresh_dir(frag=1024):
    data = bytearray(d.new_dir_contents(2, 2))
    while len(data) < frag:
        data += d.empty_chunk()
    return data


class TestFormat:
    def test_new_dir_has_dot_and_dotdot(self):
        entries = [e for e in iter_entries(fresh_dir()) if e.live]
        assert [(e.name, e.ino) for e in entries] == [(".", 2), ("..", 2)]

    def test_empty_chunk_has_one_dead_entry(self):
        entries = list(iter_entries(d.empty_chunk()))
        assert len(entries) == 1
        assert not entries[0].live
        assert entries[0].reclen == d.DIRBLKSIZ

    def test_unaligned_data_rejected(self):
        with pytest.raises(ValueError):
            list(iter_entries(b"\x00" * 100))


class TestAddLookup:
    def test_add_then_lookup(self):
        index = d.build_index(fresh_dir())
        offset = index.add("hello.txt", 42, FileType.REGULAR)
        assert offset is not None
        entry, scanned = index.find("hello.txt")
        assert entry.ino == 42
        assert entry.offset == offset
        assert scanned >= 3

    def test_lookup_miss_scans_everything(self):
        data = fresh_dir()
        entry, scanned = d.build_index(data).find("absent")
        assert entry is None
        assert scanned == len(list(iter_entries(data)))

    def test_fills_up_and_returns_none(self):
        index = d.build_index(bytearray(d.empty_chunk()))
        count = 0
        while index.add(f"file{count:03d}", 100 + count,
                        FileType.REGULAR) is not None:
            count += 1
        assert count == d.DIRBLKSIZ // d.entry_bytes(7)
        assert index.add("onemore", 999, FileType.REGULAR) is None

    def test_bad_names_rejected(self):
        with pytest.raises(ValueError):
            d.build_index(fresh_dir()).add("", 1, FileType.REGULAR)
        with pytest.raises(ValueError):
            d.build_index(fresh_dir()).add("x" * 300, 1, FileType.REGULAR)

    def test_base_offset_shifts_reported_offsets(self):
        entry, _ = d.build_index(fresh_dir()).find(".", base_offset=2048)
        assert entry.offset == 2048


class TestRemove:
    def test_remove_mid_chunk_merges_into_predecessor(self):
        index = d.build_index(fresh_dir())
        offset = index.add("victim", 42, FileType.REGULAR)
        assert index.remove(offset) == 42
        entry, _ = index.find("victim")
        assert entry is None
        # space is reusable
        assert index.add("reborn", 43, FileType.REGULAR) is not None

    def test_remove_chunk_head_zeroes_ino(self):
        chunk = bytearray(d.format_chunk([(7, "head", FileType.REGULAR),
                                          (8, "tail", FileType.REGULAR)]))
        head = next(iter(iter_entries(chunk)))
        index = d.build_index(chunk)
        index.remove(head.offset)
        assert next(iter(iter_entries(chunk))).ino == 0
        entry, _ = index.find("tail")
        assert entry.ino == 8

    def test_remove_dead_entry_rejected(self):
        with pytest.raises(ValueError):
            d.build_index(fresh_dir()).remove(512)  # the empty second chunk

    def test_is_empty_dir(self):
        index = d.build_index(fresh_dir())
        assert index.empty()
        offset = index.add("child", 9, FileType.REGULAR)
        assert not index.empty()
        index.remove(offset)
        assert index.empty()


class TestCorruption:
    """Garbage in a record header is a finding, never a stray exception."""

    def damaged(self, at, value):
        chunk = bytearray(d.format_chunk([(7, "a", FileType.REGULAR),
                                          (8, "b", FileType.REGULAR)]))
        chunk[at] = value
        return chunk

    @pytest.mark.parametrize("at,value,what", [
        (7, 3, "bad type 3"),           # type byte outside 0 / 4 / 8
        (6, 250, "bad namelen 250"),    # name would run into record 'b'
        (4, 3, "bad reclen 3"),
    ])
    def test_raises_corrupt_directory(self, at, value, what):
        chunk = self.damaged(at, value)
        with pytest.raises(d.CorruptDirectory, match=what):
            list(iter_entries(chunk))
        index = d.build_index(chunk)
        assert str(index.bad) == f"{what} at offset 0"
        with pytest.raises(d.CorruptDirectory, match=what):
            index.find("b")
        with pytest.raises(d.CorruptDirectory, match=what):
            index.empty()
        with pytest.raises(d.CorruptDirectory, match=what):
            list(index.scan())

    def test_type_byte_of_a_free_record_is_not_read(self):
        chunk = bytearray(d.format_chunk([(7, "a", FileType.REGULAR)]))
        d.build_index(chunk).remove(0)
        chunk[7] = 3
        entry, = iter_entries(chunk)
        assert (entry.live, entry.ftype) == (False, FileType.NONE)


@given(st.lists(st.text(alphabet="abcdefgh", min_size=1, max_size=12),
                min_size=1, max_size=30, unique=True))
def test_add_remove_random_names_property(names):
    index = d.build_index(bytearray(d.empty_chunk() * 4))
    offsets = {}
    for name in names:
        offset = index.add(name, 100 + len(offsets), FileType.REGULAR)
        if offset is None:
            break
        offsets[name] = offset
    # every added name is findable, then removable, leaving an empty dir
    for name in offsets:
        entry, _ = index.find(name)
        assert entry is not None and entry.offset == offsets[name]
    for name in offsets:
        entry, _ = index.find(name)
        index.remove(entry.offset)
    assert index.empty()
