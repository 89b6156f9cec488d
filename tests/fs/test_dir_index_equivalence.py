"""The live directory-block index against the linear scan it stands in for.

``repro.fs.directory.DirIndex`` is maintained through mutations instead of
being rebuilt, so it can drift from the bytes it mirrors in ways a rebuild
never could.  The linear ``lookup`` / ``add_entry`` / ``remove_entry`` /
``is_empty_dir`` of ``tests/fs/reference_directory.py`` are the reference
(the ``tests/disk/reference_store.py`` pattern): after every step of a
generated interleaving -- second records of a live name and blocks whose
last chunk is corrupt included -- the indexed block must hold the same
bytes, give every operation the same answer (an entry *and* its scanned
count) or raise the same ``CorruptDirectory``, and equal a fresh
``build_index`` of those bytes.  The whole-machine half holds every
registered scheme to the same thing from the outside: with ``build_index``
swapped for the reference's ``LinearBlock`` (test-side monkeypatch; there
is no shipped switch) the timeline, the disk image and fsck's verdict must
not move.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.costs import CostModel
from repro.fs import directory as d
from repro.fs.layout import FileType
from repro.integrity.fsck import fsck
from repro.machine import Machine, MachineConfig
from repro.ordering.registry import REGISTRY
from repro.sim import Timeout

from tests.conftest import SMALL_GEOMETRY, run_user
from tests.fs import reference_directory as ref_dir

#: few enough names that re-adds, collisions and full blocks all happen;
#: lengths from 1 to 57 bytes, one of them multi-byte
NAMES = [stem * repeat for stem in ("a", "bc", "défg", "hijklmno")
         for repeat in (1, 2, 3, 5, 7)] + [".", ".."]
FTYPES = [FileType.REGULAR, FileType.DIRECTORY]

OPS = st.lists(st.tuples(
    st.sampled_from(["add", "remove"]),
    st.integers(0, 10_000)), max_size=60)

#: (byte within a record header, value) that make the record corrupt
DAMAGE = {"reclen": (4, 3), "namelen": (6, 250), "type": (7, 3)}


def start_block(chunks, prefilled):
    """'.' and '..', *prefilled* packed chunks, the rest empty."""
    data = bytearray(d.new_dir_contents(2, 2))
    for chunk in range(prefilled):
        data += d.format_chunk([(10 + chunk, f"pre{chunk}-{i}" * (i + 1),
                                 FileType.REGULAR) for i in range(4)])
    while len(data) < chunks * d.DIRBLKSIZ:
        data += d.empty_chunk()
    return data


def corrupt_tail(data, record, field):
    """Append a chunk of three live records and damage *field* of the
    *record*-th: a scan reads the records before it, then raises."""
    tail = bytearray(d.format_chunk([(30, "t", FileType.REGULAR),
                                     (31, "tail" * 5, FileType.REGULAR),
                                     (32, "a", FileType.REGULAR)]))
    at = sum(d.entry_bytes(len(name)) for name in ("t", "tail" * 5)[:record])
    byte, value = DAMAGE[field]
    tail[at + byte] = value
    return data + tail


def outcome(call, *args):
    """What *call* returns, or the CorruptDirectory it raises."""
    try:
        return call(*args)
    except d.CorruptDirectory as exc:
        return repr(exc)


def readable(data):
    """The records a scan decodes before any corrupt one."""
    records = []
    try:
        records.extend(d.iter_records(data))
    except d.CorruptDirectory:
        pass
    return records


def assert_mirrors(live, ref, base=4096):
    assert live.data == ref
    fresh = d.build_index(bytes(ref))
    assert live == fresh and repr(live.bad) == repr(fresh.bad)
    assert outcome(lambda: list(live.scan())) \
        == outcome(lambda: list(d.iter_records(ref)))
    assert outcome(live.empty) == outcome(ref_dir.is_empty_dir, ref)
    for name in NAMES + ["absent", "pre0-0", "t", "a"]:
        assert outcome(live.find, name, base) \
            == outcome(ref_dir.lookup, ref, name, base)


@settings(max_examples=150, deadline=None)
@given(chunks=st.integers(1, 4), prefilled=st.integers(0, 2), ops=OPS,
       damage=st.none() | st.tuples(st.integers(0, 2),
                                    st.sampled_from(sorted(DAMAGE))))
def test_any_interleaving_matches_the_linear_functions(chunks, prefilled, ops,
                                                       damage):
    ref = start_block(max(chunks, prefilled + 1), prefilled)
    if damage is not None:
        ref = corrupt_tail(ref, *damage)
    live = d.build_index(bytearray(ref))
    assert_mirrors(live, ref)
    for op, pick in ops:
        alive = [record for record in readable(ref) if record[1]]
        if op == "add":
            name = NAMES[pick % len(NAMES)]
            ino, ftype = 100 + pick, FTYPES[pick % 2]
            # same slot (a second record of a live name included), or the
            # same refusal when nothing fits before the corrupt record
            assert outcome(live.add, name, ino, ftype) \
                == outcome(ref_dir.add_entry, ref, name, ino, ftype)
        elif op == "remove" and alive:
            offset = alive[pick % len(alive)][0]
            assert live.remove(offset) == ref_dir.remove_entry(ref, offset)
        assert_mirrors(live, ref)


def test_index_refuses_what_the_linear_functions_refuse():
    ref = start_block(1, 0)
    live = d.build_index(bytearray(ref))
    for bad in ("", "x" * 256, "é" * 128):
        with pytest.raises(ValueError):
            ref_dir.add_entry(ref, bad, 5, FileType.REGULAR)
        with pytest.raises(ValueError):
            live.add(bad, 5, FileType.REGULAR)
    # '.' heads its chunk, so removal leaves a dead record: not removable
    assert live.remove(0) == ref_dir.remove_entry(ref, 0) == 2
    with pytest.raises(ValueError):
        ref_dir.remove_entry(ref, 0)
    with pytest.raises(ValueError):
        live.remove(0)
    assert_mirrors(live, ref)


def test_duplicate_names_and_corrupt_bytes_are_indexed_as_a_scan_reads_them():
    twice = start_block(1, 0)
    index = d.build_index(twice)
    assert index.add("same", 7, FileType.REGULAR) \
        < index.add("same", 8, FileType.REGULAR)
    assert index == d.build_index(bytes(twice))
    assert index.find("same") == ref_dir.lookup(twice, "same")
    assert index.find("same")[0].ino == 7           # first record wins
    assert index.remove(index.by_name["same"]) == 7
    assert index.find("same")[0].ino == 8           # then the next one
    assert index.remove(index.by_name["same"]) == 8
    assert index.find("same")[0] is None and index.empty()
    torn = start_block(2, 1)
    torn[512 + 4:512 + 6] = b"\x03\x00"             # reclen 3
    index = d.build_index(torn)
    assert index.bad.args == ("reclen 3", 512)
    assert index.find("..") == ref_dir.lookup(torn, "..")
    with pytest.raises(d.CorruptDirectory, match="bad reclen 3"):
        index.find("absent")
    with pytest.raises(d.CorruptDirectory, match="bad reclen 3"):
        index.empty()
    with pytest.raises(d.CorruptDirectory, match="bad reclen 3"):
        for ino in range(10, 30):   # fills chunk 0, then reaches the record
            assert index.add(f"file{ino}" * 10, ino, FileType.REGULAR) < 512


# -- whole machine ------------------------------------------------------------

def long_name(i):
    return f"file-{i:03d}-" + "x" * 50      # 7 to a chunk, 112 to a block


def observe(slug, check=False):
    machine = Machine(MachineConfig(
        scheme=REGISTRY[slug].build(), fs_geometry=SMALL_GEOMETRY,
        cache_bytes=2 * 1024 * 1024, costs=CostModel(scale=1.0)))
    machine.format()
    fs = machine.fs
    indexed, listings = [], []

    def after_syscall():
        for buf in machine.cache._buffers.values():
            if buf.dir_index is not None:
                assert buf.dir_index.data is buf.data
                assert buf.dir_index == d.build_index(bytes(buf.data))
                indexed.append(buf.daddr)

    def user():
        steps = [fs.mkdir("/d"), fs.mkdir("/d/sub")]
        steps += [fs.write_file(f"/d/{long_name(i)}", bytes([i]) * 700)
                  for i in range(130)]
        steps += [fs.unlink(f"/d/{long_name(i)}") for i in range(0, 130, 3)]
        steps += [fs.rename(f"/d/{long_name(i)}", f"/d/sub/moved{i}")
                  for i in range(1, 40, 3)]
        steps += [fs.link(f"/d/{long_name(i)}", f"/d/hard{i}")
                  for i in range(2, 40, 3)]
        steps += [fs.write_file(f"/d/again{i}", b"z" * 300)
                  for i in range(30)]
        steps += [fs.mkdir("/d/gone"), fs.rmdir("/d/gone"),
                  fs.readdir("/d"), fs.readdir("/d/sub")]
        for step in steps:
            listings.append((yield from step))
            if check:
                after_syscall()

    machine.engine.run_until(machine.engine.process(user(), name="user"),
                             max_events=5_000_000)
    machine.sync_and_settle()
    if check:
        assert len(set(indexed)) >= 4    # root, /d (two blocks), /d/sub
    report = fsck(machine.disk.storage, SMALL_GEOMETRY)
    return {
        "requests": [(r.kind.name, r.lbn, r.nsectors, r.issue_time,
                      r.dispatch_time, r.complete_time)
                     for r in machine.driver.trace],
        "events": machine.engine.events_processed,
        "now": machine.engine.now,
        "cpu": machine.cpu.busy_time,
        "digest": machine.disk.storage.digest(),
        "fsck": (sorted(report.errors), sorted(report.warnings)),
        "readdir": listings[-2:],
    }


@pytest.mark.parametrize("slug", list(REGISTRY))
def test_index_changes_nothing_simulated(monkeypatch, slug):
    indexed = observe(slug, check=True)
    assert indexed["requests"] and indexed["cpu"] > 0.0
    assert indexed["fsck"] == ([], [])
    assert len(indexed["readdir"][0]) == 130 - 44 - 13 + 13 + 30 + 1
    monkeypatch.setattr(d, "build_index", ref_dir.LinearBlock)
    assert indexed == observe(slug)


def observe_rename_race():
    """Conventional: with /a and /b synced, rename /a onto /b while a second
    process creates /b 1 ms later, as the rename waits on its unlink."""
    machine = Machine(MachineConfig(
        scheme=REGISTRY["conventional"].build(), fs_geometry=SMALL_GEOMETRY,
        cache_bytes=2 * 1024 * 1024, costs=CostModel(scale=1.0)))
    machine.format()
    fs, engine = machine.fs, machine.engine

    def race():
        yield from fs.write_file("/a", b"a" * 700)
        yield from fs.write_file("/b", b"b" * 700)
        yield from fs.sync()
        renamer = engine.process(fs.rename("/a", "/b"), name="renamer")
        creator = engine.process(create_later(), name="creator")
        yield renamer
        yield creator

    def create_later():
        yield Timeout(engine, 0.001)
        yield from fs.write_file("/b", b"c" * 700)

    run_user(machine, race())
    machine.sync_and_settle()
    return {
        "requests": [(r.kind.name, r.lbn, r.nsectors, r.issue_time,
                      r.dispatch_time, r.complete_time)
                     for r in machine.driver.trace],
        "digest": machine.disk.storage.digest(),
        "readdir": run_user(machine, fs.readdir("/")),
    }


def test_rename_racing_a_create_reads_the_same_indexed(monkeypatch):
    indexed = observe_rename_race()
    # rename adds its name without looking again after the create: two
    # live records of 'b' in one block, which the index must read as a
    # scan does
    assert indexed["readdir"] == ["b", "b"]
    monkeypatch.setattr(d, "build_index", ref_dir.LinearBlock)
    assert indexed == observe_rename_race()
