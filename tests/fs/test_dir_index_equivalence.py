"""The live directory-block index against the linear scan it stands in for.

``repro.fs.directory.DirIndex`` is maintained through mutations instead of
being rebuilt, so it can drift from the bytes it mirrors in ways a rebuild
never could.  The linear ``lookup`` / ``add_entry`` / ``remove_entry`` are
the reference (the ``tests/disk/reference_store.py`` pattern): after every
step of a generated interleaving the indexed block must hold the same bytes,
answer every lookup the same way (entry *and* scanned count), and equal a
fresh ``build_index`` of those bytes.  The whole-machine half holds every
registered scheme to the same thing from the outside: with the index forced
off (test-side monkeypatch; there is no shipped switch) the timeline, the
disk image and fsck's verdict must not move.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.costs import CostModel
from repro.fs import directory as d
from repro.fs.layout import FileType
from repro.integrity.fsck import fsck
from repro.machine import Machine, MachineConfig
from repro.ordering.registry import REGISTRY

from tests.conftest import SMALL_GEOMETRY, iter_entries

#: few enough names that re-adds, collisions and full blocks all happen;
#: lengths from 1 to 57 bytes, one of them multi-byte
NAMES = [stem * repeat for stem in ("a", "bc", "défg", "hijklmno")
         for repeat in (1, 2, 3, 5, 7)] + [".", ".."]
FTYPES = [FileType.REGULAR, FileType.DIRECTORY]

OPS = st.lists(st.tuples(
    st.sampled_from(["add", "remove"]),
    st.integers(0, 10_000)), max_size=60)


def start_block(chunks, prefilled):
    """'.' and '..', *prefilled* packed chunks, the rest empty."""
    data = bytearray(d.new_dir_contents(2, 2))
    for chunk in range(prefilled):
        data += d.format_chunk([(10 + chunk, f"pre{chunk}-{i}" * (i + 1),
                                 FileType.REGULAR) for i in range(4)])
    while len(data) < chunks * d.DIRBLKSIZ:
        data += d.empty_chunk()
    return data


def assert_mirrors(live, ref, base=4096):
    assert live.data == ref
    assert live == d.build_index(bytes(ref))
    assert list(live.scan()) == list(d.iter_records(ref))
    for name in NAMES + ["absent", "pre0-0"]:
        assert live.find(name, base) == d.lookup(ref, name, base)


@settings(max_examples=150, deadline=None)
@given(chunks=st.integers(1, 4), prefilled=st.integers(0, 2), ops=OPS)
def test_any_interleaving_matches_the_linear_functions(chunks, prefilled, ops):
    ref = start_block(max(chunks, prefilled + 1), prefilled)
    live = d.build_index(bytearray(ref))
    assert_mirrors(live, ref)
    for op, pick in ops:
        alive = [e for e in iter_entries(ref) if e.live]
        if op == "add":
            name = NAMES[pick % len(NAMES)]
            ino, ftype = 100 + pick, FTYPES[pick % 2]
            if d.lookup(ref, name)[0] is not None:
                # the index refuses a second record of a name, untouched
                with pytest.raises(ValueError):
                    live.add(name, ino, ftype)
            else:
                # same slot, or the same refusal when nothing fits
                assert live.add(name, ino, ftype) \
                    == d.add_entry(ref, name, ino, ftype)
        elif op == "remove" and alive:
            offset = alive[pick % len(alive)].offset
            assert live.remove(offset) == d.remove_entry(ref, offset)
        assert_mirrors(live, ref)


def test_index_refuses_what_the_linear_functions_refuse():
    ref = start_block(1, 0)
    live = d.build_index(bytearray(ref))
    for bad in ("", "x" * 256, "é" * 128):
        with pytest.raises(ValueError):
            d.add_entry(ref, bad, 5, FileType.REGULAR)
        with pytest.raises(ValueError):
            live.add(bad, 5, FileType.REGULAR)
    # '.' heads its chunk, so removal leaves a dead record: not removable
    assert live.remove(0) == d.remove_entry(ref, 0) == 2
    with pytest.raises(ValueError):
        d.remove_entry(ref, 0)
    with pytest.raises(ValueError):
        live.remove(0)
    assert_mirrors(live, ref)


def test_duplicate_names_and_corrupt_bytes_are_not_indexed():
    twice = start_block(1, 0)
    d.add_entry(twice, "same", 7, FileType.REGULAR)
    d.add_entry(twice, "same", 8, FileType.REGULAR)
    assert d.build_index(twice) is None
    assert d.lookup(twice, "same")[0].ino == 7      # first record wins
    torn = start_block(2, 1)
    torn[512 + 4:512 + 6] = b"\x03\x00"             # reclen 3
    assert d.build_index(torn) is None


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
            if isinstance(buf.dir_index, d.DirIndex):
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
    monkeypatch.setattr(d, "build_index", lambda data: None)
    assert indexed == observe(slug)
