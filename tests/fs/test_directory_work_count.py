"""Creating n files in one directory decodes O(n) records, not O(n^2).

Counts, not timings: a directory block is parsed when it is first used after
a read or an allocation, and never again because an entry was added.  A
per-create rebuild (what ``buf.dir_index = None`` after every mutation used to
cause: 1 505 ``build_index`` calls and ~587 000 records decoded for 1 504
creates) fails both assertions by two orders of magnitude.
"""

import pytest

from repro.fs import directory
from repro.fs.layout import FSGeometry
from tests.conftest import make_machine, run_user

#: room for 800 files (the shared small geometry has 512 inodes)
GEOMETRY = FSGeometry(ipg=512, dfrags_per_cg=2048, ncg=2)


def create_files(monkeypatch, scheme, nfiles):
    """(build_index calls, records decoded, directory blocks) for *nfiles*."""
    builds, decoded = [], []
    build_index, iter_records = directory.build_index, directory.iter_records

    def counting_build(data):
        builds.append(len(data))
        return build_index(data)

    def counting_records(data, base_offset=0):
        for record in iter_records(data, base_offset):
            decoded.append(record[0])
            yield record

    monkeypatch.setattr(directory, "build_index", counting_build)
    monkeypatch.setattr(directory, "iter_records", counting_records)
    machine = make_machine(scheme, geometry=GEOMETRY)

    def user():
        yield from machine.fs.mkdir("/d")
        for i in range(nfiles):
            # 28-byte records: 18 to a chunk, 288 to a block
            handle = yield from machine.fs.create(f"/d/file-{i:015d}")
            yield from machine.fs.close(handle)
        din = yield from machine.fs.stat("/d")
        return din.size // machine.fs.geometry.block_size

    blocks = run_user(machine, user())
    assert machine.cache.misses < 64, "the cache must hold the working set"
    return len(builds), len(decoded), blocks


@pytest.mark.parametrize("scheme", ["softupdates", "conventional"])
def test_one_parse_per_directory_block_not_per_create(monkeypatch, scheme):
    builds_400, decoded_400, blocks_400 = create_files(monkeypatch, scheme, 400)
    monkeypatch.undo()
    builds_800, decoded_800, blocks_800 = create_files(monkeypatch, scheme, 800)
    assert (blocks_400, blocks_800) == (2, 3)
    # the root block plus each block of /d, each parsed once while cached
    assert builds_400 <= 1 + blocks_400
    assert builds_800 <= 1 + blocks_800
    assert 0 < decoded_800 <= 2.2 * decoded_400
