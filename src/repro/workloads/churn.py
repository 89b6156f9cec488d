"""Seeded metadata-churn workloads for crash exploration.

These are not paper benchmarks: they are adversarial workloads whose point
is to keep many *ordering-sensitive* metadata updates in flight at once
(creates, removes, mkdirs, renames), so that a crash at any disk-write
boundary lands in the middle of some ordered sequence.  Everything is
deterministic in the seed -- a finding names (scheme, workload, seed, crash
point) and the replay oracle re-runs the workload to that instant, so two
runs with the same seed must issue byte-identical operation streams.
"""

from __future__ import annotations

import random
from typing import Generator

from repro.machine import Machine

#: the figure-5 microbenchmark file payload size
MICRO_FILE_SIZE = 1024


def churn_workload(machine: Machine, seed: int = 0,
                   operations: int = 40) -> Generator:
    """A random mix of creates, writes, removes, mkdirs and renames."""
    rng = random.Random(seed)
    live_files: list[str] = []
    live_dirs = ["/"]
    counter = 0
    for _ in range(operations):
        action = rng.random()
        if action < 0.45 or not live_files:
            parent = rng.choice(live_dirs)
            path = f"{parent.rstrip('/')}/f{counter}"
            counter += 1
            size = rng.choice([300, 1024, 5000, 9000, 20000])
            yield from machine.fs.write_file(path, b"d" * size)
            live_files.append(path)
        elif action < 0.70:
            path = live_files.pop(rng.randrange(len(live_files)))
            yield from machine.fs.unlink(path)
        elif action < 0.85 and len(live_dirs) < 5:
            path = f"/dir{counter}"
            counter += 1
            yield from machine.fs.mkdir(path)
            live_dirs.append(path)
        else:
            old = live_files.pop(rng.randrange(len(live_files)))
            new = f"/renamed{counter}"
            counter += 1
            yield from machine.fs.rename(old, new)
            live_files.append(new)


def remove_churn(machine: Machine, seed: int = 0,
                 files: int = 12) -> Generator:
    """Create durable files, then remove them and reuse their fragments.

    The ``sync()`` between phases pins every entry, inode, and data block
    to the media first, so the remove phase's ordering (rule 1: entry
    cleared before the inode frees; rule 2: pointers nullified before the
    fragments are reused) acts on *durable* state -- the window where
    breaking either rule corrupts the image, rather than merely leaking
    an orphan that never hit the platters.

    The reusers (``g*``) are created *before* the removes and therefore
    hold distinct, already-durable inode slots; after each unlink the
    freed fragments are written into the matching reuser and ``fsync``
    forces its claim to the platters at once.  Under a scheme that delays
    the old owner's pointer reset (rule 2 broken), the media now shows two
    inodes claiming the same fragments -- the breach is on disk the
    instant the fsync completes, which is what makes this the mutation-
    test workload for the rule-breaking shim schemes.
    """
    rng = random.Random(seed)
    payload = bytes([seed % 251 or 1]) * 6 * 1024
    yield from machine.fs.mkdir("/rm")
    names = [f"/rm/f{index}" for index in range(files)]
    for name in names:
        yield from machine.fs.write_file(name, payload)
    growers = [f"/rm/g{index}" for index in range(files)]
    for name in growers:
        handle = yield from machine.fs.create(name)
        yield from machine.fs.close(handle)
    yield from machine.fs.sync()
    order = list(range(files))
    rng.shuffle(order)
    for index in order:
        yield from machine.fs.unlink(names[index])
        # reuse the freed fragments under a different, durable inode and
        # force the new claim out immediately
        handle = yield from machine.fs.open(growers[index])
        yield from machine.fs.write(handle, payload)
        yield from machine.fs.fsync(handle)
        yield from machine.fs.close(handle)
    yield from machine.fs.sync()


def reuse_churn(machine: Machine, seed: int = 0,
                files: int = 12) -> Generator:
    """Force cross-inode fragment reuse: the rule-2 torture workload.

    Rule 2 ("never reuse a resource before nullifying all previous
    pointers") only corrupts the media when a *different* inode's claim to
    a freed fragment lands while the old owner's on-disk pointers still
    stand.  Two things normally hide that window in this simulator: the
    allocator's rotor hands out fresh fragments while any remain (freed
    runs are only rediscovered after a wrap), and files created in the
    same directory share a 64-inode block, so one inode-block write
    carries both the old owner's clear and the new owner's claim.

    This workload defeats both, deterministically:

    1. victims (``/a/f*``, one 6-fragment run each) land in directory
       ``/a``'s cylinder group; ballast then fills that group's fresh
       space exactly (the per-victim 2-fragment tail holes cannot host a
       6-run),
    2. the reusers (``/b/g*``) live in directory ``/b`` -- placed in the
       *other* cylinder group by the least-loaded directory policy -- so
       their inode blocks are disjoint from the victims'; ballast fills
       that group completely,
    3. each unlinked victim's run is then the only allocatable 6-run in
       the file system, so the matching reuser's write *must* take it,
       and the ``fsync`` forces the new claim to the platters while a
       rule-2-breaking scheme still holds the old owner's clear dirty.

    Schemes that defer frees (soft updates) get a drain barrier after
    each unlink (``pending_work()``), otherwise the deferred free would
    starve the reuser's allocation; eager schemes -- including the
    rule-breaking shims -- take no barrier, keeping the breach window
    open.  Assumes a multi-cg geometry (the explorer testbed's 2 x 2 MB).
    """
    fs = machine.fs
    geo = fs.geometry
    alloc = fs.allocator
    fpb = geo.frags_per_block
    payload_frags = 6
    payload = bytes([seed % 251 or 1]) * payload_frags * geo.frag_size
    block = bytes([(seed + 1) % 251 or 1]) * geo.block_size

    yield from fs.mkdir("/a")
    ip = yield from fs.namei("/a")
    cg_a = geo.cg_of_inode(ip.ino)
    fs.iput(ip)
    names = [f"/a/f{index}" for index in range(files)]
    for name in names:
        yield from fs.write_file(name, payload)
    # fill cg_a's remaining fresh space; each victim left a 2-frag hole
    # at its block tail, which no 6-run can occupy
    holes = files * (fpb - payload_frags)
    handle = yield from fs.create("/a/ballast")
    while alloc.cg_free_frags[cg_a] - holes >= fpb:
        yield from fs.write(handle, block)
    yield from fs.close(handle)

    yield from fs.mkdir("/b")
    ip = yield from fs.namei("/b")
    cg_b = geo.cg_of_inode(ip.ino)
    fs.iput(ip)
    growers = [f"/b/g{index}" for index in range(files)]
    for name in growers:
        handle = yield from fs.create(name)
        yield from fs.close(handle)
    handle = yield from fs.create("/b/ballast")
    while alloc.cg_free_frags[cg_b] >= fpb:
        yield from fs.write(handle, block)
    yield from fs.close(handle)
    yield from fs.sync()

    rng = random.Random(seed)
    order = list(range(files))
    rng.shuffle(order)
    for index in order:
        yield from fs.unlink(names[index])
        if fs.scheme.pending_work():
            # deferred-free schemes must complete the free before the
            # reuser can allocate; eager schemes keep the window open
            yield from fs.sync()
        handle = yield from fs.open(growers[index])
        yield from fs.write(handle, payload)
        yield from fs.fsync(handle)
        yield from fs.close(handle)
    yield from fs.sync()


def microbench_churn(machine: Machine, seed: int = 0,
                     files: int = 24) -> Generator:
    """Figure-5-shaped churn: create 1 KB files, then remove a slice.

    The create phase exercises rule 3 (inode initialized before the
    directory entry lands); the remove phase exercises rules 1-2 (entry
    cleared before the link drop, pointers reset before reuse).  The seed
    perturbs which files are removed and which survive, so different seeds
    explore different dependency interleavings.
    """
    rng = random.Random(seed)
    payload = bytes([seed % 251]) * MICRO_FILE_SIZE
    yield from machine.fs.mkdir("/micro")
    for index in range(files):
        yield from machine.fs.write_file(f"/micro/f{index}", payload)
    victims = [index for index in range(files) if rng.random() < 0.6]
    for index in victims:
        yield from machine.fs.unlink(f"/micro/f{index}")
    # a short re-create tail: freed inodes/fragments get reused, the
    # classic rule-2 hazard window
    for index in victims[: max(1, len(victims) // 3)]:
        yield from machine.fs.write_file(f"/micro/g{index}", payload)
