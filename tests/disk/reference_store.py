"""A per-sector dict model of ``repro.disk.storage.SectorStore``.

Trivially correct -- a sparse map from sector number to ``bytes`` -- and
therefore the thing the shipped chunked copy-on-write store is compared
against (``test_store_equivalence.py``, ``test_store_machine_equivalence.py``,
the conformance class in ``test_storage_and_cache.py``).  Install it in a
machine with ``machine.disk.storage = ReferenceStore(geometry)`` before
``format()``.
"""

import hashlib


class ReferenceStore:
    def __init__(self, geometry):
        self.geometry = geometry
        self._zero = bytes(geometry.sector_size)
        self._sectors = {}
        self.sectors_written = 0

    def _check_range(self, lbn, nsectors):
        if nsectors <= 0:
            raise ValueError(f"sector count must be positive, got {nsectors}")
        if lbn < 0 or lbn + nsectors > self.geometry.total_sectors:
            raise ValueError(
                f"sector range [{lbn}, {lbn + nsectors}) outside disk")

    def read(self, lbn, nsectors=1):
        self._check_range(lbn, nsectors)
        return b"".join(self._sectors.get(lbn + i, self._zero)
                        for i in range(nsectors))

    def write(self, lbn, data):
        size = self.geometry.sector_size
        if len(data) % size != 0:
            raise ValueError(
                f"write of {len(data)} bytes is not sector-aligned ({size})")
        nsectors = len(data) // size
        self._check_range(lbn, nsectors)
        for i in range(nsectors):
            self._sectors[lbn + i] = bytes(data[i * size:(i + 1) * size])
        self.sectors_written += nsectors

    def write_partial(self, lbn, data, nsectors_applied):
        prefix = data[:nsectors_applied * self.geometry.sector_size]
        if prefix:
            self.write(lbn, prefix)

    def snapshot(self):
        clone = ReferenceStore(self.geometry)
        clone._sectors = dict(self._sectors)
        clone.sectors_written = self.sectors_written
        return clone

    def load_from(self, image):
        self._sectors = dict(image.iter_nonzero())

    def iter_nonzero(self):
        for lbn in sorted(self._sectors):
            if self._sectors[lbn] != self._zero:
                yield lbn, self._sectors[lbn]

    def digest(self):
        h = hashlib.sha256()
        for lbn, data in self.iter_nonzero():
            h.update(lbn.to_bytes(8, "little"))
            h.update(data)
        return h.hexdigest()

    def __len__(self):
        return len(self._sectors)
