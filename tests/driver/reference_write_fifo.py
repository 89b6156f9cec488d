"""The per-sector write FIFO the driver's write extent index replaced.

A map from sector to the ids of the incomplete writes covering it, in
issue order.  Trivially correct -- the oldest incomplete write on a sector
is its list's head -- and therefore what ``DeviceDriver._overlap_blocker``
is compared against (``test_write_index.py``).  It costs one list entry
per sector a write covers, which is why the driver no longer keeps it.
"""


class ReferenceWriteFifo:
    def __init__(self):
        self._fifo = {}

    def issue(self, request):
        """A write entered the driver queue."""
        for sector in range(request.lbn, request.end_lbn):
            self._fifo.setdefault(sector, []).append(request.id)

    def complete(self, request):
        """A write finished; it is the head of every list it is in."""
        for sector in range(request.lbn, request.end_lbn):
            ids = self._fifo[sector]
            assert ids[0] == request.id, (sector, ids, request.id)
            del ids[0]
            if not ids:
                del self._fifo[sector]

    def blocker(self, request):
        """The head of the first sector of *request* whose oldest
        incomplete write is older than *request*, or None."""
        for sector in range(request.lbn, request.end_lbn):
            ids = self._fifo.get(sector)
            if ids and ids[0] < request.id:
                return ids[0]
        return None

    def __bool__(self):
        return bool(self._fifo)
