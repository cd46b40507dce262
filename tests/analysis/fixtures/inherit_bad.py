"""True positives visible only through inheritance across modules: the
locks, the guarded attribute and the helper all live on TableBase in
inherit_base.py."""

from inherit_base import TableBase


class Transport(TableBase):
    def __init__(self, conn):
        super().__init__()
        self._conn = conn

    def backwards(self):
        # cache.lock ranks after table.lock, which the inherited helper
        # takes while cache.lock is held.
        with self._cache_lock:
            self._take_table()

    def peek(self):
        return len(self.table)

    def _deliver(self, payload):
        # Runs inside TableBase.publish, under table.lock.
        self._conn.send(payload)
