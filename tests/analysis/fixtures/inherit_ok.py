"""Near-miss negatives for inherit_bad.py: the same inherited locks,
attribute and template method, used in the declared order, under the
declaring lock, and with the hook deferring its send until no lock is
held."""

from inherit_base import TableBase


class Transport(TableBase):
    def __init__(self, conn):
        super().__init__()
        self._conn = conn
        self._outbox = []

    def forwards(self):
        with self._table_lock:
            with self._cache_lock:
                pass

    def peek(self):
        with self._table_lock:
            return len(self.table)

    def _deliver(self, payload):
        self._outbox.append(payload)

    def flush(self):
        for payload in self._outbox:
            self._conn.send(payload)
