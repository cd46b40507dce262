"""Base class for the cross-module inheritance fixtures: the locks, the
guarded table and the template method live here, and inherit_bad.py /
inherit_ok.py subclass it from another module."""

import threading


class TableBase:
    def __init__(self):
        self._table_lock = threading.Lock()
        self._cache_lock = threading.Lock()
        self.table = {}  # guarded-by: table.lock

    def _take_table(self):
        with self._table_lock:
            self.table.clear()

    def publish(self, payload):
        with self._table_lock:  # held across the hook
            self.table[len(self.table)] = payload
            self._deliver(payload)

    def _deliver(self, payload):
        raise NotImplementedError
