"""In-memory spans for the traced benchmark run.

A span records name, start, end, parent, workload and run id. Spans are
opened by the benchmark around calls into swarmlab's public functions;
nothing inside ``src/`` is patched. They are kept in memory and written
out once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, workload, run_id):
        self.workload = workload
        self.run_id = run_id
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "workload": self.workload,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name):
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name):
        return sum(self.durations(name))

    def median_ms(self, name):
        """Median duration of the named spans in ms, 0.0 when none were recorded."""
        d = self.durations(name)
        return 1e3 * statistics.median(d) if d else 0.0

    def self_times(self):
        """Per span name: summed duration minus the part covered by child spans."""
        children = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out = {}
        for s in self.spans:
            covered = 0.0
            cursor = s["start"]
            for lo, hi in sorted(children.get(s["id"], ())):
                lo = max(lo, cursor)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - covered
        return out

    def write(self, path):
        with open(path, "w", newline="\n") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")
