"""Seeded RL001 violations: journalled-store contract breaches.

Each ``# expect[RLxxx]`` trailing comment marks a line the analyzer
must report; the test compares the marked set exactly against the
findings.  Never imported — the analyzer only parses.
"""


class _ColumnSet:
    def __init__(self, schema):
        self.schema = schema

    def extend(self, rows):
        pass

    def delete_range(self, lo, hi):
        pass

    def splice(self, los, his, counts, rows):
        pass


class MutationJournal:
    def record(self, ids):
        pass


class ColumnarSegmentStore:
    def __init__(self):
        self._segments = _ColumnSet(())
        self._generation = 0
        self._journal = MutationJournal()

    def extend(self, rows, ids):
        # Compliant mutator: bump + record on the only path.
        self._segments.extend(rows)
        self._generation += 1
        self._journal.record(ids)

    def delete(self, lo, hi, ids):  # expect[RL001]
        # Bumps but never records: stale cached answers survive.
        self._segments.delete_range(lo, hi)
        self._generation += 1

    def replace(self, rows, ids, validate):
        # The early return skips the bump: one exit breaks parity, and
        # the violation is reported at that exact exit.
        self._segments.extend(rows)
        if validate:
            self._journal.record(ids)
            return len(rows)  # expect[RL001]
        self._generation += 1
        self._journal.record(ids)
        return len(rows)

    def truncate(self, ids):  # expect[RL001]
        # Journals correctly but is not a reviewed mutator surface.
        self._segments.delete_range(0, 1)
        self._generation += 1
        self._journal.record(ids)

    def replace_many(self, los, his, counts, rows):  # expect[RL001]
        # Splices every range in one call but never bumps or records:
        # cached answers over the spliced ids stay stale.
        self._segments.splice(los, his, counts, rows)
