class SetAssociativeTLB:
    def __init__(self, entries, ways):
        self._sets = [dict() for _ in range(entries // ways)]
        self.tag = 0

    def set_tag(self, tag):
        self.tag = tag

    def insert(self, index, key, value):
        self._sets[index][key] = value


class VictimBuffer:
    """Holds entries but answers no tag protocol: not TLB hardware."""

    def __init__(self):
        self.entries = []

    def insert(self, key):
        self.entries.append(key)
