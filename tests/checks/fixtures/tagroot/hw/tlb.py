TAG_SHIFT = 46


class SetAssociativeTLB:
    def __init__(self, entries, ways):
        self._sets = {}
        self.tag = 0
        self._tag_base = 0

    def set_tag(self, tag):
        self.tag = tag
        self._tag_base = tag << TAG_SHIFT

    def lookup(self, idx, key):
        return self._sets.get(key | self._tag_base)


class RangeTLB:
    def __init__(self):
        self._entries = {}
        self._tag_base = 0

    def set_tag(self, tag):
        self._tag_base = tag << TAG_SHIFT
