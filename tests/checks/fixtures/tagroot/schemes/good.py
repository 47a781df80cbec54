"""Clean tag-safety patterns: nothing here may be flagged."""

from hw.tlb import TAG_SHIFT, RangeTLB, SetAssociativeTLB
from schemes.base import TranslationScheme
from sim.lru import simulate_block


class BatchedScheme(TranslationScheme):
    """Evidence through simulate_block, two helpers deep."""

    hardware = TranslationScheme.hardware + ("l2", "range_tlb")

    def __init__(self, mapping, config):
        super().__init__(mapping, config)
        self.l2 = SetAssociativeTLB(1024, 8)
        self.range_tlb = RangeTLB()

    def access(self, vpn):
        return vpn

    def access_block(self, vpns):
        self._resolve(vpns)

    def _resolve(self, vpns):
        return simulate_block(self.l2, vpns, vpns, None)


class OrIdiomScheme(TranslationScheme):
    """Evidence through the explicit tag-base OR idiom."""

    hardware = TranslationScheme.hardware + ("l2",)

    def __init__(self, mapping, config):
        super().__init__(mapping, config)
        self.l2 = SetAssociativeTLB(1024, 8)

    def access(self, vpn):
        return vpn

    def access_block(self, vpns):
        tag_base = self.l2.tag << TAG_SHIFT
        for vpn in vpns:
            self.l2._sets[vpn | tag_base] = vpn

