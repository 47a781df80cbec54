"""Clean tag-safety patterns: nothing here may be flagged."""

from hw.tlb import TAG_SHIFT, ClusterTLB, RangeTLB, SetAssociativeTLB
from schemes.base import TranslationScheme
from sim.lru import simulate_block


class BatchedScheme(TranslationScheme):
    """Evidence through simulate_block, two helpers deep."""

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

    def _reset_clone(self):
        self.l2 = SetAssociativeTLB(1024, 8)
        self.range_tlb = RangeTLB()


class OrIdiomScheme(TranslationScheme):
    """Evidence through the explicit tag-base OR idiom."""

    def __init__(self, mapping, config):
        super().__init__(mapping, config)
        self.l2 = SetAssociativeTLB(1024, 8)
        self.clustered = ClusterTLB(64)

    def access(self, vpn):
        return vpn

    def access_block(self, vpns):
        tag_base = self.l2.tag << TAG_SHIFT
        for vpn in vpns:
            self.l2._sets[vpn | tag_base] = vpn

    def set_asid(self, asid):
        super().set_asid(asid)
        self.clustered.array.set_tag(asid)

    def _reset_clone(self):
        self.l2 = SetAssociativeTLB(1024, 8)
        self.clustered = ClusterTLB(64)

