"""Seeded tag-safety violations."""

from hw.tlb import SetAssociativeTLB
from schemes.base import TranslationScheme


class RawKeyScheme(TranslationScheme):
    """Writes raw keys into the L2 buckets: no tag packing anywhere in
    the access_block tree -> key-idiom finding."""

    def __init__(self, mapping, config):
        super().__init__(mapping, config)
        self.l2 = SetAssociativeTLB(1024, 8)

    def access(self, vpn):
        return vpn

    def access_block(self, vpns):
        for vpn in vpns:
            self._fill_raw(vpn)

    def _fill_raw(self, vpn):
        # Raw key, ignores self.l2._tag_base entirely.
        self.l2._sets[vpn] = vpn

    def _reset_clone(self):
        self.l2 = SetAssociativeTLB(1024, 8)


class ForgottenSideTLB(TranslationScheme):
    """Owns a side TLB that set_asid never retags -> cascade finding."""

    def __init__(self, mapping, config):
        super().__init__(mapping, config)
        self.l2 = SetAssociativeTLB(1024, 8)
        self.victim = SetAssociativeTLB(32, 8)

    def access(self, vpn):
        return vpn

    def access_block(self, vpns):
        from sim.lru import simulate_block

        simulate_block(self.l2, vpns, vpns, None)
        simulate_block(self.victim, vpns, vpns, None)

    def _reset_clone(self):
        self.l2 = SetAssociativeTLB(1024, 8)
        self.victim = SetAssociativeTLB(32, 8)


class UnsharedTLBScheme(TranslationScheme):
    """set_asid covers everything, but the fleet's bind_shared helper
    never rebinds 'orphan' -> bind_shared finding."""

    def __init__(self, mapping, config):
        super().__init__(mapping, config)
        self.l2 = SetAssociativeTLB(1024, 8)
        self.orphan = SetAssociativeTLB(16, 4)

    def access(self, vpn):
        return vpn

    def access_block(self, vpns):
        from sim.lru import simulate_block

        simulate_block(self.l2, vpns, vpns, None)
        simulate_block(self.orphan, vpns, vpns, None)

    def set_asid(self, asid):
        super().set_asid(asid)
        self.orphan.set_tag(asid)

    def _reset_clone(self):
        self.l2 = SetAssociativeTLB(1024, 8)
        self.orphan = SetAssociativeTLB(16, 4)
