"""Hardware is recognised by its constructor, not by a list of names."""

from hw.tlb import SetAssociativeTLB, VictimBuffer
from schemes.base import TranslationScheme


class HardwareScheme(TranslationScheme):
    """A set_tag structure bound in __init__ is hardware: clone_fresh
    gives every clone its own, so filling it in place is clean."""

    def __init__(self, mapping, config):
        super().__init__(mapping, config)
        self.victim_tlb = SetAssociativeTLB(64, 4)

    def fill(self, vpn):
        self.victim_tlb.insert(vpn, vpn, vpn)


class VictimScheme(TranslationScheme):
    """A structure without set_tag is shared with the prototype."""

    def __init__(self, mapping, config):
        super().__init__(mapping, config)
        self.victims = VictimBuffer()

    def evict(self, vpn):
        self.victims.insert(vpn)
