from hw.tlb import SetAssociativeTLB


class TranslationScheme:
    hardware = ("l1",)

    def __init__(self, mapping, config):
        self.mapping = mapping
        self.config = config
        self.l1 = SetAssociativeTLB(64, 4)

    def access(self, vpn):
        raise NotImplementedError

    def access_block(self, vpns):
        for vpn in vpns:
            self.access(vpn)

    def set_asid(self, asid):
        for name in self.hardware:
            getattr(self, name).set_tag(asid)
