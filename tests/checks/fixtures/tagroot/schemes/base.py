from hw.tlb import SetAssociativeTLB


class TranslationScheme:
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
        self.l1.set_tag(asid)
        for attr in ("l2", "range_tlb"):
            tlb = getattr(self, attr, None)
            if tlb is not None:
                tlb.set_tag(asid)

    def _prepare_share(self):
        pass

    def _reset_clone(self):
        pass
