from repro.schemes.base import TranslationScheme


class HollowScheme(TranslationScheme):
    """Registered but missing access/_translate/name; bad hooks too."""

    def _on_mapping_update(self, frozen):
        self._view = frozen.page_table  # rebuilds, but forgets the flush

    def refresh(self):
        self._cache = self.mapping.frozen().page_table


class LeakyTagScheme(TranslationScheme):
    """Batched hook with a bespoke signature."""

    name = "leaky"

    def access(self, vpn):
        return 0

    def _translate(self, vpn):
        return 0

    def access_block(self, vpns, prefetch=True):
        for vpn in vpns:
            self.access(vpn)


class CleanScheme(TranslationScheme):
    name = "clean"

    def __init__(self, mapping, config=None):
        self._small = mapping.frozen().page_table

    def _build_views(self):
        self._huge = dict(self.mapping.items())

    def _on_mapping_update(self, frozen):
        self._build_views()
        self.flush()

    def resync(self):
        self._view = self.mapping.frozen()
        self._synced_version = self.mapping.version

    def access(self, vpn):
        return 0

    def _translate(self, vpn):
        return 0

    def access_block(self, vpns):
        for vpn in vpns:
            self.access(vpn)


class Helper:
    """Not a scheme: free to do what it wants."""

    def cache(self, mapping):
        self.snapshot = mapping
