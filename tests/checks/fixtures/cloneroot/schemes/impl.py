from repro.schemes.base import TranslationScheme
from repro.vmos.anchor_directory import AnchorDirectory
from repro.vmos.ranges import RangeTable
from repro.vmos.mapping import KeyIndex


class RebuildingScheme(TranslationScheme):
    """_reset_clone pays the O(mapping) costs cloning exists to avoid."""

    name = "rebuilding"

    def access(self, vpn):
        return 0

    def _translate(self, vpn):
        return 0

    def _build_views(self):
        self._small = dict(self.mapping.items())

    def _reset_clone(self):
        self._small = dict(self.mapping.items())       # mapping touch
        self._build_views()                            # _build* call
        self.directory = AnchorDirectory.build(self._small, distance=8)
        self.table = RangeTable(self._small)
        self._index = KeyIndex(self._keys, self._values)


class CleanCloneScheme(TranslationScheme):
    """The discipline done right: share in _prepare_share, reset the
    per-tenant state."""

    name = "clean-clone"

    def access(self, vpn):
        return 0

    def _translate(self, vpn):
        return 0

    def _build_views(self):
        self._small = dict(self.mapping.items())

    def _prepare_share(self):
        self._build_views()                            # exempt: prototype side
        self.table = RangeTable(self.mapping.frozen())

    def _reset_clone(self):
        self._resident = set()


class Helper:
    """Not a scheme: free to name its methods anything."""

    def _reset_clone(self):
        self.view = dict(self.mapping.items())
