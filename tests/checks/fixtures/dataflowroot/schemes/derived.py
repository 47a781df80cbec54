import numpy as np

from schemes.base import BaseScheme


class DerivedScheme(BaseScheme):
    def __init__(self, mapping):
        super().__init__(mapping)
        self.table = np.zeros(64, dtype=np.int64)
        self.freq = np.zeros(64, dtype=np.int64)
        self.log = []

    def _resolve(self, vpns):
        self.hits += len(vpns)
        self.table[: len(vpns)] = 1
        np.copyto(self.freq, 0)
        self.log.append(len(vpns))
        self.cache = {}
        return super()._resolve(vpns)


class ExplicitScheme(BaseScheme):
    def __init__(self, mapping, cached):
        BaseScheme.__init__(self, mapping)
        self.cache = dict() if cached else None
