class FrozenMapping:
    """The builder itself may assign its columns."""

    def __init__(self, vpns, pfns):
        self.vpns = vpns
        self.pfns = pfns
        self.vpns.setflags(write=False)


def read(frozen):
    return frozen.vpns[0], frozen.page_table.get(3), frozen.index.rows[0]


def local_table(index):
    rows = index.rows.copy()
    rows[0] = -1
    return rows


def harmless(arr):
    arr.setflags(write=False)
    copy = arr.copy()
    copy[0] = 1
    return copy
