def corrupt(frozen, arr):
    frozen.vpns[0] = 7
    frozen.pfns = arr
    frozen.page_table[3] = 4
    frozen.run_pages[1:] += 1
    frozen.index.rows[0] = -1
    arr.setflags(write=True)
    arr.setflags(True)
