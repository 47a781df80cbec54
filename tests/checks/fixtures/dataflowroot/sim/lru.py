def simulate_block(tlb, set_indices, keys, values):
    hits = 0
    for idx, key in zip(set_indices, keys):
        if tlb.lookup(idx, key) is not None:
            hits += 1
    return hits
