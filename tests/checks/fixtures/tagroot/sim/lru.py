from hw.tlb import TAG_SHIFT


def simulate_block(tlb, set_indices, keys, values):
    """Batched resolver: packs the array's tag into every key itself."""
    tag = tlb.tag
    if tag:
        keys = [k | (tag << TAG_SHIFT) for k in keys]
    return [tlb.lookup(i, k) for i, k in zip(set_indices, keys)]
