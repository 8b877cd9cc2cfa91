"""An independent direct-mapped, write-back, fetch-on-write cache.

It imports nothing from ``repro.cache``: the output checks use it to
recompute miss counts that the program's fast engines also produce.
Every reference is split into the cache lines it touches; each line
access either hits or misses, and a miss allocates the line whether the
access reads or writes (fetch-on-write).
"""


def dm_misses(addresses, sizes, kinds, size_bytes, line_size):
    """``(read_misses, write_misses)`` over one reference stream.

    ``kinds`` holds 0 for a load and 1 for a store.  The cache has
    ``size_bytes // line_size`` sets, indexed by the low bits of the
    line number.
    """
    sets = size_bytes // line_size
    tags = [-1] * sets
    read_misses = write_misses = 0
    for address, size, kind in zip(addresses, sizes, kinds):
        first = address // line_size
        last = (address + size - 1) // line_size
        for line in range(first, last + 1):
            index = line % sets
            if tags[index] != line:
                tags[index] = line
                if kind:
                    write_misses += 1
                else:
                    read_misses += 1
    return read_misses, write_misses


def trace_columns(trace):
    """Plain Python lists of one trace's addresses, sizes and kinds."""
    return (
        trace.address_array.tolist(),
        trace.size_array.tolist(),
        trace.kind_array.tolist(),
    )
