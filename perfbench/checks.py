"""Output checks: independent recomputation and properties of the method.

Each function takes outputs the program produced (parsed CSV tables,
sweep series, service payloads) and returns a list of problems, empty
when the output passes.  None of them compares against a stored copy of
earlier output.
"""

import math

from oracle import dm_misses

#: The report's CSVs print 6 significant digits.
CSV_RTOL = 1e-5


def parse_csv(text):
    """``(x values, {column: [floats]})`` of one report CSV."""
    lines = [line for line in text.splitlines() if line.strip()]
    header = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    xs = [row[0] for row in rows]
    columns = {
        name: [row[index] for row in rows]
        for index, name in enumerate(header[1:], start=1)
    }
    return xs, columns


def hasse_order(xs, columns):
    """Fetch traffic (fig17) follows the paper's partial order at every
    point: write-validate and write-around each <= write-invalidate <=
    fetch-on-write.  (The paper leaves validate vs around unordered.)"""
    problems = []
    for index, x in enumerate(xs):
        fow = columns["fetch-on-write"][index]
        wv = columns["write-validate"][index]
        wa = columns["write-around"][index]
        wi = columns["write-invalidate"][index]
        if not (wv <= wi and wa <= wi and wi <= fow):
            problems.append(f"fig17 at {x:g}: wv={wv} wa={wa} wi={wi} fow={fow}")
    return problems


def monotone(name, xs, values, increasing):
    """``values`` never decrease (``increasing``) or never increase along xs."""
    problems = []
    for index in range(1, len(values)):
        before, after = values[index - 1], values[index]
        if (after < before) if increasing else (after > before):
            problems.append(
                f"{name}: {before} at {xs[index - 1]:g} then {after} at {xs[index]:g}"
            )
    return problems


def inclusion_properties(tables):
    """The report's properties of direct-mapped and LRU inclusion.

    ``tables`` maps figure id to its parsed CSV.  Under fetch-on-write at
    a fixed line size, misses per instruction never rise with cache size
    (fig18); the write cache's share of writes removed never falls as
    entries grow (fig07, every column).
    """
    problems = []
    xs, columns = tables["fig18"]
    for column in ("read misses", "write misses"):
        problems += monotone(f"fig18 {column}", xs, columns[column], False)
    xs, columns = tables["fig07"]
    for column, values in columns.items():
        problems += monotone(f"fig07 {column}", xs, values, True)
    return problems


def close(measured, printed):
    return math.isclose(measured, printed, rel_tol=CSV_RTOL, abs_tol=1e-9)


def miss_fraction_point(figure, table, x, workload, trace_cols):
    """fig10/fig11: write misses as a percent of all misses, recomputed.

    fig10 sweeps cache size at 16-byte lines, fig11 line size at 8 KB.
    """
    size_kb, line = (x, 16) if figure == "fig10" else (8, x)
    reads, writes = dm_misses(*trace_cols, int(size_kb) * 1024, int(line))
    measured = 100.0 * writes / (reads + writes) if reads + writes else 0.0
    xs, columns = table
    printed = columns[workload][xs.index(x)]
    if close(measured, printed):
        return []
    return [f"{figure} {workload} at {x:g}: recomputed {measured:.6g}, csv {printed}"]


def traffic_point(figure, table, x, suite):
    """fig18/fig19: suite read and write misses per instruction, recomputed.

    ``suite`` is a list of ``(trace columns, instruction count)``.
    """
    size_kb, line = (x, 16) if figure == "fig18" else (8, x)
    reads = writes = instructions = 0
    for cols, count in suite:
        r, w = dm_misses(*cols, int(size_kb) * 1024, int(line))
        reads, writes, instructions = reads + r, writes + w, instructions + count
    xs, columns = table
    problems = []
    for column, measured in (("read misses", reads / instructions),
                             ("write misses", writes / instructions)):
        printed = columns[column][xs.index(x)]
        if not close(measured, printed):
            problems.append(
                f"{figure} {column} at {x:g}: recomputed {measured:.6g}, csv {printed}"
            )
    return problems


def bare_miss_ratio(series, sizes_kb, workload, index, trace_cols):
    """A bare system sweep's L1 effective miss ratio, recomputed exactly."""
    reads, writes = dm_misses(*trace_cols, int(sizes_kb[index]) * 1024, 16)
    refs = len(trace_cols[0])
    measured = (reads + writes) / refs if refs else 0.0
    printed = series[workload][index]
    if measured == printed:
        return []
    return [f"bare {workload} at {sizes_kb[index]}KB: recomputed {measured!r}, sweep {printed!r}"]


def not_above_bare(name, bare, variant):
    """Every point of a structure variant's series is <= the bare one's."""
    problems = []
    for workload, values in variant.items():
        for index, value in enumerate(values):
            if value > bare[workload][index]:
                problems.append(
                    f"{name} {workload}[{index}]: {value!r} > bare {bare[workload][index]!r}"
                )
    return problems


def same(label, first, second):
    """Two outputs that must be identical."""
    return [] if first == second else [f"{label}: outputs differ"]
