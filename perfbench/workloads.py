"""Seeded job pools for the four benchmark workloads.

Every graph is built here, from ``random.Random(seed)``, as adjacency bit
rows; the program under test only ever sees the edge-list files and graph6
strings written out below (never ``--family``). The shape of each pool (the
sizes, kinds and flags of its jobs) is fixed; the seed picks the random
structure and the labelling. Keeping the shape fixed keeps the cost of a pool
nearly equal across seeds, so runs with different seeds compare. Pools are
small (12 to 14 jobs) so that each job repeats often enough in one run for
its fastest repeat to be a steady reading (see run.py).

For each graph the bench also works out, by its own bucket scan and
union-find, the configuration count and the stabilizer dimension. The output
checks compare the program's reports against these numbers.
"""

from __future__ import annotations

import heapq
import os
import random
from collections import namedtuple

WORKLOADS = ("fastpath_sparse", "fastpath_dense", "oracle_verify", "brute_enumerate")
DEFAULT_SEED = 1
ORACLE_CAP = 14  # the program's default --oracle-max-n


class Job(namedtuple("Job", "index kind argv expect_exit report n m connected configurations "
                           "dimension oracle source")):
    """One CLI invocation and what the bench expects of it.

    ``report`` is "machine", "text", "enumerate" or "none" (a refused job
    writes nothing to stdout); ``oracle`` says the report must carry
    oracle_nullity and oracle_agrees; ``source`` is what a text report prints
    after "source: ". ``configurations`` and ``dimension`` are the bench's own.
    """

    __slots__ = ()


# ---------------------------------------------------------------- graphs


def _edges(rows):
    return [(u, v) for u, row in enumerate(rows) for v in _bits(row) if u < v]


def _bits(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _from_edges(n, edges):
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def _relabel(rows, rng):
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    return _from_edges(len(rows), [(perm[u], perm[v]) for u, v in _edges(rows)])


def prufer_tree(n, rng):
    """Uniform random labelled tree on n >= 2 vertices."""
    if n == 2:
        return _from_edges(2, [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        edges.append((heapq.heappop(leaves), v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return _from_edges(n, edges)


def gnp(n, p, rng):
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return rows


def star(n, rng):
    return _relabel(_from_edges(n, [(0, i) for i in range(1, n)]), rng)


def complete(n, rng):
    full = (1 << n) - 1
    return [full & ~(1 << v) for v in range(n)]


def bipartite(a, b, rng):
    return _relabel(_from_edges(a + b, [(u, a + v) for u in range(a) for v in range(b)]), rng)


def tree_with_chords(n, chords, rng):
    rows = prufer_tree(n, rng)
    added = 0
    while added < chords:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not (rows[u] >> v) & 1:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            added += 1
    return rows


def twin_free(n, rng):
    """Connected G(n, 1/2) with no twin, closed twin or leaf: dimension 0."""
    while True:
        rows = gnp(n, 0.5, rng)
        if is_connected(rows) and analyse(rows) == (0, 0):
            return rows


def twin_rich(n, rng):
    """A connected G(n-3, 0.4) core plus a twin, a closed twin and a leaf."""
    core = n - 3
    while True:
        rows = gnp(core, 0.4, rng)
        if is_connected(rows):
            break
    rows += [0, 0, 0]
    a, b, c = rng.randrange(core), rng.randrange(core), rng.randrange(core)
    for new, nbrs in ((core, rows[a]), (core + 1, rows[b] | 1 << b), (core + 2, 1 << c)):
        for v in _bits(nbrs):
            rows[new] |= 1 << v
            rows[v] |= 1 << new
    return _relabel(rows, rng)


def disjoint_union(parts, rng):
    rows = []
    for part in parts:
        shift = len(rows)
        rows += [row << shift for row in part]
    return _relabel(rows, rng)


def components(rows):
    unvisited = (1 << len(rows)) - 1
    out = []
    while unvisited:
        seen = frontier = unvisited & -unvisited
        while frontier:
            grown = 0
            for u in _bits(frontier):
                grown |= rows[u]
            frontier = grown & ~seen
            seen |= frontier
        out.append(_bits(seen))
        unvisited &= ~seen
    return out


def is_connected(rows):
    return len(components(rows)) == 1


def analyse(rows):
    """(configuration count, stabilizer dimension) summed over components.

    Twins share an open row and closed twins a closed row, so one dict per
    kind finds every pair in a component; a bucket of k vertices holds
    k(k-1)/2 pairs and adds k-1 union operations (a chain) on its slots. A
    single vertex counts dimension 1, as the program's --components does.
    """
    configurations = 0
    parent = {}

    def find(k):
        parent.setdefault(k, k)
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    def union(p, q):
        parent[find(p)] = find(q)

    isolated = 0
    for comp in components(rows):
        if len(comp) == 1:
            isolated += 1
            continue
        for key, axis in ((lambda v: rows[v], "X"), (lambda v: rows[v] | 1 << v, "Y")):
            buckets = {}
            for v in comp:
                buckets.setdefault(key(v), []).append(v)
            for bucket in buckets.values():
                configurations += len(bucket) * (len(bucket) - 1) // 2
                for a, b in zip(bucket, bucket[1:]):
                    union((a, axis), (b, axis))
        for v in comp:
            if rows[v].bit_count() == 1:
                configurations += 1
                union((v, "X"), (rows[v].bit_length() - 1, "Z"))
    roots = {find(k) for k in list(parent)}
    return configurations, len(parent) - len(roots) + isolated


def graph6(rows):
    n = len(rows)
    chunks = [n]
    acc = width = 0
    for v in range(1, n):
        for u in range(v):
            acc = (acc << 1) | ((rows[u] >> v) & 1)
            width += 1
            if width == 6:
                chunks.append(acc)
                acc = width = 0
    if width:
        chunks.append(acc << (6 - width))
    return "".join(chr(c + 63) for c in chunks)


def write_edge_list(path, rows):
    # One row at a time: the bench process must stay small (see run.py).
    with open(path, "w", encoding="utf-8") as out:
        out.write(f"p edge {len(rows)} {sum(row.bit_count() for row in rows) // 2}\n")
        for u, row in enumerate(rows):
            out.writelines(f"e {u + 1} {v + 1}\n" for v in _bits(row >> (u + 1) << (u + 1)))


# ----------------------------------------------------------------- pools

# Each entry: (kind, graph builder, command, report format, options, input form,
# expected exit). A builder takes the rng and returns bit rows.


def _sparse_specs():
    specs = []
    for n, fmt in ((500, "machine"), (600, "text"), (700, "machine"), (800, "machine"),
                   (900, "machine")):
        specs.append(("tree", lambda r, n=n: prufer_tree(n, r), "analyze", fmt, (), "file", 0))
    for n, chords, fmt in ((550, 3, "machine"), (650, 5, "text"), (750, 8, "machine")):
        specs.append(("tree+chords", lambda r, n=n, c=chords: tree_with_chords(n, c, r),
                      "analyze", fmt, (), "file", 0))
    for sizes, fmt in (((450, 350, 200), "text"), ((400,) * 3, "machine"),
                       ((250,) * 6, "machine"), ((250,) * 8, "machine")):
        specs.append(("forest", lambda r, s=sizes: disjoint_union([prufer_tree(k, r) for k in s], r),
                      "analyze", fmt, ("--components",), "file", 0))
    return specs


def _connected_gnp(n, p, rng):
    while True:
        rows = gnp(n, p, rng)
        if is_connected(rows):
            return rows


def _dense_specs():
    builders = {
        "star": star,
        "complete": complete,
        "gnp0.5": lambda n, r: _connected_gnp(n, 0.5, r),
        "gnp0.9": lambda n, r: _connected_gnp(n, 0.9, r),
    }
    sizes = (
        ("gnp0.5", 150, "machine"), ("gnp0.9", 150, "text"), ("star", 150, "machine"),
        ("complete", 150, "text"), ("gnp0.9", 200, "machine"), ("complete", 190, "machine"),
        ("gnp0.5", 220, "text"), ("star", 240, "text"), ("gnp0.5", 300, "machine"),
        ("gnp0.9", 300, "text"),
    )
    specs = [(kind, lambda r, n=n, b=builders[kind]: b(n, r), "analyze", fmt, (), "file", 0)
             for kind, n, fmt in sizes]
    for a, b, fmt in ((75, 75, "text"), (50, 150, "machine")):
        specs.append(("bipartite", lambda r, a=a, b=b: bipartite(a, b, r), "analyze", fmt, (),
                      "file", 0))
    return specs


def _oracle_specs():
    cap15 = ("--oracle-max-n", "15")
    specs = []
    for n, fmt, form in ((10, "machine", "graph6"), (12, "machine", "graph6"),
                         (13, "text", "file"), (14, "machine", "file")):
        specs.append(("twin_rich", lambda r, n=n: twin_rich(n, r), "verify", fmt, (), form, 0))
    for n, fmt, form in ((11, "machine", "file"), (12, "text", "graph6"),
                         (14, "machine", "graph6")):
        specs.append(("twin_free", lambda r, n=n: twin_free(n, r), "verify", fmt, (), form, 0))
    specs += [
        ("tree", lambda r: prufer_tree(12, r), "verify", "text", (), "file", 0),
        ("twin_rich", lambda r: twin_rich(15, r), "verify", "machine", cap15, "graph6", 0),
        # --components on disconnected graphs with n <= 14 runs the oracle unasked.
        ("components", lambda r: disjoint_union([twin_rich(6, r), twin_free(7, r)], r),
         "analyze", "machine", ("--components",), "graph6", 0),
        ("components", lambda r: disjoint_union([[0], prufer_tree(11, r)], r),
         "analyze", "text", ("--components",), "file", 0),
        ("components", lambda r: disjoint_union([twin_free(8, r), twin_rich(5, r)], r),
         "verify", "machine", ("--components",), "file", 0),
        # Refused with exit 3 before any work: disconnected without --components,
        # and sizes above the oracle cap in force.
        ("refused_disconnected", lambda r: disjoint_union([twin_rich(6, r), prufer_tree(5, r)], r),
         "verify", "machine", (), "graph6", 3),
        ("refused_cap", lambda r: twin_free(15, r), "verify", "machine", (), "graph6", 3),
    ]
    return specs


def _brute_specs():
    builders = {
        "star": star,
        "complete": complete,
        "tree": prufer_tree,
        "twin_free": twin_free,
    }
    # Mostly n = 16-20 with a tail at 21-22; the brute walk costs 2^n whatever
    # the graph, while stars, complete graphs and trees have many elements and
    # twin-free graphs none.
    sizes = (
        ("star", 16, "graph6"), ("tree", 16, "file"), ("twin_free", 16, "graph6"),
        ("complete", 17, "file"), ("twin_free", 18, "file"), ("tree", 18, "graph6"),
        ("star", 19, "file"), ("complete", 19, "graph6"), ("tree", 20, "file"),
        ("twin_free", 20, "graph6"), ("tree", 21, "graph6"), ("star", 22, "file"),
    )
    return [
        (kind, lambda r, n=n, b=builders[kind]: b(n, r), "enumerate", "enumerate", (), form, 0)
        for kind, n, form in sizes
    ]


_SPECS = {
    "fastpath_sparse": _sparse_specs,
    "fastpath_dense": _dense_specs,
    "oracle_verify": _oracle_specs,
    "brute_enumerate": _brute_specs,
}


def build_pool(workload, seed, input_dir):
    """Generate the workload's jobs from ``seed`` and write their input files.

    Paths are relative to the repository root (the working directory), so a
    text report's ``source:`` line reads the same in every checkout.
    """
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(input_dir, exist_ok=True)
    jobs = []
    for index, (kind, builder, command, fmt, options, form, expect) in enumerate(_SPECS[workload]()):
        rows = builder(rng)
        n = len(rows)
        if form == "graph6":
            text = graph6(rows)
            source_args, source = ("--graph6", text), f"graph6 {text}"
        else:
            path = os.path.join(input_dir, f"{index:02d}.edges")
            write_edge_list(path, rows)
            source_args, source = ("--file", path), f"edge-list {path}"
        argv = (command, *source_args, *options)
        if command != "enumerate":
            argv += ("--format", fmt)
        configurations, dimension = analyse(rows)
        connected = is_connected(rows)
        jobs.append(Job(
            index=index,
            kind=kind,
            argv=argv,
            expect_exit=expect,
            report=fmt if expect == 0 else "none",
            n=n,
            m=sum(row.bit_count() for row in rows) // 2,
            connected=connected,
            configurations=configurations,
            dimension=dimension,
            oracle=expect == 0 and (command == "verify" or ("--components" in options and n <= ORACLE_CAP)),
            source=source,
        ))
    return jobs


def quick_subset(jobs):
    """The smallest job of each kind: the pool's kinds of input, in seconds."""
    best = {}
    for job in jobs:
        if job.kind not in best or (job.n, job.m) < (best[job.kind].n, best[job.kind].m):
            best[job.kind] = job
    return sorted(best.values(), key=lambda job: job.index)


def describe(jobs):
    """Ranges of n, m, configuration count and dimension (= nullity), and the kinds."""
    ran = [job for job in jobs if job.expect_exit == 0]

    def span(attr):
        values = [getattr(job, attr) for job in ran]
        return f"{min(values)}-{max(values)}"

    kinds = {}
    for job in jobs:
        kinds[job.kind] = kinds.get(job.kind, 0) + 1
    mix = ", ".join(f"{kind} x{count}" for kind, count in kinds.items())
    return (f"{len(jobs)} jobs ({mix}); n {span('n')}, m {span('m')}, "
            f"configurations {span('configurations')}, dimension {span('dimension')}")
