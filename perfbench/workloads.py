"""Seeded gem families, the op each workload times, and its known answers.

Every workload is a ladder of rungs; the size doubles from one rung to
the next.  A rung holds a pool of seeded inputs of the same size, and
round r of a run uses input r mod pool of every rung.  At a fixed order
one gem's time varies by 15-20% with its seed, and on pp_ladder it is
bimodal, so a pool averages that out of the per-run medians.

Each input carries the answer its op must give.  The answers come from
the mathematics of the family (a blob keeps the sphere, genus adds
under connected sum, a spanning forest has a fixed size), never from
the code under test.  Inputs depend only on the seed; gems reach the
program as text bytes written here, so parsing is part of every op.
"""

import hashlib
import json
import os
import random
import shutil
import tempfile

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# workload: (full rungs, tiny rungs for the benchmark's own tests)
SIZES = {
    "blob_ladder": ((48, 96, 192), (8, 16)),
    "pp_ladder": ((4, 8, 16), (2, 4)),
    "forced_k": ((16, 32, 64), (2, 4)),
    "batch_cache": ((12, 24, 48), (4, 8)),
}
# why each workload exists; BENCHMARK.json repeats it for those it runs
WHY = {
    "blob_ladder": "genus-0 sphere-blob gems of order 48/96/192 through the "
                   "default pipeline: pi1 and the surface-residue test do "
                   "most of the work",
    "pp_ladder": "chain sums #m of projective_plane_like.gem, m = 4/8/16, "
                 "genus m, default pipeline: certification's dipole chain "
                 "does most of the work",
    "forced_k": "chain sums #m of nonzero_forest.gem, m = 16/32/64, plus m "
                "extra stabilised squares (k = 2m): diagram assembly and "
                "verification dominate",
    "batch_cache": "cold then warm cli.batch over 12/24/48 small files with "
                   "known exit codes 0/1/2: per-file parse, hash, cache and "
                   "thread-pool costs dominate",
}
# Inputs per rung; a batch op already spans 12 to 48 seeded files.  The
# cost of a #16 gem varies with the seed, now and then to five times the
# median and 5 MB more memory, so pp_ladder has a larger pool to hold its
# mean time and peak memory steady from seed to seed.
POOL = {"blob_ladder": 32, "pp_ladder": 64, "forced_k": 32, "batch_cache": 1}
# workloads whose op runs on a thread pool (cli.batch)
THREADED = {"batch_cache"}

# the cyclic order forced_k schedules against
FORCED_EPS = (0, 1, 2, 3, 4)
FORCED_FORMATS = ("json", "dot", "svg")
# The apex-free regular genus of nonzero_forest.gem under FORCED_EPS; it
# adds under connected sum, so every forced_k gem has rho_base 0 too.
FORCED_RHO_BASE = 0
# (vertex of copy i - 1, vertex of copy i) welded in the chain sums
WELD = (1, 0)


class Item:
    """One op's input (gem bytes, or batch file paths) and its answer."""

    __slots__ = ("data", "files", "expect")

    def __init__(self, expect, data=None, files=None):
        self.data = data
        self.files = files
        self.expect = expect


class Rung:
    """A pool of same-size inputs and the facts they share."""

    __slots__ = ("label", "order", "genus", "k", "items")

    def __init__(self, label, order, genus, k, items):
        self.label = label
        self.order = order
        self.genus = genus
        self.k = k
        self.items = items

    def provenance(self):
        return {"rung": self.label, "order": self.order,
                "genus": self.genus, "k": self.k, "pool": len(self.items)}


def gem_bytes(g, name=None):
    lines = ["gem n=%d" % g.n]
    if name:
        lines.append("name %s" % name)
    lines.extend("%d %d %d" % e for e in g.edges)
    return ("\n".join(lines) + "\n").encode("ascii")


def read_fixture(name):
    with open(os.path.join(DATA_DIR, name), "rb") as fh:
        return fh.read()


def load_fixture(name):
    from gemtrisect.cli import parse_gem

    return parse_gem(read_fixture(name)).graph


def sphere_blobs(orders, rng):
    """One genus-0 gem per order, grown from the order-2 sphere gem.

    Seeded blob_insert on edges of colours 0-3; each gem is grown on from
    the previous one.
    """
    from gemtrisect.graphs import blob_insert, standard_sphere_gem

    g = standard_sphere_gem(4)
    out = []
    for order in orders:
        while g.nv < order:
            choices = [i for i, (_, _, c) in enumerate(g.edges) if c != 4]
            g = blob_insert(g, rng.choice(choices))
        out.append(g)
    return out


def chain_sum(fixture, m):
    """#m copies of a bipartite fixture in a chain.

    Copy i is welded at its vertex WELD[1] to vertex WELD[0] of copy
    i - 1.  Returns (graph, copy index of each vertex).  The welds are
    fixed because the length of the gamma curves depends on them: with
    uniformly random weld vertices one #12 op took 0.3 s and another
    29 s, which no comparison across seeds survives.
    """
    from gemtrisect.graphs import connected_sum

    a, b = WELD
    g = fixture
    owner = [0] * fixture.nv
    prev = {w: w for w in range(fixture.nv)}   # copy i - 1: fixture id -> id
    for i in range(1, m):
        v1 = prev[a]
        g = connected_sum(g, fixture, v1, b)
        base = g.nv - (fixture.nv - 1)
        prev = {w: base + w - (w > b) for w in range(fixture.nv) if w != b}
        owner = owner[:v1] + owner[v1 + 1:] + [i] * (fixture.nv - 1)
    return g, owner


def shuffled(g, owner, rng):
    """g with seeded vertex ids; returns (graph, copy index of each vertex).

    Renumbering reorders edge ids, and with them every tie-break in
    certification, scheduling and curve assembly.
    """
    from gemtrisect.graphs import build_graph

    perm = list(range(g.nv))
    rng.shuffle(perm)
    new_owner = [0] * g.nv
    for v, c in enumerate(owner):
        new_owner[perm[v]] = c
    return (build_graph(g.n, [(perm[u], perm[v], c) for u, v, c in g.edges]),
            new_owner)


def forest_oracle(g, eps, apex=4):
    """Edge ids of the stabilisation forest, computed from its definition.

    A spanning forest of the apex edges over the {eps0, eps3}-cycles,
    lowest edge id first; independent of trisection.stabilization_set.
    """
    parent = list(range(g.nv))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, c in g.edges:
        if c in (eps[0], eps[3]):
            parent[find(u)] = find(v)
    forest = []
    for eid, (u, v, c) in enumerate(g.edges):
        if c == apex:
            a, b = find(u), find(v)
            if a != b:
                parent[a] = b
                forest.append(eid)
    return forest


# -- inputs ------------------------------------------------------------------

def build_blob_ladder(seed, tiny, root):
    rng = random.Random(seed)
    orders = SIZES["blob_ladder"][tiny]
    pool = [sphere_blobs(orders, rng) for _ in range(POOL["blob_ladder"])]
    return [Rung("order%d" % order, order, 0, 0,
                 [Item({"exit": 0, "genus": 0, "k": 0},
                       data=gem_bytes(gems[i])) for gems in pool])
            for i, order in enumerate(orders)]


def build_pp_ladder(seed, tiny, root):
    rng = random.Random(seed)
    fixture = load_fixture("projective_plane_like.gem")
    rungs = []
    for m in SIZES["pp_ladder"][tiny]:
        g, owner = chain_sum(fixture, m)
        items = [Item({"exit": 0, "genus": m},
                      data=gem_bytes(shuffled(g, owner, rng)[0]))
                 for _ in range(POOL["pp_ladder"])]
        rungs.append(Rung("m%d" % m, g.nv, m, 0, items))
    return rungs


def build_forced_k(seed, tiny, root):
    """#m sums of nonzero_forest.gem plus one seeded extra square per copy.

    An extra square is an apex edge inside one copy and off the forest,
    so k = |forest| + m.
    """
    rng = random.Random(seed)
    fixture = load_fixture("nonzero_forest.gem")
    rungs = []
    for i, m in enumerate(SIZES["forced_k"][tiny]):
        base, base_owner = chain_sum(fixture, m)
        fmt = FORCED_FORMATS[i % len(FORCED_FORMATS)]
        items = []
        for _ in range(POOL["forced_k"]):
            g, owner = shuffled(base, base_owner, rng)
            forest = set(forest_oracle(g, FORCED_EPS))
            spare = [[] for _ in range(m)]
            for eid, (u, v, c) in enumerate(g.edges):
                if c == 4 and eid not in forest and owner[u] == owner[v]:
                    spare[owner[u]].append(eid)
            extra = sorted(rng.choice(edges) for edges in spare)
            k = len(forest) + len(extra)
            items.append(Item({"extra": extra, "k": k,
                               "genus": FORCED_RHO_BASE + k, "format": fmt},
                              data=gem_bytes(g)))
        k = items[0].expect["k"]
        rungs.append(Rung("m%d" % m, base.nv, FORCED_RHO_BASE + k, k, items))
    return rungs


MALFORMED = (
    b"gem n=4\n0 1 0\n0 1 1\n",                        # not regular
    b"gam n=4\n0 1 0\n",                                # bad header
    b"gem n=4\n0 1 x\n",                                # non-integer field
    b"gem n=4\n0 1 0 7\n",                              # four fields
    b"gem n=4\n0 0 0\n",                                # loop
    b"",                                                # empty
    b'{"n": 4, "edges": [[0, 1]]}',                     # short json edge
    b'{"n": 4, "edges": [[0, 1, 0], [0, 2, 0]]}',       # not proper
)


def build_batch_cache(seed, tiny, root):
    """Write the batch files under `root`; rung r runs the first r of them.

    Files are interleaved by kind, so every rung holds the same mix: half
    sphere-blob gems of order 16-48 (exit 0), a quarter copies of
    bounded_s1s2.gem (exit 0) and two_singular_colors.gem (exit 2), a
    quarter malformed files (exit 1).  Every gem file has its own name
    line, so no two files share a cache key and a cold pass never hits.
    """
    rng = random.Random(seed)
    sizes = SIZES["batch_cache"][tiny]
    bounded = read_fixture("bounded_s1s2.gem")
    singular = read_fixture("two_singular_colors.gem")
    files = []
    for i in range(sizes[-1]):
        kind = i % 4
        if kind in (0, 2):
            # orders cycle through 16..48, so each rung does about the
            # same work whatever the seed
            order = 16 + 2 * ((i // 2 * 7) % 17)
            g = sphere_blobs([order], rng)[0]
            data, code = gem_bytes(g, name="blob-%d" % i), 0
        elif kind == 1:
            fixture, code = (bounded, 0) if i % 8 == 1 else (singular, 2)
            data = _renamed(fixture, "copy-%d" % i)
        else:
            data, code = rng.choice(MALFORMED), 1
        path = os.path.join(root, "in-%03d.gem" % i)
        with open(path, "wb") as fh:
            fh.write(data)
        files.append((path, code))
    return [Rung("files%d" % n, None, None, None,
                 [Item({"exits": [c for _, c in files[:n]]},
                       files=[p for p, _ in files[:n]])])
            for n in sizes]


def _renamed(data, name):
    head, _, rest = data.partition(b"\n")
    body = b"\n".join(line for line in rest.split(b"\n")
                      if not line.startswith(b"name "))
    return head + b"\nname " + name.encode("ascii") + b"\n" + body


MAKE_INPUTS = {
    "blob_ladder": build_blob_ladder,
    "pp_ladder": build_pp_ladder,
    "forced_k": build_forced_k,
    "batch_cache": build_batch_cache,
}


def inputs_digest(rungs):
    h = hashlib.sha256()
    for r in rungs:
        h.update(r.label.encode())
        for item in r.items:
            if item.data is not None:
                h.update(item.data)
            for path in item.files or ():
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def gems_in(item):
    """Gem inputs one op finishes; both batch passes count."""
    return 2 * len(item.files) if item.files is not None else 1


# -- ops ---------------------------------------------------------------------
#
# An op returns its raw outputs; `check` compares them with the answer
# outside the timed region.

def op_pipeline(item, ctx):
    from gemtrisect import cli

    return cli.run_pipeline(cli.parse_gem(item.data))


def op_forced(item, ctx):
    from gemtrisect import cli, diagrams, trisection

    g = cli.parse_gem(item.data).graph
    eps = FORCED_EPS
    Q = trisection.build_Q(g, eps)
    forest = trisection.stabilization_set(g, eps)
    ordering = trisection.collapse_schedule(
        Q, set(forest) | set(item.expect["extra"]))
    cert = trisection.certificate(g, eps, ordering)
    diagram = diagrams.assemble_diagram(g, eps, cert)
    return cert, diagram, diagrams.export_diagram(diagram,
                                                  item.expect["format"])


def op_batch(item, ctx):
    """A cold batch on a fresh cache directory, then a warm one."""
    from gemtrisect import cli

    cache = tempfile.mkdtemp(prefix="cache-", dir=ctx["tmp"])
    ctx["cleanup"].append(cache)
    cold = cli.batch(item.files, cache_dir=cache)
    warm = cli.batch(item.files, cache_dir=cache)
    return cold, warm


OPS = {
    "blob_ladder": op_pipeline,
    "pp_ladder": op_pipeline,
    "forced_k": op_forced,
    "batch_cache": op_batch,
}


def cleanup(ctx):
    while ctx["cleanup"]:
        shutil.rmtree(ctx["cleanup"].pop(), ignore_errors=True)


def _canon_record(rec_dict):
    rec = dict(rec_dict)
    rec.pop("timings", None)
    return json.dumps(rec, sort_keys=True, separators=(",", ":")).encode()


def check(workload, label, item, out, offset=0):
    """(digest of the answer, list of mismatches) for one op's output.

    The digest covers every record without its timings and every
    diagram's bytes.  `offset` shifts every expected genus and batch exit
    code, so a test can show that a wrong answer counts as a failure.
    """
    h = hashlib.sha256()
    errors = []
    want = item.expect

    def expect(what, got, wanted):
        if got != wanted:
            errors.append("%s %s: got %r, expected %r"
                          % (label, what, got, wanted))

    if workload in ("blob_ladder", "pp_ladder"):
        rec, dgm = out
        d = rec.as_dict()
        h.update(_canon_record(d))
        h.update(dgm or b"")
        cert = d.get("certificate") or {}
        expect("exit", d["exit_code"], want["exit"])
        expect("genus", cert.get("genus"), want["genus"] + offset)
        if "k" in want:
            expect("k", cert.get("k"), want["k"])
        expect("violations", d["violations"], [])
        expect("diagram verified",
               (d["diagram_ref"] or {}).get("verified"), True)
    elif workload == "forced_k":
        cert, diagram, blob = out
        h.update(json.dumps(cert.as_dict(), sort_keys=True).encode())
        h.update(json.dumps(diagram.record.as_dict(), sort_keys=True,
                            default=str).encode())
        h.update(blob)
        genus = want["genus"] + offset
        expect("record.ok", diagram.record.ok, True)
        expect("k", cert.k, want["k"])
        expect("genus", cert.genus, genus)
        expect("rho_base + k", cert.rho_base + cert.k, genus)
        for name, curves in diagram.systems():
            expect("%s curves" % name, len(curves), genus)
    else:
        cold, warm = out
        expect("rows", (len(cold), len(warm)), (len(item.files),) * 2)
        for i, (c, w) in enumerate(zip(cold, warm)):
            code = want["exits"][i] + offset
            expect("file %d exit" % i, c.exit_code, code)
            expect("file %d warm exit" % i, w.exit_code, code)
            if c.record_bytes is not None:
                h.update(_canon_record(json.loads(c.record_bytes)))
                expect("file %d warm cached" % i, w.cached, True)
                expect("file %d warm record bytes equal" % i,
                       w.record_bytes == c.record_bytes, True)
            expect("file %d warm diagram bytes equal" % i,
                   w.diagram_bytes == c.diagram_bytes, True)
            h.update(c.diagram_bytes or b"")
            h.update(b"%d\n" % c.exit_code)
    return h.hexdigest(), errors
