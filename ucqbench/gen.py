"""Seeded input generators for the ucqc benchmark.

Every generator takes ``random.Random`` instances, so the same seed gives
byte-identical files.  A workload's structures are drawn from a fixed
*base* generator and the run's seed then relabels elements, renames
relations and reorders disjuncts (``relabel``, ``wide_union``): each seed
gets different files describing isomorphic inputs, so every run does the
same amount of work and run-to-run spread measures the program and the
machine, not the luck of the draw.  The program under test only ever sees
the files these functions write.
"""

import bisect


def chung_lu_digraph(rng, n, m, alpha):
    """A power-law digraph on nodes 0..n-1 with m distinct edges.

    Node i has out- and in-weight (i + 1) ** -alpha (a fixed Zipf degree
    sequence, Chung-Lu style); both endpoints of each edge are drawn by
    weight, self-loops and repeated edges are redrawn.
    """
    cum = []
    total = 0.0
    for i in range(n):
        total += (i + 1) ** -alpha
        cum.append(total)

    def draw():
        return bisect.bisect_left(cum, rng.random() * total)

    edges = set()
    while len(edges) < m:
        u, v = draw(), draw()
        if u != v:
            edges.add((u, v))
    return sorted(edges)


def relabel(rng, n):
    """A random permutation of 0..n-1, as a function on tuples."""
    label = list(range(n))
    rng.shuffle(label)
    return lambda t: tuple(label[e] for e in t)


def facts_text(rels, universe=None):
    """Render ``{rel: [tuple, ...]}`` in the .facts syntax.

    ``universe`` (an iterable of ints) is declared explicitly, which is how
    a served database reserves elements that only mutations will use.
    """
    out = []
    if universe is not None:
        out.append("universe { " + ", ".join(str(e) for e in universe) + " }\n")
    for rel in sorted(rels):
        for t in rels[rel]:
            out.append("%s(%s).\n" % (rel, ", ".join(str(e) for e in t)))
    return "".join(out)


# The wide-union template (E19 style).  Each disjunct has the single free
# variable x and its own relation R<k>, so no kept disjunct maps into
# another and the 2^9 - 1 combined queries of the kept ones are pairwise
# inequivalent: a large Lemma 26 support.  The planted disjuncts are
# what the optimizer must remove: a literal duplicate of kept[0] with a
# renamed variable, and two disjuncts subsumed by kept[1] and kept[3]
# (their atoms plus more).  The seed permutes the disjunct order and the
# R<k> names and renames existential variables, none of which changes
# the support size, so every seed asks for the same work.
WIDE_KEPT = [
    ["R0(x,a)"],
    ["R1(a,x)", "E(a,b)"],
    ["R2(x,a)", "E(a,b)", "E(b,x)"],
    ["R3(x,a)", "E(a,b)", "E(b,c)"],
    ["R4(a,x)", "E(a,b)", "E(b,a)"],
    ["R5(x,a)", "R5(a,b)"],
    ["R6(x,a)", "E(x,b)", "E(a,b)"],
    ["R7(a,x)", "E(a,b)", "E(b,c)", "E(c,a)"],
    ["R8(x,a)", "E(a,a)"],
]
WIDE_PLANTED = [
    ["R0(x,z)"],
    ["R1(a,x)", "E(a,b)", "E(b,c)"],
    ["R3(x,a)", "E(a,b)", "E(b,c)", "E(c,x)"],
]
WIDE_RELS = ["R%d" % k for k in range(len(WIDE_KEPT))]


def wide_union(rng):
    """The union text and its relation renaming (apply it to the database
    too, so each disjunct meets the same data under every seed)."""
    ren = dict(zip(WIDE_RELS, rng.sample(WIDE_RELS, len(WIDE_RELS))))
    ren["E"] = "E"
    disjuncts = [list(d) for d in WIDE_KEPT + WIDE_PLANTED]
    rng.shuffle(disjuncts)
    parts = []
    for k, atoms in enumerate(disjuncts):
        rendered = []
        for atom in atoms:
            rel, args = atom.split("(")
            args = [a if a == "x" else "%s%d" % (a, k) for a in args[:-1].split(",")]
            rendered.append("%s(%s)" % (ren[rel], ", ".join(args)))
        parts.append(", ".join(rendered))
    return "(x) :- " + " ;\n  ".join(parts) + "\n", ren


def random_relations(rng, rels, n, per_rel):
    """``per_rel`` distinct random pairs over 0..n-1 for each relation."""
    out = {}
    for rel in rels:
        pairs = set()
        while len(pairs) < per_rel:
            pairs.add((rng.randrange(n), rng.randrange(n)))
        out[rel] = sorted(pairs)
    return out


def mutation_cycle(rng, edges, n, k):
    """A closed cycle of 2k update rounds over the edge set ``edges``.

    Returns ``[(insert_edge, delete_edge), ...]``.  Rounds 0..k-1 insert k
    absent edges P and delete k present edges Q; rounds k..2k-1 insert Q
    back and delete P again.  So every insert adds an absent tuple, every
    delete removes a present one, |D| is the same after every round, and
    after 2k rounds the database is back where it started: replaying the
    cycle repeats exactly the same updates.  All endpoints lie in 0..n-1,
    the declared universe.
    """
    present = set(edges)
    p = set()
    while len(p) < k:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and (u, v) not in present:
            p.add((u, v))
    p = sorted(p)
    q = rng.sample(sorted(present), k)
    return list(zip(p, q)) + list(zip(q, p))
