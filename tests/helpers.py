"""Oracles and strategies shared by the tests; the package calls none of
them."""

from hypothesis import strategies as st

from bocskit.quiver import Quiver, Relation, RelationSet, build_algebra


def all_classes(table, degrees):
    """Every Ext class of an AInfTable with degree in degrees, ordered by
    (degree, source, target) and then by index."""
    out = []
    for (k, i, j), lst in sorted(table.classes.items()):
        if k in degrees:
            out.extend(lst)
    return out


@st.composite
def monomial_algebras(draw):
    """A quiver algebra on at most two vertices and two arrows, with every
    path of length 2 or 3 set to zero, and when 3 some paths of length 2."""
    n = draw(st.integers(1, 2))
    pairs = [(s, t) for s in range(1, n + 1) for t in range(1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2))
    q = Quiver(n, [(f"a{k}", s, t) for k, (s, t) in enumerate(chosen)])
    length = draw(st.integers(2, 3))
    paths = [(s, (name,), t) for name, s, t in q.arrows]
    rels = []
    for ell in range(2, length + 1):
        paths = [(s, p + (name,), t2) for s, p, t in paths
                 for name, s2, t2 in q.arrows if s2 == t]
        rels += [Relation(q, [(1, s, p)]) for s, p, t in paths
                 if ell == length or draw(st.booleans())]
    return build_algebra(q, RelationSet(q, rels))
