"""Tests for rank-k MSO types and their composition laws (Section 3)."""

from hypothesis import given, settings, strategies as st

from repro.mso import equivalent, evaluate, formulas, mso_type
from repro.structures import Graph, Structure, Signature, graph_to_structure

from ..conftest import small_graphs

SIG = Signature.of(e=2)


def g2s(g):
    return graph_to_structure(g)


class TestBasicInvariance:
    def test_isomorphic_structures_share_types(self):
        a = g2s(Graph(vertices=[0, 1, 2], edges=[(0, 1)]))
        b = g2s(Graph(vertices=["x", "y", "z"], edges=[("y", "z")]))
        for k in (0, 1):
            assert mso_type(a, (0, 1), k) == mso_type(b, ("y", "z"), k)

    def test_point_order_matters(self):
        a = g2s(Graph(vertices=[0, 1, 2], edges=[(0, 1)]))
        assert mso_type(a, (0, 2), 0) != mso_type(a, (0, 1), 0)

    def test_rank_zero_sees_only_points(self):
        a = g2s(Graph(vertices=[0, 1, 2], edges=[(1, 2)]))
        b = g2s(Graph(vertices=[0, 1, 2]))
        assert mso_type(a, (0,), 0) == mso_type(b, (0,), 0)
        # rank 1 still cannot see an edge between two non-points (a single
        # point move reveals at most pairs involving the point) ...
        assert mso_type(a, (0,), 1) == mso_type(b, (0,), 1)
        # ... but two point moves (rank 2) expose it.
        assert mso_type(a, (0,), 2) != mso_type(b, (0,), 2)

    def test_path_lengths_distinguished_at_depth_two(self):
        p2, p3 = g2s(Graph.path(2)), g2s(Graph.path(3))
        assert equivalent(p2, (), p3, (), 1)
        assert not equivalent(p2, (), p3, (), 2)


class TestEquivalenceSemantics:
    @given(small_graphs(max_vertices=4), small_graphs(max_vertices=4))
    @settings(max_examples=15)
    def test_k_equivalence_preserves_depth_k_formulas(self, g1, g2):
        """The defining property of ≡_k, checked on depth-1 sentences."""
        s1, s2 = g2s(g1), g2s(g2)
        if not equivalent(s1, (), s2, (), 1):
            return
        import repro.mso.syntax as syn

        sentences = [
            syn.ExistsInd("x", syn.RelAtom("e", ("x", "x"))),
            syn.ForallInd("x", syn.RelAtom("e", ("x", "x"))),
            syn.ExistsInd("x", syn.Eq("x", "x")),
        ]
        for sentence in sentences:
            assert evaluate(s1, sentence) == evaluate(s2, sentence)

    @given(small_graphs(max_vertices=4))
    @settings(max_examples=10)
    def test_reflexive(self, g):
        s = g2s(g)
        assert equivalent(s, (), s, (), 1)

    def test_signature_mismatch_not_equivalent(self):
        a = Structure(SIG, [0])
        b = Structure(Signature.of(p=1), [0])
        assert not equivalent(a, (), b, (), 0)

    def test_point_count_mismatch_not_equivalent(self):
        a = g2s(Graph.path(2))
        assert not equivalent(a, (0,), a, (0, 1), 1)


class TestCompositionLemmas:
    """Lemma 3.5-style composition on concrete small structures."""

    def test_union_respects_types(self):
        """Glueing equal-typed parts onto the same bag yields equal types
        (the essence of Lemma 3.5(3))."""
        # two pointed paths of equal type
        a = g2s(Graph(vertices=[0, 1, 2], edges=[(0, 1), (1, 2)]))
        b = g2s(Graph(vertices=[0, 1, 9], edges=[(0, 1), (1, 9)]))
        k = 1
        assert mso_type(a, (0, 1), k) == mso_type(b, (0, 1), k)
        # extend both by the same extra structure on the bag
        extra = Graph(vertices=[0, 1, 5], edges=[(0, 5)])
        au = a.disjoint_union(g2s(extra))
        bu = b.disjoint_union(g2s(extra))
        assert mso_type(au, (0, 1), k) == mso_type(bu, (0, 1), k)

    def test_renaming_preserves_types(self):
        a = g2s(Graph(vertices=[0, 1, 2], edges=[(0, 1), (1, 2)]))
        renamed = a.renamed({0: "u", 1: "v", 2: "w"})
        assert mso_type(a, (0, 1), 1) == mso_type(renamed, ("u", "v"), 1)


class TestLastRoundSetMoveOptimization:
    def test_depth_one_set_moves_match_full_enumeration(self):
        """The optimized set-successor computation at depth 1 must agree
        with brute-force enumeration over all subsets of the domain."""
        from itertools import chain, combinations

        from repro.mso.types import TypeContext

        g = Graph(vertices=[0, 1, 2, 3], edges=[(0, 1), (2, 3)])
        s = g2s(g)
        pts = (0, 1)
        domain = sorted(s.domain, key=repr)
        context = TypeContext(s)
        full = frozenset(
            context.type_of(pts, 0, (frozenset(q),))
            for q in chain.from_iterable(
                combinations(domain, r) for r in range(len(domain) + 1)
            )
        )
        computed = mso_type(s, pts, 1, context=context)
        assert computed[3] == full  # the set-successor component

    def test_depth_one_point_moves_match_full_retyping(self):
        """The prefix-extension fast path for point moves must agree
        with retyping the extended point tuple from scratch."""
        from repro.mso.types import TypeContext

        g = Graph(vertices=[0, 1, 2, 3], edges=[(0, 1), (1, 2), (2, 3)])
        s = g2s(g)
        pts = (0, 2)
        context = TypeContext(s)
        computed = mso_type(s, pts, 1, context=context)
        full = frozenset(
            TypeContext(s).type_of(pts + (c,), 0)
            for c in sorted(s.domain, key=repr)
        )
        assert computed[2] == full  # the point-successor component


def _oracle_submasks(mask):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


class _OracleTypeContext:
    """The ``TypeContext`` that evaluated every rank-0 type from
    scratch (one full ``_atomic`` per set successor), kept as the
    oracle for parent-derived typing.  Bit for bit the same packed
    layout: blocks of ``j`` eq-tags, relation tags and in-tags."""

    def __init__(self, structure):
        from itertools import product

        self._product = product
        self.domain = sorted(structure.domain, key=repr)
        self._index = {element: i for i, element in enumerate(self.domain)}
        self._full_mask = (1 << len(self.domain)) - 1
        self._rels = tuple(
            (name, structure.signature.arity(name), structure.relation(name))
            for name in structure.signature
        )
        self._cache = {}
        self._blocks = {}

    def mask_of(self, elements):
        mask = 0
        for element in elements:
            mask |= 1 << self._index[element]
        return mask

    def _block(self, j, nmasks):
        found = self._blocks.get((j, nmasks))
        if found is None:
            rels = []
            for name, arity, rel in self._rels:
                if arity == 0:
                    if j == 0:
                        rels.append((rel, ()))
                    continue
                for indices in self._product(range(j + 1), repeat=arity):
                    if max(indices) == j:
                        rels.append((rel, indices))
            found = (j, tuple(rels), j + len(rels) + nmasks)
            self._blocks[(j, nmasks)] = found
        return found

    def _block_bits(self, pts, block, masks):
        j, rels, _width = block
        pj = pts[j]
        bits = 0
        b = 1
        for i in range(j):
            if pts[i] == pj:
                bits |= b
            b <<= 1
        for rel, indices in rels:
            if rel and tuple(pts[i] for i in indices) in rel:
                bits |= b
            b <<= 1
        if masks:
            pbit = 1 << self._index[pj]
            for mask in masks:
                if mask & pbit:
                    bits |= b
                b <<= 1
        return bits

    def _atomic(self, pts, masks):
        nmasks = len(masks)
        bits = 0
        shift = 0
        for j in range(len(pts)):
            block = self._block(j, nmasks)
            bits |= self._block_bits(pts, block, masks) << shift
            shift += block[2]
        return bits

    def type_of(self, points, depth, sets=()):
        masks = tuple(self.mask_of(s) for s in sets)
        return self._rec(tuple(points), masks, depth)

    def _rec(self, pts, masks, depth):
        key = (pts, masks, depth)
        found = self._cache.get(key)
        if found is not None:
            return found
        base = self._atomic(pts, masks)
        if depth == 0:
            result = ("t0", base)
        elif depth == 1:
            n = len(pts)
            block = self._block(n, len(masks))
            shift = sum(self._block(j, len(masks))[2] for j in range(n))
            point_successors = frozenset(
                (
                    "t0",
                    base
                    | (self._block_bits(pts + (c,), block, masks) << shift),
                )
                for c in self.domain
            )
            set_successors = frozenset(
                ("t0", self._atomic(pts, masks + (q,)))
                for q in _oracle_submasks(self.mask_of(pts))
            )
            result = ("t", base, point_successors, set_successors)
        else:
            point_successors = frozenset(
                self._rec(pts + (c,), masks, depth - 1) for c in self.domain
            )
            set_successors = frozenset(
                self._rec(pts, masks + (q,), depth - 1)
                for q in range(self._full_mask + 1)
            )
            result = ("t", base, point_successors, set_successors)
        self._cache[key] = result
        return result


@st.composite
def _typing_instances(draw, max_depth=2):
    """A structure over a random signature mixing nullary, unary,
    binary and ternary relations, a point tuple (repeats allowed),
    0-2 sets and a depth in 0..max_depth."""
    arities = draw(
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4)
    )
    signature = Signature({f"r{i}": a for i, a in enumerate(arities)})
    n = draw(st.integers(min_value=1, max_value=4))
    domain = list(range(n))
    relations = {}
    for i, arity in enumerate(arities):
        tuples = [
            tuple(draw(st.sampled_from(domain)) for _ in range(arity))
            for _ in range(draw(st.integers(min_value=0, max_value=5)))
        ]
        relations[f"r{i}"] = tuples
    structure = Structure(signature, domain, relations)
    points = tuple(
        draw(st.lists(st.sampled_from(domain), min_size=0, max_size=3))
    )
    sets = tuple(
        frozenset(draw(st.lists(st.sampled_from(domain), max_size=n)))
        for _ in range(draw(st.integers(min_value=0, max_value=2)))
    )
    depth = draw(st.integers(min_value=0, max_value=max_depth))
    return structure, points, sets, depth


def _derived_set_bits(context, pts, masks, base, q):
    """The packed rank-0 type of ``(pts, masks + (q,))`` as
    ``TypeContext`` derives it from ``base``."""
    from repro.mso.types import _with_set

    spread, in_bits = context._set_extension(pts, len(masks), base)
    return _with_set(spread, in_bits, q)


class TestParentDerivedTyping:
    """``TypeContext`` derives every rank-0 type below the top from its
    parent's bits; the from-scratch oracle pins it bit for bit."""

    @settings(max_examples=150)
    @given(_typing_instances())
    def test_types_match_the_from_scratch_oracle(self, instance):
        from repro.mso.types import TypeContext

        structure, points, sets, depth = instance
        want = _OracleTypeContext(structure).type_of(points, depth, sets)
        assert TypeContext(structure).type_of(points, depth, sets) == want
        assert mso_type(structure, points, depth, sets) == want

    @settings(max_examples=40)
    @given(_typing_instances())
    def test_shared_context_matches_the_oracle_across_queries(
        self, instance
    ):
        """One context answers many queries (the compiler's permutation
        steps): memo hits must equal fresh oracle computations."""
        from itertools import permutations

        from repro.mso.types import TypeContext

        structure, points, sets, _depth = instance
        context = TypeContext(structure)
        oracle = _OracleTypeContext(structure)
        for order in permutations(points):
            for depth in (1, 0, 2):
                assert context.type_of(order, depth, sets) == oracle.type_of(
                    order, depth, sets
                )

    @settings(max_examples=150)
    @given(_typing_instances())
    def test_derived_set_successor_bits_match_full_retyping(self, instance):
        from repro.mso.types import TypeContext

        structure, points, sets, _depth = instance
        context = TypeContext(structure)
        oracle = _OracleTypeContext(structure)
        masks = tuple(context.mask_of(s) for s in sets)
        base = context._atomic(points, masks)
        assert base == oracle._atomic(points, masks)
        for q in range(context._full_mask + 1):
            assert _derived_set_bits(
                context, points, masks, base, q
            ) == oracle._atomic(points, masks + (q,)), q

    def test_derived_set_successor_bits_on_a_mixed_signature(self):
        """Repeated points, a nullary fact, unary/binary/ternary tags
        and two prior sets: every q's derived bits equal ``_atomic``
        of the extended mask tuple."""
        from repro.mso.types import TypeContext

        signature = Signature.of(z=0, u=1, e=2, t=3)
        structure = Structure(
            signature,
            range(4),
            {
                "z": [()],
                "u": [(1,), (3,)],
                "e": [(0, 1), (1, 1), (2, 0)],
                "t": [(0, 1, 0), (1, 0, 2)],
            },
        )
        context = TypeContext(structure)
        oracle = _OracleTypeContext(structure)
        points = (0, 1, 0)
        masks = (context.mask_of({0, 2}), context.mask_of({1}))
        base = context._atomic(points, masks)
        for q in range(context._full_mask + 1):
            assert _derived_set_bits(
                context, points, masks, base, q
            ) == oracle._atomic(points, masks + (q,))
