"""The constructive (1^2,2^4) pipeline, one stage at a time.

On a random cubic graph: grow a disjoint matching pair by local search until
it is switch-stable, build the conflict graph H over the leftover edges,
4-color H exactly, and assemble the six classes.  The final coloring is
checked by the verifier, which knows nothing about how it was produced.
"""

from edgepack import (SEQ_12_24, build_conflict_graph, classify_components,
                      color_exact, assemble, local_search, random_cubic,
                      solve_pipeline, union_objective_key, verify)

N, SEED = 80, 7
g = random_cubic(N, SEED)
print(f"random cubic graph: n={g.n}, m={g.m} (seed {SEED})")

result = local_search(g, SEED)
pair = result.pair
neg_union, h_edges, p4s, triangles, paired = union_objective_key(g, pair.union_mask())
print(f"\nlocal search: stable={result.stable} after {result.evaluations} "
      f"scan ticks")
print(f"objective: union={-neg_union}, H-edges={h_edges}, P4s={p4s}, "
      f"triangles={triangles}, paired-P3s={paired}")

kinds = {}
for comp in classify_components(g, pair):
    kinds[comp.kind] = kinds.get(comp.kind, 0) + 1
print(f"leftover components: {kinds}  "
      "(switch-stable pairs leave only the four basic shapes)")

h = build_conflict_graph(g, pair)
degs = sorted(h.degree(i) for i in range(h.n))
print(f"\nconflict graph H: {h.n} vertices, {h.edge_count} edges, "
      f"max degree {degs[-1] if degs else 0}")

col = color_exact(h, 4)
print(f"exact 4-coloring of H: {col.status} after {col.nodes} nodes")

coloring = assemble(pair, col.colors)
sizes = [len(c) for c in coloring.classes(6)]
print(f"assembled class sizes: {sizes} (two matchings + four induced matchings)")
print(f"verifier violations: {verify(g, SEQ_12_24, coloring)}")

# the one-call version, with retry and exact fallback built in
res = solve_pipeline(g, SEED)
print(f"\nsolve_pipeline: status={res.status}, method={res.method}")
