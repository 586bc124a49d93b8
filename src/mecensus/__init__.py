"""Census of Markov equivalence classes of acyclic digraphs.

Counts equivalence classes per vertex count by generating one skeleton
per isomorphism class, enumerating each skeleton's acyclic orientations,
and keying orientations by their immorality pattern.

The package imports nothing itself: import each name from the module
that defines it (graphs, orderly, markov, census, catalog, oracles,
reference, cli).
"""
