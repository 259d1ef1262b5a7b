"""Seeded inputs: the program sees only what these functions generate.

The seed renames vertices, picks instance sizes inside fixed ranges and
drives the random families, so every seed gives distinct instances (and
distinct store fingerprints) while the amount of work per run stays close
to constant — the run-to-run spread then measures the program, not the
draw.
"""

from __future__ import annotations

import random

from repro.core.hypergraph import Hypergraph


def cycle_edges(n: int, tag: str) -> list[list[str]]:
    return [[f"{tag}x{j}", f"{tag}x{(j + 1) % n}"] for j in range(n)]


def grid_edges(rows: int, cols: int, tag: str) -> list[list[str]]:
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append([f"{tag}g{r}_{c}", f"{tag}g{r}_{c + 1}"])
            if r + 1 < rows:
                edges.append([f"{tag}g{r}_{c}", f"{tag}g{r + 1}_{c}"])
    return edges


def clique_edges(n: int, tag: str) -> list[list[str]]:
    return [[f"{tag}v{a}", f"{tag}v{b}"] for a in range(n) for b in range(a + 1, n)]


def random_edges(rng: random.Random, tag: str, vertices: int, edges: int) -> list[list[str]]:
    """A connected random hypergraph: a spanning path plus random 2-3-ary edges."""
    names = [f"{tag}u{i}" for i in range(vertices)]
    out = [[names[i], names[i + 1]] for i in range(vertices - 1)]
    while len(out) < edges:
        out.append(rng.sample(names, rng.choice((2, 3))))
    return out


def hypergraph(edges: list[list[str]], name: str) -> Hypergraph:
    return Hypergraph({f"e{i}": vs for i, vs in enumerate(edges)}, name=name)


def small_instances(seed: int, count: int, prefix: str) -> list[Hypergraph]:
    """``count`` distinct small instances (hw 1-3), a few ms of kernel each.

    A fixed rotation of shapes keeps the mix identical for every seed; the
    seed picks sizes inside each shape's range and names every vertex.
    """
    rng = random.Random(seed)
    out = []
    for i in range(count):
        tag = f"{prefix}{seed}n{i}"
        shape = i % 5
        if shape == 0:
            edges = cycle_edges(rng.randint(4, 9), tag)
        elif shape == 1:
            edges = grid_edges(rng.randint(2, 3), rng.randint(3, 4), tag)
        elif shape == 2:
            edges = random_edges(rng, tag, rng.randint(6, 8), rng.randint(7, 9))
        elif shape == 3:
            edges = clique_edges(rng.randint(4, 5), tag)
        else:
            # a tree of triples: acyclic, hw 1
            names = [f"{tag}t{j}" for j in range(rng.randint(6, 10))]
            edges = [[names[j], names[(j - 1) // 2], names[0]] for j in range(1, len(names))]
        out.append(hypergraph(edges, f"{tag}"))
    return out


def study_manifest(seed: int) -> dict:
    """The ``study`` corpus: cycle, grid, clique, sql, cq and csp families.

    Sized so every check ends far inside its 30 s budget and the hw, ghw
    (portfolio) and fhw (fracimprove) phases all do work.  The inline ``cq``
    section carries most of the work as fixed shapes under seed-dependent
    variable names; the generator families add seed-driven variety.
    """
    rng = random.Random(seed)
    shapes = []
    for copy in range(3):
        tag = f"S{seed}c{copy}"  # datalog variables start upper-case
        shapes += [
            cycle_edges(rng.randint(6, 12), f"{tag}a"),
            cycle_edges(rng.randint(6, 12), f"{tag}b"),
            grid_edges(3, 3, f"{tag}c"),
            grid_edges(3, 4, f"{tag}d"),
            grid_edges(2, 5, f"{tag}e"),
            clique_edges(5, f"{tag}f"),
            clique_edges(6, f"{tag}g"),
        ]
    queries = [
        "ans() :- " + ", ".join(
            f"r{j}({','.join(vs)})" for j, vs in enumerate(edges)
        ) + "."
        for edges in shapes
    ]
    return {
        "name": f"perfbench-study-{seed}",
        "seed": seed,
        "deterministic": True,
        "sections": [
            {"family": "cq", "count": 0, "params": {"queries": queries}},
            {"family": "cycle", "count": 4, "seed": seed, "params": {"size": [6, 10]}},
            {"family": "grid", "count": 4, "seed": seed + 1, "params": {"size": [2, 3]}},
            {"family": "clique", "count": 4, "seed": seed + 2, "params": {"size": [4, 5]}},
            {"family": "sql", "count": 8, "seed": seed + 3},
            {
                "family": "csp", "count": 6, "seed": seed + 4,
                "params": {"variables": 8, "constraints": 10},
            },
        ],
        "protocol": {
            "timeout": 30.0,
            "frac_timeout": 30.0,
            "max_k": 6,
            "ghw_ks": [2, 3, 4, 5, 6],
            "hw_values": [2, 3, 4, 5, 6],
        },
    }
