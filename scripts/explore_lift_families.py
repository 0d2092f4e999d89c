#!/usr/bin/env python3
"""Explore how the 2-cocycle table moves under random lift families.

For a handful of random compact-torus perturbations of the lifts of s, z
and sz (all that the printed values read), print mu(s, z) and mu(z, s) and
verify that the commutator pairing beta(s, z) never budges from -1.  A
quick way to see the cohomology class staying put while the cocycle
itself dances.
"""

import argparse
import random

from sl8hecke.cocycle import CocycleTable, sz_perturbed_table
from sl8hecke.groupmodel import STABILIZER
from sl8hecke.hecke import HeckeContext
from sl8hecke.residue import make_field
from sl8hecke.tower import Tower
from sl8hecke.weyl import W_S, W_Z


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--q", type=int, default=5)
    parser.add_argument("--families", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    ctx = HeckeContext(Tower(make_field(args.q), 40), STABILIZER)
    rng = random.Random(args.seed)

    tables = [("canonical", CocycleTable(ctx))]
    tables += [(f"family {k}", sz_perturbed_table(ctx, rng)) for k in range(args.families)]

    for name, table in tables:
        values = " ".join(f"mu({u},{v})={table.mu(u, v)!r:4}" for u, v in [(W_S, W_Z), (W_Z, W_S)])
        print(f"{name:>10}: {values}   beta(s,z) = {table.beta(W_S, W_Z)!r}")


if __name__ == "__main__":
    main()
