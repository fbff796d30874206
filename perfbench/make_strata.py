"""Rebuild ``strata.json``: the corpus workload's pool of generator seeds,
grouped by cost.

    python3 perfbench/make_strata.py

Model costs are heavy-tailed: most models take a few milliseconds and a
few (capped explorations, spawn chains) take hundreds. A corpus drawn
freely from the generator would swing with how many slow models a seed
happens to draw. So the pool's models are timed once and sorted by cost.
The slowest ``TAIL`` models are each a stratum of their own, so every
corpus holds them; they also set the corpus's peak memory. The others are
cut into strata of ``PER_STRATUM``. A benchmark seed draws one model per
stratum: each seed gets different models with the same cost profile. The
file is data of the benchmark: rebuilding it changes the corpus of every
seed, so re-pin ``expected.json`` afterwards.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import Counter
from time import perf_counter

from run import HERE, import_program
from corpus import generate
from workloads import CorpusGenerated

POOL = 1000
PER_STRATUM = 5
TAIL = 25  # the slowest models are strata of their own: every corpus has them
REPEATS = 3


def main() -> int:
    workload = CorpusGenerated(import_program())
    costs = []
    for seed in range(POOL):
        model = generate(seed)
        samples = []
        for _ in range(REPEATS):
            start = perf_counter()
            workload.execute(model, Counter())
            samples.append(perf_counter() - start)
        costs.append((statistics.median(samples), seed))
    costs.sort()
    seeds = [seed for _cost, seed in costs]
    body, tail = seeds[:-TAIL], seeds[-TAIL:]
    strata = [body[i:i + PER_STRATUM] for i in range(0, len(body), PER_STRATUM)]
    strata += [[seed] for seed in tail]
    doc = {"pool": POOL, "per_stratum": PER_STRATUM, "tail": TAIL,
           "total_ms": round(1000 * sum(c for c, _ in costs), 1), "strata": strata}
    (HERE / "strata.json").write_text(json.dumps(doc) + "\n", encoding="utf-8")
    print(f"{len(strata)} strata from {POOL} models, {doc['total_ms']} ms in total",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
