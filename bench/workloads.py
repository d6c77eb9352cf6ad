"""Job lists of the benchmark workloads.

Each job is one ``orbitcone`` command line (without ``--seed`` and
``--out``) plus the exit codes it may return and the name of the report
check that judges its output.  Job seeds come from the workload seed
(all but two fixed-seed saturation searches, see ``SATURATION_EARLY``),
so the same workload seed always gives the same jobs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("golden", "induction", "blocks")

# Rank-one wave front catalog: label -> expected named cone.  Kept here,
# not read from the package, so a change to the catalog cannot change
# what the benchmark asks for.
GOLDEN = (
    ("sigma_disc:3:+", "Nplus"),
    ("sigma_disc:3:-", "Nminus"),
    ("sigma_hyp:1:+-", "N"),
    ("sigma_hyp:0:+", "N"),
    ("sigma_limit:+", "Nplus"),
    ("sigma_limit:-", "Nminus"),
    ("L2_GK", "HypClosure"),
    ("L2_GA", "Full"),
    ("sum_disc:+", "EllPlusClosure"),
    ("sum_disc:-", "EllMinusClosure"),
)

INDUCE_SMALL = (
    "so(3,1)|blocks[(2,1),(1,0)]",
    "so(2,2)|blocks[(1,1),(1,1)]",
    "su(2,1)|so(2,1)",
)
# saturation searches that use the whole budget and answer "unknown"
SATURATION_FULL = (
    "so(2,2)|blocks[(2,0),(0,2)]",
    "so(4,1)|blocks[(3,0),(1,1)]",
    "so(6,2)|blocks[(4,0),(2,2)]",
)
# searches that stop at the first witness of every Cartan class (verdict
# "true").  Their number of draws depends on the seed, from 256 to the
# whole budget, so they run at a fixed seed: with the workload seed they
# would make the length of a pass vary from seed to seed.
SATURATION_EARLY = (
    "so(4,4)|blocks[(2,1),(1,2),(1,1)]",
    "so(6,2)|blocks[(5,0),(1,1),(0,1)]",
)
EARLY_SEED = 0

MAX_BLOCKS_DIM = 8


@dataclass(frozen=True)
class Job:
    argv: tuple  # CLI arguments, without --seed and --out
    seed: int
    check: str  # name of the report check in checks.CHECKS
    expect: dict  # what the check needs beyond the report
    exit_codes: tuple = (0,)

    def command(self, out_dir) -> list:
        return [*self.argv, "--seed", str(self.seed), "--out", str(out_dir)]


def job_seeds(seed: int, count: int) -> list[int]:
    """Per-job ``--seed`` values drawn from the workload seed."""
    rng = random.Random(seed)
    return [rng.randrange(1_000_000) for _ in range(count)]


def block_compositions(p: int, q: int) -> list[tuple]:
    """Multisets of blocks (a, b), a + b >= 1, summing to (p, q).

    Blocks are listed largest first, as in ``blocks[(2,1),(1,0)]``.
    """
    out = set()

    def grow(p_left, q_left, prefix, cap):
        if p_left == 0 and q_left == 0:
            out.add(prefix)
            return
        for a in range(p_left + 1):
            for b in range(q_left + 1):
                if a + b and (a, b) <= cap:
                    grow(p_left - a, q_left - b, prefix + ((a, b),), (a, b))

    grow(p, q, (), (p, q))
    return sorted(out)


def blocks_pairs() -> list[tuple]:
    """(p, q, blocks) for every block composition with p >= q and
    p + q <= 8, minus those whose blocks are all trivial (a + b < 2)."""
    pairs = []
    for n in range(2, MAX_BLOCKS_DIM + 1):
        for q in range(n // 2 + 1):
            p = n - q
            for blocks in block_compositions(p, q):
                if any(a + b >= 2 for a, b in blocks):
                    pairs.append((p, q, blocks))
    return pairs


def blocks_spec(p: int, q: int, blocks) -> str:
    return f"so({p},{q})|blocks[{','.join(f'({a},{b})' for a, b in blocks)}]"


def _golden(seed: int) -> list[Job]:
    seeds = job_seeds(seed, len(GOLDEN))
    return [
        Job(("wavefront", "--rep", label, "--samples", "6000"), s, "golden",
            {"expected": expected})
        for (label, expected), s in zip(GOLDEN, seeds)
    ]


def _induction(seed: int) -> list[Job]:
    specs = [
        (("induce", "--pair", pair, "--sub-cone", "Zero", "--samples", "4000"),
         "induce", {}, (0,))
        for pair in INDUCE_SMALL
    ]
    specs += [
        (("induce", "--pair", "sl2R|a", "--sub-cone", "Zero",
          "--samples", "100000"), "induce_split_line", {}, (0,)),
        (("induce", "--pair", "sl2R|so(2)", "--sub-cone", "Zero",
          "--samples", "100000"), "induce_compact_line", {}, (0,)),
        (("restrict", "--pair", "su(2,1)|so(2,1)", "--cone", "quaternionic",
          "--samples", "40000"), "restrict_quaternionic", {}, (0,)),
    ]
    # saturation "unknown" (exit 3) is an expected answer, not a failure
    specs += [
        (("saturation", "--pair", pair, "--samples", "2000"), "saturation",
         {}, (0, 3))
        for pair in SATURATION_FULL + SATURATION_EARLY
    ]
    seeds = job_seeds(seed, len(specs) - len(SATURATION_EARLY))
    seeds += [EARLY_SEED] * len(SATURATION_EARLY)
    return [Job(argv, s, check, expect, codes)
            for (argv, check, expect, codes), s in zip(specs, seeds)]


def _blocks(seed: int) -> list[Job]:
    # the tempered test draws nothing at random: the seed only reaches the
    # config section of each report
    pairs = blocks_pairs()
    seeds = job_seeds(seed, len(pairs))
    return [
        Job(("tempered", "--pair", blocks_spec(p, q, blocks)), s, "blocks",
            {"p": p, "q": q, "blocks": blocks})
        for (p, q, blocks), s in zip(pairs, seeds)
    ]


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The workload's jobs, in the order they run."""
    return {"golden": _golden, "induction": _induction, "blocks": _blocks}[workload](seed)


def algebras_for(workload: str) -> list[str]:
    """Ambient algebras of the workload, built during set-up."""
    if workload == "golden":
        return ["sl2R"]
    if workload == "induction":
        return sorted({"sl2R", "su(2,1)"} | {
            pair.split("|")[0]
            for pair in INDUCE_SMALL + SATURATION_FULL + SATURATION_EARLY
        })
    return sorted({f"so({p},{q})" for p, q, _ in blocks_pairs()})
