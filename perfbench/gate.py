"""Correctness gate for one repetition of a workload.

At the default seed the four output files must match the SHA-256 digests
pinned in digests.json. At any seed each trial must pass structural checks:
queried indices distinct and inside that trial's pool, the stated number of
queries in each round and in the whole repetition, and finite RMSE in every
round.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from alregress import ExperimentReport, make_split, round_half_up

DEFAULT_SEED = 0
OUTPUT_FILES = ("curves.csv", "ranking.csv", "trials.csv", "trace.csv")
DIGESTS_PATH = Path(__file__).with_name("digests.json")


def file_digests(out_dir: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in OUTPUT_FILES
    }


def pinned_digests(workload_name: str) -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))[workload_name]


def digest_mismatches(out_dir: Path, pinned: dict[str, str]) -> list[str]:
    """Names of output files whose bytes differ from the pinned digests."""
    got = file_digests(out_dir)
    return [name for name in OUTPUT_FILES if got[name] != pinned[name]]


def trial_failures(rep: ExperimentReport, workload) -> list[str]:
    """One message per trial that fails the structural checks; a trial the
    report lacks counts as failed."""
    failures = []
    for strat in workload.strategies:
        results = rep.trials.get(strat.kind, [])
        for result in results:
            pool = set(make_split(workload.n, result.seed).unlabeled_pool.tolist())
            queried = result.queried_indices
            if strat.kind == "ours_batch":
                k = strat.batch_k or round_half_up(0.2 * len(pool))
                expected = [k] + [0] * (workload.rounds - 1)
            else:
                expected = [math.ceil(0.02 * len(pool) - 1e-9)] * workload.rounds
            got = [result.query_rounds.count(r) for r in range(1, workload.rounds + 1)]
            reasons = []
            if len(set(queried)) != len(queried):
                reasons.append("repeated query")
            if not pool.issuperset(queried):
                reasons.append("query outside the pool")
            if got != expected or len(queried) != sum(expected):
                reasons.append(f"queries per round {got} != {expected}")
            curve = result.rmse_per_round
            if len(curve) != workload.rounds + 1 or not all(map(math.isfinite, curve)):
                reasons.append("RMSE curve not finite or of the wrong length")
            if reasons:
                failures.append(f"{strat.kind} seed {result.seed}: {'; '.join(reasons)}")
        failures += [f"{strat.kind}: trial missing"] * (workload.trials - len(results))
    total = sum(len(r.queried_indices) for rs in rep.trials.values() for r in rs)
    if total != workload.queries:
        failures.append(f"{total} queries in the repetition, stated {workload.queries}")
    return failures
