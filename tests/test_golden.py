"""Byte-identity of answers and trace records across changes to the fast paths.

A speed change to the walk kernel or the closed forms must leave every tau
tower, every witness and every jump record exactly as it was.  The digest
below was recorded before the Pascal rows of the run walk and the full-block
path of the walk kernel existed; a change that moves it changes what the
program prints.  GOLDEN_LARGE covers fewer cores at n = 11 and 12, where the
budget walk solves its blocks through integer roots of more than 1000 bits; it
was recorded before the budget rule confirmed its solves on the lower row.
"""

import hashlib
import json
import random

from gotzmann.monomial import Monomial
from gotzmann.threshold import is_gotzmann, report_to_dict, tau, witness_to_dict

GOLDEN = (7771, "8fe0142539d6d71d5a70d552ba44b70d5d57f2966fbeac500fe48d405c3e2a6a")  # (records, sha256)
GOLDEN_LARGE = (2247, "d2ec12565885a22be0505d953ba995f7671bae32049aaba97f825ba779b4a5e7")


def _digest(seed: int, ns: range, per_n: int) -> tuple[int, str]:
    """sha256 over per_n seeded cores at each n in ns: the tau tower, the witnesses at
    tau and tau - 1, and every trace record of those calls; also the number of records."""
    rng = random.Random(seed)
    h = hashlib.sha256()
    count = 0
    for n in ns:
        for _ in range(per_n):
            head = tuple(rng.randint(0, 4) for _ in range(n - 1))
            records = []
            rep = tau(Monomial(n, head + (0,)), n, trace=records.append)
            witnesses = [
                witness_to_dict(is_gotzmann(Monomial(n, head + (t,)), trace=records.append))
                for t in (rep.tau, rep.tau - 1) if t >= 0
            ]
            h.update(json.dumps([report_to_dict(rep), witnesses, records], sort_keys=True).encode())
            h.update(b"\n")
            count += len(records)
    return count, h.hexdigest()


def test_towers_witnesses_and_trace_records_are_unchanged():
    assert _digest(20261018, range(3, 11), 16) == GOLDEN


def test_large_n_towers_witnesses_and_trace_records_are_unchanged():
    assert _digest(20261019, range(11, 13), 4) == GOLDEN_LARGE
