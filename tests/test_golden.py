"""Byte-identity of answers and trace records across changes to the fast paths.

A speed change to the walk kernel or the closed forms must leave every tau
tower, every witness and every jump record exactly as it was.  The digest
below was recorded before the Pascal rows of the run walk and the full-block
path of the walk kernel existed; a change that moves it changes what the
program prints.
"""

import hashlib
import json
import random

from gotzmann.monomial import Monomial
from gotzmann.threshold import is_gotzmann, report_to_dict, tau, witness_to_dict

GOLDEN = (7771, "8fe0142539d6d71d5a70d552ba44b70d5d57f2966fbeac500fe48d405c3e2a6a")  # (records, sha256)


def _digest() -> tuple[int, str]:
    """sha256 over seeded cores at n = 3..10: the tau tower, the witnesses at tau and
    tau - 1, and every trace record of those calls; also the number of records."""
    rng = random.Random(20261018)
    h = hashlib.sha256()
    count = 0
    for n in range(3, 11):
        for _ in range(16):
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
    assert _digest() == GOLDEN
