"""Byte-identity of answers and trace records across changes to the fast paths.

A speed change to the walk kernel or the closed forms must leave every tau
tower, every witness and every jump record exactly as it was.  Each digest is
two hashes.  The answers hash covers the towers, the witnesses and the witness
walks' trace records.  What it covers has not moved since before the Pascal
rows of the run walk and the full-block path of the walk kernel existed, and a
change that moves it changes what the program prints.  The find_z hash covers
the trace records of the tau calls, which are find_z's walks.  It was
re-recorded (GOLDEN 4327 -> 3215 records, GOLDEN_LARGE 1451 -> 1233) when the
deficit rule stopped shrinking every block that would use up the deficit: only
a partial block at x_{n-1} can hide the first hit, so a walk that used to end
in 2 to 5 jumps after it takes one, and its earlier records are unchanged.
GOLDEN_LARGE covers fewer cores at n = 11 and 12, where the budget walk solves
its blocks through integer roots of more than 1000 bits.
"""

import hashlib
import json
import random

from gotzmann.monomial import Monomial
from gotzmann.threshold import is_gotzmann, report_to_dict, tau, witness_to_dict

# {part: (records, sha256)}
GOLDEN = {
    "answers": (3444, "990a2d1b23b8c2ded93eb2f95864cd1507fd95e9518a4cc35cab00030e0bf704"),
    "find_z": (3215, "9a47c54c3f7eb1881a9ee64e45bcda3430c684f3a8efcd7c4f1663d91ecb0e09"),
}
GOLDEN_LARGE = {
    "answers": (796, "d1c53239ed969bc3285caf411bb41b1c1744c5cf8421ec26a54e68d1e97b2102"),
    "find_z": (1233, "8d254312552d6a5ba63d51ddf0a4cb5a84f1fb3dc570bfa4aaf7ef37d16f4dc1"),
}


def _digest(seed: int, ns: range, per_n: int) -> dict[str, tuple[int, str]]:
    """Two sha256 hashes over per_n seeded cores at each n in ns, each with its number of
    trace records: "answers" over the tau tower, the witnesses at tau and tau - 1 and the
    witness walks' trace records, and "find_z" over the trace records of the tau call."""
    rng = random.Random(seed)
    hashes = {"answers": hashlib.sha256(), "find_z": hashlib.sha256()}
    counts = dict.fromkeys(hashes, 0)
    for n in ns:
        for _ in range(per_n):
            head = tuple(rng.randint(0, 4) for _ in range(n - 1))
            walks, records = [], []
            rep = tau(Monomial(n, head + (0,)), n, trace=walks.append)
            witnesses = [
                witness_to_dict(is_gotzmann(Monomial(n, head + (t,)), trace=records.append))
                for t in (rep.tau, rep.tau - 1) if t >= 0
            ]
            for part, doc in (("answers", [report_to_dict(rep), witnesses, records]), ("find_z", walks)):
                hashes[part].update(json.dumps(doc, sort_keys=True).encode() + b"\n")
            counts["answers"] += len(records)
            counts["find_z"] += len(walks)
    return {part: (counts[part], h.hexdigest()) for part, h in hashes.items()}


def test_towers_witnesses_and_trace_records_are_unchanged():
    assert _digest(20261018, range(3, 11), 16) == GOLDEN


def test_large_n_towers_witnesses_and_trace_records_are_unchanged():
    assert _digest(20261019, range(11, 13), 4) == GOLDEN_LARGE
