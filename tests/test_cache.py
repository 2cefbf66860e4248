import sys

from hypothesis import given, settings, strategies as st

from gotzmann import cache, paths, threshold
from gotzmann.monomial import Monomial, parse, truncate
from gotzmann.threshold import tau


@given(st.integers(2, 7).flatmap(lambda n: st.lists(st.integers(0, 4), min_size=n, max_size=n)))
@settings(max_examples=60, deadline=None)
def test_rows_replay_to_the_tower(exps):
    # u may carry a power of x_n; its rows rebuild its own, shifted tower
    n = len(exps)
    u = Monomial(n, tuple(exps))
    rep = tau(u, n)
    assert cache.replay(cache.rows(rep), u) == rep


def test_replay_walks_only_levels_clamped_to_zero(monkeypatch):
    # the n = 4 level of x2^2*x4^3 has its threshold clamped to 0; no other level walks
    walks, real = [], paths._walk_lists
    for module in (paths, threshold):  # the public find_z's walks and the tower's
        monkeypatch.setattr(module, "_walk_lists", lambda *a: walks.append(tuple(a[0])) or real(*a))
    u = parse("x2^2*x4^3", 5)
    rep = tau(u, 5)
    assert rep.sub_report.n == 4 and rep.sub_report.tau == 0
    level = rep.sub_report
    del walks[:]
    paths.find_z(truncate(level.u0, 3), 4, level.t_star)
    alone = walks[:]
    del walks[:]
    assert cache.replay(cache.rows(rep), u) == rep
    assert walks == alone != []
    unclamped = parse("x2^2*x4", 5)
    rep = tau(unclamped, 5)
    del walks[:]
    assert cache.replay(cache.rows(rep), unclamped) == rep
    assert walks == []


def test_tower_beyond_the_digit_limit_replays(tmp_path):
    # f of tau(x2^6, 13) passes 4,300 digits; lines are hex, which no limit covers
    path = str(tmp_path / "reports.jsonl")
    core = parse("x2^6", 13)
    limit = sys.int_info.default_max_str_digits
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        [rep] = cache.reports(path, 13, [core], lambda c: tau(c, 13))
        assert rep.f_at_tstar >= 10**4300
        assert cache.reports(path, 13, [core], lambda c: None) == [rep]
        assert sys.get_int_max_str_digits() == limit
    finally:
        sys.set_int_max_str_digits(old)
    with open(path, encoding="utf-8") as fh:
        assert len(fh.readlines()) == 1
