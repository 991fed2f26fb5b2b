"""Tests for the admissible marked basket enumeration."""

import gc
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest

import fano_enriques
from fano_enriques import enumeration
from fano_enriques.enumeration import (
    MAX_INDEX,
    MAX_TORSION,
    BtCandidate,
    _admissible_items,
    _census,
    _numeric_verdict,
    canonicalize,
    check_restrictions,
    enumerate_bt,
)
from fano_enriques.errors import InconsistentMarkingError, MalformedInputError, OutOfRangeError
from fano_enriques.hilbert import _delta_cycle_scaled, torsion_delta_at
from fano_enriques.orbifold import Basket, MarkedSingularity, SingularityType


def mk(r, a, l):
    return MarkedSingularity(SingularityType(r, a), l)


WORKED_BT = Basket.parse("1/10(1,3,7)_6, 2x1/5(1,2,3)_1")
NO13_BT = Basket.parse("5x1/2(1,1,1)_1, 1/6(1,1,5)_3")


class TestBtCandidate:
    def test_valid_candidate(self):
        c = BtCandidate(5, WORKED_BT)
        assert len(c.entries) == 3
        assert str(c).startswith("r=5 | ")

    def test_rejects_unmarked_entries(self):
        with pytest.raises(InconsistentMarkingError):
            BtCandidate(2, Basket.parse("1/2(1,1,1)"))

    def test_rejects_incompatible_stabilizer(self):
        # 1/5(1,2,3)_1 has stabilizer order 5, which does not divide 2
        with pytest.raises(InconsistentMarkingError):
            BtCandidate(2, Basket.parse("1/5(1,2,3)_1"))

    @pytest.mark.parametrize("r", [-3, 0, 1, MAX_TORSION + 1])
    def test_rejects_order_outside_range(self, r):
        # the text enumerate_bt uses
        with pytest.raises(OutOfRangeError, match=f"torsion order {r} outside \\[2, 24\\]"):
            BtCandidate(r, Basket())

    def test_carries_its_forced_preimage(self):
        c = BtCandidate(5, WORKED_BT)
        assert c.preimage == Counter({SingularityType(2, 1): 1})
        # the preimage is derived, so it changes neither equality, hash nor repr
        assert c == BtCandidate(5, WORKED_BT) and hash(c) == hash(BtCandidate(5, WORKED_BT))
        assert "preimage" not in repr(c)

    def test_entries_coerced_to_basket(self):
        c = BtCandidate(2, (mk(2, 1, 1), mk(2, 1, 1)))
        assert isinstance(c.entries, Basket)
        assert len(c.entries) == 2


class TestCheckRestrictions:
    def test_admissible_candidate_passes_all(self):
        report = check_restrictions(BtCandidate(2, NO13_BT))
        assert report.admissible
        assert report.failures() == []
        assert report["R3"][0] is True

    def test_strict_variant_on_admissible_candidate(self):
        assert check_restrictions(BtCandidate(2, NO13_BT), strict_chi=True).admissible
        assert check_restrictions(BtCandidate(5, WORKED_BT), strict_chi=True).admissible

    @pytest.mark.parametrize("flag", ["no", 0, None], ids=repr)
    def test_strict_flag_must_be_a_bool(self, flag):
        # a truthy "no" used to run the strict variant
        with pytest.raises(MalformedInputError, match=f"strict_chi must be bool, got {flag!r}"):
            check_restrictions(BtCandidate(2, NO13_BT), strict_chi=flag)

    def test_r1_basket_too_heavy(self):
        c = BtCandidate(2, (mk(24, 1, 12), mk(24, 1, 12)))
        report = check_restrictions(c)
        assert "R1" in report.failures()

    def test_r2_preimage_too_heavy(self):
        # one point of index 20 marked to order 2 pulls back to four index-10
        # points on a degree-8 cover: fine downstairs, too heavy upstairs
        c = BtCandidate(8, (mk(20, 1, 10),))
        report = check_restrictions(c)
        assert report["R1"][0] is True
        assert "R2" in report.failures()

    def test_r3_needs_full_order_stabilizer(self):
        c = BtCandidate(4, (mk(2, 1, 1),))
        report = check_restrictions(c)
        assert "R3" in report.failures()
        assert report["R3"][1] == "no entry with stabilizer order r"

    def test_r4_fractional_delta(self):
        c = BtCandidate(2, (mk(2, 1, 1),))
        report = check_restrictions(c)
        assert "R4" in report.failures()
        assert "R5" in report.failures()
        assert "chi" in report["R5"][1]

    def test_r4_detail_names_the_first_fractional_delta(self):
        # read per n from torsion_delta_at, independently of the census walk
        report = check_restrictions(BtCandidate(2, (mk(2, 1, 1),)))
        assert report["R4"][1] == "delta(1,0) = -1/8"

    def test_report_str(self):
        report = check_restrictions(BtCandidate(2, NO13_BT))
        assert "R1:pass" in str(report)


class TestCanonicalize:
    def test_idempotent(self):
        c = BtCandidate(5, WORKED_BT)
        once = canonicalize(c)
        assert canonicalize(once) == once

    def test_minimizes_over_unit_rescaling(self):
        # rescale the worked basket's markings by the unit 2 and recover it
        rescaled = BtCandidate(
            5,
            Basket(
                tuple(
                    MarkedSingularity(e.type, (2 * e.l) % e.type.r)
                    for e in WORKED_BT
                )
            ),
        )
        assert rescaled.entries != WORKED_BT
        assert canonicalize(rescaled).entries == WORKED_BT


class TestEnumerateBt:
    def test_out_of_range_orders(self):
        with pytest.raises(OutOfRangeError):
            enumerate_bt(1)
        with pytest.raises(OutOfRangeError):
            enumerate_bt(MAX_TORSION + 1)

    def test_counts_for_fast_orders(self):
        assert len(enumerate_bt(5)) == 4
        assert len(enumerate_bt(6)) == 2
        assert len(enumerate_bt(8)) == 1

    def test_empty_orders(self):
        assert enumerate_bt(7) == []
        assert enumerate_bt(11) == []

    @pytest.mark.parametrize("r", [2.0, True], ids=["float", "bool"])
    def test_order_must_be_an_int(self, r):
        with pytest.raises(OutOfRangeError, match=f"torsion order must be an integer, got {r!r}"):
            enumerate_bt(r)

    @pytest.mark.parametrize("flag", [5, "", None], ids=repr)
    def test_strict_flag_must_be_a_bool(self, flag):
        # strict_chi=5 used to give the strict census, and "" the plain one
        with pytest.raises(MalformedInputError, match=f"strict_chi must be bool, got {flag!r}"):
            enumerate_bt(2, strict_chi=flag)

    def test_all_results_canonical_and_admissible(self):
        for c in enumerate_bt(5) + enumerate_bt(6) + enumerate_bt(8):
            assert canonicalize(c) == c
            assert check_restrictions(c).admissible

    def test_worked_basket_enumerated(self):
        assert any(c.entries == WORKED_BT for c in enumerate_bt(5))

    def test_results_sorted(self):
        got = enumerate_bt(5)
        assert got == sorted(got, key=lambda c: c.entries.entries)


class TestDeltaCycleScaled:
    def test_integer_route_matches_fraction_oracle(self):
        # every terminal type 1/r_Q(1, a, r_Q - a) with r_Q <= 24 and every
        # nonzero effective marking l'
        keys = 0
        for r_q in range(2, MAX_INDEX + 1):
            for a in range(1, r_q // 2 + 1):
                if gcd(a, r_q) != 1:
                    continue
                for lp in range(1, r_q):
                    single = Basket((mk(r_q, a, lp),))
                    cycle = _delta_cycle_scaled(r_q, a, lp)
                    assert len(cycle) == r_q
                    for n in range(r_q):
                        assert cycle[n] == 12 * r_q * torsion_delta_at(single, 1, n), (
                            r_q, a, lp, n,
                        )
                    keys += 1
        assert keys == 1368

    def test_serre_duality_on_every_cycle(self):
        # X is Cohen-Macaulay with omega_X = O(K_X), so chi(D) = -chi(K_X - D);
        # D = -nK + i*sigma gives each point delta_l'(n) = -delta_{r_Q - l'}(-n - 1),
        # for every terminal type with r_Q <= 24, every marking l' and one period
        checks = 0
        for r_q in range(2, MAX_INDEX + 1):
            for a in (a for a in range(1, r_q // 2 + 1) if gcd(a, r_q) == 1):
                for lp in range(r_q):
                    cycle = _delta_cycle_scaled(r_q, a, lp)
                    dual = _delta_cycle_scaled(r_q, a, (r_q - lp) % r_q)
                    for n in range(r_q):
                        assert cycle[n] == -dual[(-n - 1) % r_q], (r_q, a, lp, n)
                        checks += 1
        assert checks == 26574


class TestCensusCache:
    def test_strict_census_is_the_strict_filter_of_the_plain_one(self):
        for r in range(2, MAX_TORSION + 1):
            plain = enumerate_bt(r)
            want = [c for c in plain if check_restrictions(c, strict_chi=True).admissible]
            assert enumerate_bt(r, strict_chi=True) == want, r

    def test_strict_r5_keeps_every_shipped_basket(self):
        # all 39 baskets have chi(i*sigma) = 0 for i != 0, so on the
        # shipped census the strict variant changes nothing
        for r in range(2, MAX_TORSION + 1):
            assert enumerate_bt(r, strict_chi=True) == enumerate_bt(r), r

    @pytest.mark.parametrize("strict", [False, True])
    def test_returned_list_is_a_copy(self, strict):
        first = enumerate_bt(5, strict_chi=strict)
        expected = list(first)
        first.clear()
        assert enumerate_bt(5, strict_chi=strict) == expected
        assert len(expected) == 4


class TestWalkWorkingSet:
    """Each order's walk owns its working set and records the strict-R5
    verdict of every basket it admits."""

    def test_each_walk_leaves_no_cyclic_garbage(self):
        # refcounting alone frees a finished walk: nothing is left for the
        # cyclic collector after any order
        enabled = gc.isenabled()
        gc.disable()
        try:
            _census.cache_clear()
            gc.collect()
            for r in range(2, MAX_TORSION + 1):
                enumerate_bt(r)
                assert gc.collect() == 0, r
        finally:
            if enabled:
                gc.enable()

    def test_walks_keep_nothing_but_the_census(self):
        # in a fresh process, so no earlier walk has filled any cache; the
        # 1368 delta cycles alone would take about 0.9 MB
        script = (
            "import gc, tracemalloc\n"
            "from fano_enriques import enumerate_bt\n"
            "gc.collect()\n"
            "tracemalloc.start()\n"
            "before = tracemalloc.take_snapshot()\n"
            "for r in range(2, 25):\n"
            "    enumerate_bt(r)\n"
            "gc.collect()\n"
            "after = tracemalloc.take_snapshot()\n"
            "ours = [tracemalloc.Filter(True, '*fano_enriques*')]\n"
            "diff = after.filter_traces(ours).compare_to(before.filter_traces(ours), 'filename')\n"
            "print(sum(d.size_diff for d in diff))\n"
        )
        src = os.path.dirname(os.path.dirname(fano_enriques.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        assert int(run.stdout) < 200_000

    @pytest.mark.parametrize(
        "r, bt, verdict",
        [
            (2, "1/2(1,1,1)_1", None),  # chi(sigma) = 1/2: R5 fails
            (4, "1/2(1,1,1)_1, 1/14(1,1,13)_7", False),  # chi(i*sigma) >= 0, not all 0
            (5, "1/10(1,3,7)_6, 2x1/5(1,2,3)_1", True),
        ],
        ids=["fails", "plain-only", "strict"],
    )
    def test_numeric_verdict_is_check_restrictions(self, r, bt, verdict):
        c = BtCandidate(r, Basket.parse(bt))
        assert _numeric_verdict(c.entries.entries, r, _delta_cycle_scaled) is verdict
        plain = check_restrictions(c)
        strict = check_restrictions(c, strict_chi=True)
        assert (plain["R4"][0] and plain["R5"][0]) == (verdict is not None)
        assert strict["R5"][0] == (verdict is True)

    def test_recorded_verdict_is_the_strict_restriction(self):
        for r in range(2, MAX_TORSION + 1):
            for c, strict in _census(r):
                assert strict == check_restrictions(c, strict_chi=True).admissible, c

    def test_recorded_verdict_matches_the_oracle(self):
        for r in (2, 3, 4, 5, 7):
            _, strict, _ = _oracle_census(r)
            assert [c.entries.entries for c, verdict in _census(r) if verdict] == strict, r


@lru_cache(maxsize=None)
def _oracle_census(r):
    """(plain, strict) census of order r by brute force: every nondecreasing
    multiset of admissible items within the R1 and R2 budgets, summed in
    Fractions with no break and no pruning, kept when check_restrictions
    admits it, canonicalized."""
    items = [it for block in _admissible_items(r) for it in block]
    costs = [
        (Fraction(it.type.r**2 - 1, it.type.r), Fraction((r // it.alpha) * (it.d**2 - 1), it.d))
        for it in items
    ]
    plain, strict, visited = set(), set(), [0]

    def extend(start, chosen, left1, left2):
        for k in range(start, len(items)):
            c1, c2 = costs[k]
            if c1 >= left1 or c2 >= left2:
                continue
            visited[0] += 1
            c = BtCandidate(r, chosen + (items[k],))
            if check_restrictions(c).admissible:
                plain.add(canonicalize(c).entries.entries)
                if check_restrictions(c, strict_chi=True).admissible:
                    strict.add(canonicalize(c).entries.entries)
            extend(k, c.entries.entries, left1 - c1, left2 - c2)

    extend(0, (), Fraction(24), Fraction(24))
    return sorted(plain), sorted(strict), visited[0]


class TestCensusCompleteness:
    """The pruned census walk against a brute-force oracle that shares
    nothing with it but the item list and check_restrictions."""

    @pytest.mark.parametrize("r, multisets", [(2, 648), (3, 1112), (4, 3942), (5, 1050), (7, 1707)])
    def test_walk_finds_every_admissible_multiset(self, r, multisets):
        plain, strict, visited = _oracle_census(r)
        assert visited == multisets
        assert [c.entries.entries for c in enumerate_bt(r)] == plain
        assert [c.entries.entries for c in enumerate_bt(r, strict_chi=True)] == strict

    # _numeric_verdict calls of one walk per order, r = 2..24
    VERDICT_CALLS = [
        648, 1112, 3294, 1050, 4869, 1707, 4788, 3636, 3120, 1375, 3220, 72,
        1278, 1472, 1088, 128, 360, 162, 192, 216, 100, 242, 32,
    ]

    def test_walk_tests_the_same_nodes(self, monkeypatch):
        """The walk tests R4/R5 once at every node with a witness inside both
        budgets: 34,161 calls over the census.  An incremental R4/R5 (ROADMAP
        item 9(a)) will lower these counts on purpose."""
        calls = Counter()

        def counted(entries, r, cycles):
            calls[r] += 1
            return _numeric_verdict(entries, r, cycles)

        monkeypatch.setattr(enumeration, "_numeric_verdict", counted)
        for r in range(2, MAX_TORSION + 1):
            _census.__wrapped__(r)
        assert [calls[r] for r in range(2, MAX_TORSION + 1)] == self.VERDICT_CALLS
        assert sum(self.VERDICT_CALLS) == 34_161

    def test_items_come_in_two_sorted_blocks(self):
        for r in range(2, MAX_TORSION + 1):
            witnesses, rest = _admissible_items(r)
            assert witnesses and all(it.alpha == r for it in witnesses), r
            assert all(it.alpha < r for it in rest), r
            assert witnesses == sorted(witnesses) and rest == sorted(rest), r

    def test_every_tested_node_starts_with_a_witness(self, monkeypatch):
        """R3 by construction: every entry tuple the walk tests starts with
        an entry of stabilizer order r."""
        calls, strays = Counter(), []

        def checked(entries, r, cycles):
            calls[r] += 1
            if entries[0].alpha != r:
                strays.append((r, entries))
            return _numeric_verdict(entries, r, cycles)

        monkeypatch.setattr(enumeration, "_numeric_verdict", checked)
        for r in range(2, MAX_TORSION + 1):
            _census.__wrapped__(r)
        assert strays == []
        assert sum(calls.values()) == sum(self.VERDICT_CALLS)
