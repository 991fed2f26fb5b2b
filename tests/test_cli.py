"""Tests for the command line front end."""

import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import fano_enriques
from fano_enriques import catalog
from fano_enriques.catalog import CURATED, SEARCHES, _diff, bundled_json
from fano_enriques.cli import main
from fano_enriques.exact import MAX_TRUNC


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdin_of(data):
    """A stand-in for sys.stdin whose binary buffer holds data, text as UTF-8."""
    return SimpleNamespace(buffer=io.BytesIO(data.encode() if isinstance(data, str) else data))


class TestHilbert:
    def test_table_output(self, capsys):
        code, out, _ = run(
            capsys, "hilbert", "--k3", "5/2", "--basket", "1/2(1,1,1)", "--trunc", "9"
        )
        assert code == 0
        assert out.strip() == "1, 4, 11, 24, 46, 79, 126, 189, 271, 374"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "hilbert", "--k3", "4", "--trunc", "3", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["r"] == 1
        assert obj["coeffs"][0][:4] == ["1", "5", "15", "35"]

    def test_inconsistent_data_fails(self, capsys):
        code, _, err = run(capsys, "hilbert", "--k3", "1", "--basket", "1/2(1,1,1)")
        assert code == 1
        assert "parity" in err


class TestBigraded:
    ARGS = (
        "bigraded",
        "--r", "5",
        "--k3", "1/2",
        "--bt", "1/10(1,3,7)_6, 2x1/5(1,2,3)_1",
        "--trunc", "9",
    )

    def test_table_output(self, capsys):
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert lines[0] == "e^0: 1, 1, 2, 5, 9, 16, 25, 38, 54, 74"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, *self.ARGS, "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["data"]["r"] == 5
        assert obj["series"]["trunc"] == 9


class TestInfer:
    def test_from_file(self, capsys, tmp_path):
        payload = {"r": 1, "trunc": 9, "coeffs": [["1", "4", "11", "24", "46", "79", "126", "189", "271", "374"]]}
        path = tmp_path / "series.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "infer", "--series", str(path), "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["status"] == "clean"
        assert obj["generators"] == [[1, 0], [1, 0], [1, 0], [1, 0], [2, 0]]
        assert obj["relations"] == [[5, 0]]

    def test_from_stdin(self, capsys, monkeypatch):
        payload = {"r": 1, "trunc": 6, "coeffs": [["1", "5", "15", "35", "69", "121", "195"]]}
        monkeypatch.setattr("sys.stdin", stdin_of(json.dumps(payload)))
        code, out, _ = run(capsys, "infer")
        assert code == 0
        assert "generators (1,0) (1,0) (1,0) (1,0) (1,0)" in out
        assert "relations (4,0)" in out
        assert "clean" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "infer", "--series", "/nonexistent/series.json")
        assert code == 1
        assert err

    def test_runs_to_the_series_own_truncation(self, capsys, tmp_path):
        # four generators and one relation in degree 26, beyond the search's 24
        from fano_enriques.gradedrings import presentation_series
        from fano_enriques.series import Bidegree

        series = presentation_series([Bidegree(1)] * 4, [Bidegree(26)], 1, 30)
        path = tmp_path / "series.json"
        path.write_text(json.dumps(series.to_json()))
        code, out, _ = run(capsys, "infer", "--series", str(path), "--json")
        assert code == 0
        obj = json.loads(out)
        assert (obj["status"], obj["relations"]) == ("clean", [[26, 0]])

    def test_has_no_max_degree_option(self, capsys):
        with pytest.raises(SystemExit):
            run(capsys, "infer", "--help")
        assert "--max-degree" not in capsys.readouterr().out


class TestEnumerateBt:
    def test_single_order(self, capsys):
        code, out, _ = run(capsys, "enumerate-bt", "--r", "8", "--json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 1
        assert rows[0]["r"] == 8

    def test_empty_order(self, capsys):
        code, out, _ = run(capsys, "enumerate-bt", "--r", "7")
        assert code == 0
        assert out.strip() == ""

    def test_out_of_range(self, capsys):
        code, _, err = run(capsys, "enumerate-bt", "--r", "35")
        assert code == 1
        assert "outside" in err

    def test_requires_selector(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "enumerate-bt")
        assert exc.value.code == 1


class TestSearch:
    def test_bundled_catalog_restricted(self, capsys):
        code, out, _ = run(
            capsys,
            "search", "--catalog", "covers_codim1.json", "--r", "5", "--json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["rows"]
        assert all(c["r"] == 5 for c in obj["rows"] + obj["special_cases"])

    def test_local_catalog_path(self, capsys, tmp_path):
        from fano_enriques.catalog import save_catalog
        from fano_enriques.exact import Rational
        from fano_enriques.orbifold import Basket
        from fano_enriques.quotient import CoverRecord

        path = tmp_path / "one.json"
        save_catalog(
            [CoverRecord("Y_{4} in P(1,1,1,1,1)", (1, 1, 1, 1, 1), (4,), Basket(), Rational(4))],
            path,
        )
        code, out, _ = run(capsys, "search", "--catalog", str(path), "--r", "5")
        assert code == 0
        assert "Y_{4} in P(1,1,1,1,1)" in out
        assert "# 1 candidates" in out

    def test_rejections_listing(self, capsys, tmp_path):
        from fano_enriques.catalog import save_catalog
        from fano_enriques.exact import Rational
        from fano_enriques.orbifold import Basket
        from fano_enriques.quotient import CoverRecord

        path = tmp_path / "one.json"
        save_catalog(
            [CoverRecord("Y_{4} in P(1,1,1,1,1)", (1, 1, 1, 1, 1), (4,), Basket(), Rational(4))],
            path,
        )
        code, out, _ = run(
            capsys, "search", "--catalog", str(path), "--r", "2", "--rejections"
        )
        assert code == 0
        assert "preimage-mismatch" in out or "orbit-indivisible" in out

    @pytest.mark.parametrize("golden", sorted(SEARCHES))
    def test_json_prints_golden_rows(self, capsys, reproduction, golden):
        # a fresh search of the golden's catalog prints its rows and special
        # cases, curated fields apart, and the shared run's rejections
        code, out, _ = run(capsys, "search", "--catalog", SEARCHES[golden], "--json")
        assert code == 0
        printed, frozen = json.loads(out), bundled_json(golden)
        assert list(printed) == ["rows", "special_cases", "rejections"]
        lists = ("rows", "special_cases")
        assert _diff(golden, "", {k: frozen[k] for k in lists}, {k: printed[k] for k in lists}) == []
        assert not any(field in row for row in printed["rows"] for field in CURATED)
        assert printed["rejections"] == [
            r.to_json() for r in reproduction.searches[golden].rejections
        ]

    def test_unknown_catalog(self, capsys):
        code, _, err = run(capsys, "search", "--catalog", "nope.json")
        assert code == 1
        assert "no bundled file" in err

    def test_cover_whose_basket_contradicts_its_model(self, capsys, tmp_path):
        # -K^3 and parity hold, so loading passes and search refuses it
        record = {
            "name": "bad",
            "weights": [1, 1, 1, 1, 1],
            "degrees": [4],
            "basket": [{"r": 2, "a": 1}] * 4,
            "minusK3": "4",
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": "1", "entries": [record]}))
        code, out, err = run(capsys, "search", "--catalog", str(path))
        assert (code, out) == (1, "")
        assert err == (
            "fano-enriques search: bad: series mismatch at t^1: "
            "basket gives 4, model gives 5\n"
        )

    def test_truncation_below_a_cover_model_is_refused(self, capsys):
        # nothing is printed for the covers that fit: the whole search is refused
        code, out, err = run(
            capsys, "search", "--catalog", "covers_codim1.json", "--trunc", "3"
        )
        assert (code, out) == (1, "")
        assert err.startswith("fano-enriques search: ")
        assert "Y_{24} in P(1,2,3,7,12): model needs trunc >= 24, got 3\n" in err

    def test_refused_search_walks_no_census(self, capsys, monkeypatch):
        # the model degrees are checked before the census is read at all
        refused = run(capsys, "search", "--catalog", "covers_codim1.json", "--trunc", "3")

        def walk(r, *args):
            raise AssertionError(f"census of order {r} walked")

        monkeypatch.setattr("fano_enriques.enumeration.enumerate_bt", walk)
        again = run(capsys, "search", "--catalog", "covers_codim1.json", "--trunc", "3")
        assert again == refused
        assert again[:2] == (1, "")


class TestVerifyFixtures:
    @pytest.fixture
    def shared_run(self, monkeypatch, reproduction):
        # the real verify-fixtures, comparing the session's reproduction
        # with the goldens instead of computing another
        monkeypatch.setattr(catalog, "reproduce", lambda: reproduction)

    def test_all_goldens_check_out(self, capsys, shared_run):
        code, out, _ = run(capsys, "verify-fixtures")
        assert code == 0
        assert "all bundled fixtures verified" in out
        # the verified goldens follow as tables: census, catalogs, series
        assert "total: 39" in out
        assert "12 clean, 2 special (marked *)" in out
        assert "1, 4, 11, 24, 46" in out
        assert "numerator 1 - t^5" in out and "+ -" not in out
        assert re.search(r"\d+\.\d+\s*s\b", out) is None  # no wall times

    def test_problems_replace_the_tables(self, capsys, monkeypatch):
        problem = "torsion_baskets.json: 38 baskets enumerated, golden freezes 39"
        monkeypatch.setattr(catalog, "verify_fixtures", lambda: [problem])
        code, out, _ = run(capsys, "verify-fixtures")
        assert code == 2
        assert out == problem + "\n"

    def test_json_mode(self, capsys, shared_run):
        code, out, _ = run(capsys, "verify-fixtures", "--json")
        assert code == 0
        assert json.loads(out) == {"ok": True, "problems": []}

    def test_label_of_any_type_prints(self, capsys, monkeypatch, shared_run):
        # the comparison leaves curated labels out, so a label that is no
        # string verifies clean and must still print: a TypeError before
        golden = bundled_json("quotients_codim1.json")
        golden = dict(golden, rows=[dict(golden["rows"][0], label=[1]), *golden["rows"][1:]])
        tampered = lambda n: golden if n == "quotients_codim1.json" else bundled_json(n)
        monkeypatch.setattr(catalog, "bundled_json", tampered)
        code, out, err = run(capsys, "verify-fixtures")
        assert (code, err) == (0, "")
        assert f" [1]  {golden['rows'][0]['cover']}" in out
        assert "12 clean, 2 special (marked *)" in out
        assert out.endswith("all bundled fixtures verified\n")


class TestNotAHilbertSeries:
    """Each builder and the inference name the first coefficient that keeps
    a series from being a Hilbert series, scanning row by row."""

    @pytest.mark.parametrize(
        "argv, stdin, message",
        [
            (
                ["hilbert", "--k3", "2", "--basket", "20x1/2(1,1,1)", "--trunc", "4"],
                None,
                "hilbert: series coefficient at t^1 is -1; no Fano threefold has "
                "-K^3 = 2 with basket {1/2(1,1,1) x20}",
            ),
            (
                ["bigraded", "--r", "2", "--k3", "2", "--bt", "4x1/2(1,1,1)_1", "--trunc", "8"],
                None,
                "bigraded: chi(1*sigma) = 1/2, expected 0: data admits no torsion divisor",
            ),
            (
                # component 1 fails at t^1 before component 2's constant
                # chi(2*sigma) = 2/3 is read
                [
                    "bigraded", "--r", "3", "--k3", "1/6",
                    "--bt", "2x1/3(1,1,2)_1, 1/6(1,1,5)_2", "--trunc", "12",
                ],
                None,
                "bigraded: component 1 coefficient at t^1 is 5/3; "
                "numerical data is inconsistent",
            ),
            (
                ["infer"],
                '{"r":2,"coeffs":[[1,1,"1/2"],[0,1,1]]}',
                "infer: coefficient at e^0 t^2 is 1/2; not a Hilbert series",
            ),
            (
                ["infer"],
                '{"r":2,"coeffs":[[1,1,1],[1,1,1]]}',
                "infer: constant term of a Hilbert series must be 1 at e^0",
            ),
            (
                # row 0 is read whole before row 1's constant
                ["infer"],
                '{"r":2,"coeffs":[[1,1,"1/2"],[1,1,1]]}',
                "infer: coefficient at e^0 t^2 is 1/2; not a Hilbert series",
            ),
        ],
        ids=[
            "hilbert-negative", "bigraded-constant", "bigraded-row-order",
            "infer-fraction", "infer-constant", "infer-row-order",
        ],
    )
    def test_refusal(self, capsys, monkeypatch, argv, stdin, message):
        if stdin is not None:
            monkeypatch.setattr("sys.stdin", stdin_of(stdin))
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"fano-enriques {message}\n"


class TestBadInput:
    """Malformed values exit 1 with a typed error that names the input."""

    @pytest.mark.parametrize("k3", ["nan", "inf", "1/0"])
    def test_hilbert_non_finite_k3(self, capsys, k3):
        code, _, err = run(capsys, "hilbert", "--k3", k3)
        assert code == 1
        assert err.startswith("fano-enriques hilbert: ")
        assert repr(k3) in err

    def test_infer_bare_list(self, capsys, tmp_path):
        path = tmp_path / "series.json"
        path.write_text(json.dumps([["1", "4", "11"]]))
        code, _, err = run(capsys, "infer", "--series", str(path))
        assert code == 1
        assert "series JSON must be an object" in err
        assert "list" in err

    def test_infer_object_without_r(self, capsys, tmp_path):
        path = tmp_path / "series.json"
        path.write_text(json.dumps({"coeffs": [["1", "4", "11"]]}))
        code, _, err = run(capsys, "infer", "--series", str(path))
        assert code == 1
        assert "no field 'r'" in err

    TRUNC_TAKERS = pytest.mark.parametrize(
        "argv",
        [
            ("hilbert", "--k3", "4"),
            ("bigraded", "--r", "5", "--k3", "1/2", "--bt", "1/10(1,3,7)_6, 2x1/5(1,2,3)_1"),
            ("search", "--catalog", "covers_codim1.json", "--r", "5"),
        ],
        ids=["hilbert", "bigraded", "search"],
    )

    @TRUNC_TAKERS
    def test_negative_trunc(self, capsys, argv):
        code, _, err = run(capsys, *argv, "--trunc", "-1")
        assert code == 1
        assert err.startswith(f"fano-enriques {argv[0]}: ")
        assert "--trunc must be >= 0, got -1" in err

    @TRUNC_TAKERS
    def test_unindexable_trunc(self, capsys, argv):
        # refused before any series is built: 10**30 was an OverflowError
        # traceback, and 10**9 would build 10**9 coefficients
        for trunc in (MAX_TRUNC + 1, 10**9, 10**30):
            code, out, err = run(capsys, *argv, "--trunc", str(trunc))
            assert code == 1
            assert out == ""
            assert err == f"fano-enriques {argv[0]}: --trunc must be <= {MAX_TRUNC}, got {trunc}\n"

    def test_search_cover_of_unindexable_degree(self, capsys, tmp_path):
        # its -K^3 comes from the degrees by arithmetic, with no series to
        # t^(10^100 + 3)
        big = 10**100
        record = {
            "name": "Y_{big}",
            "weights": [1, 1, 1, 1, big],
            "degrees": [big + 3],
            "basket": [],
            "minusK3": "1",
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"format_version": "1", "entries": [record]}))
        code, out, err = run(capsys, "search", "--catalog", str(path), "--r", "5")
        assert code == 1
        assert out == ""
        assert err == (
            f"fano-enriques search: {path} entry 0 (Y_{{big}}): "
            f"declared -K^3 = 1 but the model forces {big + 3}/{big}\n"
            f"{path} entry 0 (Y_{{big}}): -K^3 = 1 fails the parity "
            f"constraint for basket {{(empty)}} (defect 1/2)\n"
        )

    def test_search_fractional_weights_and_degrees(self, capsys, tmp_path):
        # truncated to integers, this record would load as the quintic
        # Y_5 in P(1,1,1,1,2) and give a clean row
        record = {
            "name": "Y_{5.2} in P(1,1,1,1,2.9)",
            "weights": [1, 1, 1, 1, 2.9],
            "degrees": [5.2],
            "basket": [{"r": 2, "a": 1}],
            "minusK3": "5/2",
        }
        path = tmp_path / "fractional.json"
        path.write_text(json.dumps({"format_version": "1", "entries": [record]}))
        code, out, err = run(capsys, "search", "--catalog", str(path), "--r", "5")
        assert code == 1
        assert out == ""
        assert "Y_{5.2} in P(1,1,1,1,2.9): weights must be positive integers" in err

    @pytest.mark.parametrize(
        "point",
        [
            {"r": 2, "a": 1, "l": 0.5},
            {"r": 2, "a": 1, "l": 1},
            {"r": 2, "a": 1, "l": True},
            {"r": 2, "a": True},
        ],
        ids=["fractional-l", "marked", "bool-l", "bool-a"],
    )
    def test_search_marked_or_non_integer_basket(self, capsys, tmp_path, point):
        # the marking used to be dropped, giving the clean quintic row
        record = {
            "name": "Y_{5} in P(1,1,1,1,2)",
            "weights": [1, 1, 1, 1, 2],
            "degrees": [5],
            "basket": [point],
            "minusK3": "5/2",
        }
        path = tmp_path / "marked.json"
        path.write_text(json.dumps({"format_version": "1", "entries": [record]}))
        code, out, err = run(capsys, "search", "--catalog", str(path), "--r", "5")
        assert code == 1
        assert out == ""
        assert err.startswith(f"fano-enriques search: {path} entry 0: unreadable record")

    @pytest.mark.parametrize(
        "text, shown",
        [
            ('{"r":1,"coeffs":[[1,12345678901234567891.0]]}', "1.2345678901234567e+19"),
            ('{"r":1,"coeffs":[[1,1e-400]]}', "0.0"),
        ],
        ids=["rounded", "underflow"],
    )
    def test_infer_json_float_refused(self, capsys, monkeypatch, text, shown):
        # read through str(float), the first used to give 12345678901234567000
        # and the second 0
        monkeypatch.setattr("sys.stdin", stdin_of(text))
        code, out, err = run(capsys, "infer")
        assert code == 1
        assert out == ""
        assert err == (
            f"fano-enriques infer: not an exact rational: {shown}; "
            f'write an integer or a "p/q" string\n'
        )

    def test_infer_unlistable_count(self, capsys, monkeypatch):
        # more generators than a list can hold: an OverflowError traceback before
        text = '{"r":1,"coeffs":[[1,"12345678901234567891"]]}'
        monkeypatch.setattr("sys.stdin", stdin_of(text))
        code, out, err = run(capsys, "infer")
        assert code == 1
        assert out == ""
        assert err == (
            "fano-enriques infer: deviation 12345678901234567891 at (1,0) "
            "is too large to list as generators or relations\n"
        )

    def test_infer_count_past_the_listing_bound(self, capsys, monkeypatch):
        # listable, but a list of 2*10**18 generators ended in MemoryError
        import time

        text = '{"r":1,"coeffs":[[1,"2000000000000000000"]]}'
        monkeypatch.setattr("sys.stdin", stdin_of(text))
        start = time.perf_counter()
        code, out, err = run(capsys, "infer")
        assert time.perf_counter() - start < 1
        assert code == 1
        assert out == ""
        assert err == (
            "fano-enriques infer: deviation 2000000000000000000 at (1,0) "
            "is too large to list as generators or relations\n"
        )

    def test_search_float_k3_refused(self, capsys, tmp_path):
        record = {
            "name": "Y_{5} in P(1,1,1,1,2)",
            "weights": [1, 1, 1, 1, 2],
            "degrees": [5],
            "basket": [{"r": 2, "a": 1}],
            "minusK3": 2.5,
        }
        path = tmp_path / "float.json"
        path.write_text(json.dumps({"format_version": "1", "entries": [record]}))
        code, out, err = run(capsys, "search", "--catalog", str(path), "--r", "5")
        assert code == 1
        assert out == ""
        assert err == (
            f"fano-enriques search: {path} entry 0: unreadable record "
            f'(not an exact rational: 2.5; write an integer or a "p/q" string)\n'
        )

    def test_search_reports_each_unreadable_entry(self, capsys, tmp_path):
        # the non-terminal point used to end the search with its bare message
        records = [
            {"name": "Y_{5} in P(1,1,1,1,2)", "weights": [1, 1, 1, 1, 2], "degrees": [5],
             "basket": [{"r": 4, "a": 2}], "minusK3": "5/2"},
            {"name": "Y_{4} in P(1,1,1,1,1)", "weights": [1, 1, 1, 1, 1], "degrees": [4],
             "basket": [{"r": 2, "a": 1, "l": 5}], "minusK3": "4"},
        ]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": "1", "entries": records}))
        code, out, err = run(capsys, "search", "--catalog", str(path))
        assert code == 1
        assert out == ""
        assert err == (
            f"fano-enriques search: {path} entry 0: unreadable record "
            f"(1/4(1,2,2) is not in canonical terminal form)\n"
            f"{path} entry 1: unreadable record (marking 5 out of range for 1/2(1,1,1))\n"
        )

    def test_search_refuses_a_name_that_is_no_string(self, capsys, tmp_path):
        # the name used to be read through str() and searched as "['x']"
        record = {"name": ["x"], "weights": [1, 1, 1, 1, 2], "degrees": [5],
                  "basket": [{"r": 2, "a": 1}], "minusK3": "5/2"}
        path = tmp_path / "named.json"
        path.write_text(json.dumps({"format_version": "1", "entries": [record]}))
        code, out, err = run(capsys, "search", "--catalog", str(path))
        assert code == 1
        assert out == ""
        assert err == (
            f"fano-enriques search: {path} entry 0: unreadable record "
            f"(name must be str, got ['x'])\n"
        )

    LONG = "7" * 5000  # an integer literal past the interpreter's digit limit

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit"
    )
    @pytest.mark.parametrize("cmd", ["infer", "infer-stdin", "search"])
    def test_over_long_integer_literal(self, capsys, monkeypatch, tmp_path, cmd):
        # a ValueError traceback from json.loads before
        path = tmp_path / "long.json"
        if cmd == "search":
            record = '{"name": "x", "weights": [1, 1, 1, 1, %s], "degrees": [4]}' % self.LONG
            path.write_text('{"format_version": "1", "entries": [%s]}' % record)
            argv, origin = ("search", "--catalog", str(path)), path
        else:
            path.write_text('{"r": 1, "coeffs": [[1, %s]]}' % self.LONG)
            argv, origin = ("infer", "--series", str(path)), path
            if cmd == "infer-stdin":
                monkeypatch.setattr("sys.stdin", stdin_of(path.read_text()))
                argv, origin = ("infer",), "stdin"
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(
            f"fano-enriques {argv[0]}: {origin}: invalid JSON: Exceeds the limit"
        )
        assert "Traceback" not in err

    @pytest.mark.parametrize("cmd", ["infer", "search"])
    def test_file_that_is_not_utf8(self, capsys, tmp_path, cmd):
        # a UnicodeDecodeError traceback before
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        flag = "--series" if cmd == "infer" else "--catalog"
        code, out, err = run(capsys, cmd, flag, str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"fano-enriques {cmd}: cannot read {path}: 'utf-8' codec")
        assert "Traceback" not in err

    def test_stdin_that_is_not_utf8(self, capsys, monkeypatch):
        # read as text by the locale before: a UnicodeDecodeError traceback
        # under a strict UTF-8 locale, "invalid JSON" under a POSIX one
        monkeypatch.setattr("sys.stdin", stdin_of(b"\xff\xfe{}"))
        code, out, err = run(capsys, "infer")
        assert (code, out) == (1, "")
        assert err == (
            "fano-enriques infer: cannot read stdin: 'utf-8' codec can't decode "
            "byte 0xff in position 0: invalid start byte\n"
        )

    def test_corrupt_golden_is_named(self, capsys, monkeypatch, tmp_path, reproduction):
        # json.loads' error without the file name before
        data = tmp_path / "data"
        shutil.copytree(catalog._data_root(), data)
        (data / "quotients_codim2.json").write_text('{"rows": [')
        monkeypatch.setattr(catalog, "_data_root", lambda: data)
        monkeypatch.setattr(catalog, "reproduce", lambda: reproduction)
        code, out, err = run(capsys, "verify-fixtures")
        assert (code, out) == (1, "")
        assert err.startswith("fano-enriques verify-fixtures: quotients_codim2.json: invalid JSON: ")
        assert "Traceback" not in err

    def test_bundled_file_that_is_not_utf8_is_named(self, capsys, monkeypatch, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(catalog._data_root(), data)
        (data / "covers_codim2.json").write_bytes(b"\xff\xfe{\x00}\x00")
        monkeypatch.setattr(catalog, "_data_root", lambda: data)
        code, out, err = run(capsys, "search", "--catalog", "covers_codim2.json")
        assert (code, out) == (1, "")
        path = data / "covers_codim2.json"
        assert err.startswith(f"fano-enriques search: cannot read {path}: 'utf-8' codec")
        assert "Traceback" not in err

    def test_hilbert_zero_multiplicity(self, capsys):
        # not the empty basket: a count of 0 is refused like any unreadable entry
        code, out, err = run(capsys, "hilbert", "--k3", "2", "--basket", "1/2(1,1,1) x0")
        assert code == 1
        assert out == ""
        assert err == "fano-enriques hilbert: cannot parse basket entry '1/2(1,1,1) x0'\n"

    def test_bigraded_torsion_order_beyond_bound(self, capsys):
        # R3 bounds r, so no series with a billion rows is attempted
        code, out, err = run(capsys, "bigraded", "--r", "1000000000", "--k3", "2", "--bt", "")
        assert code == 1
        assert out == ""
        assert err == "fano-enriques bigraded: torsion order 1000000000 outside [2, 24]\n"

    @pytest.mark.parametrize("r", ["1", "25"])
    def test_bigraded_torsion_order_either_side_of_range(self, capsys, r):
        # one check of the order, so one wording below and above [2, 24]
        code, out, err = run(capsys, "bigraded", "--r", r, "--k3", "2", "--bt", "")
        assert (code, out) == (1, "")
        assert err == f"fano-enriques bigraded: torsion order {r} outside [2, 24]\n"

    def test_infer_relation_beyond_pfaffian_top(self, capsys, tmp_path):
        # five relations of t-degrees 2,2,2,2,10 have no Pfaffian shape
        # (10 > e = 9), so the closure must decline rather than fail
        from fano_enriques.gradedrings import presentation_series
        from fano_enriques.series import Bidegree

        gens = [Bidegree(1)] * 9 + [Bidegree(11)]
        rels = [Bidegree(2)] * 4 + [Bidegree(10)]
        path = tmp_path / "series.json"
        path.write_text(json.dumps(presentation_series(gens, rels, 1, 24).to_json()))
        code, out, err = run(capsys, "infer", "--series", str(path), "--json")
        assert code == 0
        assert err == ""
        assert json.loads(out) == {
            "generators": [[1, 0]] * 9 + [[11, 0]],
            "relations": [[2, 0]] * 4 + [[10, 0]],
            "status": "clean",
            "codim": 6,
        }


class ClosedStdout:
    """A stdout whose reader is gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


class TestClosedStdout:
    """`fano-enriques ... | head -1`: the reader closes the pipe early.
    "[Errno 32] Broken pipe" on stderr before."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["hilbert", "--k3", "2", "--trunc", "3"],
            ["enumerate-bt", "--r", "5"],
            ["search", "--catalog", "covers_codim1.json", "--r", "2"],
        ],
        ids=["hilbert", "enumerate-bt", "search"],
    )
    def test_ends_quietly(self, capsys, monkeypatch, tmp_path, argv):
        out = tmp_path / "out"
        fd = os.open(out, os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr("sys.stdout", ClosedStdout(fd))
            code = main(argv)
            os.write(fd, b"buffered")  # stdout's descriptor now leads to devnull
        finally:
            os.close(fd)
        assert code == 1
        assert capsys.readouterr().err == ""
        assert out.read_bytes() == b""

    def test_nothing_is_ignored_at_exit(self):
        # a pipe whose read end is closed before the command starts fails
        # every write, with no race against the reader
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "fano_enriques", "hilbert", "--k3", "2"],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env={**os.environ, "PYTHONPATH": str(Path(fano_enriques.__file__).parents[1])},
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, "")


class TestColdStart:
    """What a fresh process loads; this session has imported everything, so
    each case runs in its own interpreter."""

    PARSER_ONLY = {
        "fano_enriques",
        "fano_enriques.cli",
        "fano_enriques.errors",
        "fano_enriques.exact",
    }
    SCRIPT = (
        "import json, sys\n"
        "import fano_enriques\n"
        "argv = json.loads(sys.argv[1])\n"
        "if argv is not None:\n"
        "    from fano_enriques import cli\n"
        "    try:\n"
        "        cli.main(argv)\n"
        "    except SystemExit:\n"
        "        pass\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'fano_enriques')))\n"
    )

    def loaded(self, argv, stdin=""):
        """The package's modules loaded once `cli.main(argv)` returns or
        exits; with argv None, once the package alone is imported."""
        src = str(Path(fano_enriques.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, json.dumps(argv)],
            input=stdin, capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        return set(json.loads(done.stdout.splitlines()[-1]))

    def test_import_loads_no_submodule(self):
        assert self.loaded(None) == {"fano_enriques"}

    @pytest.mark.parametrize(
        "argv", [[], ["--help"], ["bogus"], ["hilbert"], ["search", "--trunc", "x"]],
        ids=["no-command", "help", "unknown-command", "missing-option", "bad-value"],
    )
    def test_parser_loads_no_engine_module(self, argv):
        assert self.loaded(argv) == self.PARSER_ONLY

    @pytest.mark.parametrize(
        "argv, stdin",
        [
            (["hilbert", "--k3", "5/2", "--basket", "1/2(1,1,1)"], ""),
            (["bigraded", "--r", "5", "--k3", "1/2", "--bt", "1/10(1,3,7)_6, 2x1/5(1,2,3)_1"], ""),
            (["infer"], '{"r": 1, "coeffs": [["1", "4", "11", "24", "46"]]}'),
        ],
        ids=["hilbert", "bigraded", "infer"],
    )
    def test_series_commands_skip_census_search_and_catalogs(self, argv, stdin):
        loaded = self.loaded(argv, stdin)
        assert "fano_enriques.series" in loaded
        assert not loaded & {
            "fano_enriques.catalog", "fano_enriques.quotient", "fano_enriques.enumeration"
        }


class TestUsage:
    def test_no_command(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert "usage" in err

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "hilbert", "--k3", "4", "--bogus")
        assert exc.value.code == 1
