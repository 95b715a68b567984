import json

import numpy as np
import pytest

from turanvdc import properties
from turanvdc.cli import dumps, main
from turanvdc.core import cospoly_from_json
from turanvdc.lp import ITERATION_LIMIT, LPResult


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestDumps:
    def test_float_17_digits(self):
        assert dumps(1 / 3) == "0.33333333333333331"
        assert dumps(0.5) == "0.5"

    def test_structures(self):
        assert dumps({"a": [1, 2.5, True, None], "b": "x"}) == \
            '{"a": [1, 2.5, true, null], "b": "x"}'

    def test_is_valid_json(self):
        obj = {"v": 1 / 7, "list": [1, 2.0], "flag": False, "s": 'q"uote'}
        assert json.loads(dumps(obj)) == obj

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            dumps(float("nan"))


class TestTuran:
    def test_p1(self, capsys):
        rc, out, _ = run(capsys, "turan", "--p", "1", "--q", "7")
        assert rc == 0
        d = json.loads(out)
        assert d["A"] == pytest.approx(1 / 7, abs=1e-15)
        assert "gammas" not in d

    def test_not_coprime_exit_2(self, capsys):
        rc, out, err = run(capsys, "turan", "--p", "3", "--q", "9")
        assert rc == 2
        assert "NotCoprime" in err

    def test_p2_gammas(self, capsys):
        rc, out, _ = run(capsys, "turan", "--p", "2", "--q", "5")
        d = json.loads(out)
        assert rc == 0
        assert d["A"] == pytest.approx(0.4472135, abs=1e-6)
        assert d["gammas"][0] == pytest.approx(0.4472135, abs=1e-6)

    def test_p2_q3_edge(self, capsys):
        rc, out, _ = run(capsys, "turan", "--p", "2", "--q", "3")
        assert rc == 0
        assert json.loads(out)["A"] == pytest.approx(1.0, abs=1e-12)

    def test_unsupported_exit_2(self, capsys):
        rc, _, err = run(capsys, "turan", "--p", "4", "--q", "11")
        assert rc == 2 and "UnsupportedCase" in err

    def test_text_format(self, capsys):
        rc, out, _ = run(capsys, "turan", "--p", "1", "--q", "4", "--format", "text")
        assert rc == 0 and "A = 0.25" in out

    def test_csv_format(self, capsys):
        rc, out, _ = run(capsys, "turan", "--p", "1", "--q", "4", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "p,q,A" and lines[1] == "1,4,0.25"


class TestDelta:
    def test_finite_set(self, capsys):
        rc, out, _ = run(capsys, "delta", "--set", "2,3", "--grid", "2048")
        d = json.loads(out)
        assert rc == 0
        assert d["status"] == "Optimal"
        assert d["value"] == pytest.approx(0.44721, abs=2e-3)
        assert d["grid"] == 2048
        assert len(d["coeffs"]) == 3
        assert d["iterations"] > 0

    def test_periodic(self, capsys):
        rc, out, _ = run(capsys, "delta", "--pq", "1,4", "--periods", "1", "--grid", "1024")
        d = json.loads(out)
        assert rc == 0
        assert d["value"] == pytest.approx(0.25, abs=2e-3)

    def test_empty_set_exit_2(self, capsys):
        rc, _, err = run(capsys, "delta", "--set", "", "--grid", "64")
        assert rc == 2

    def test_requires_one_source(self, capsys):
        assert run(capsys, "delta", "--grid", "64")[0] == 2
        assert run(capsys, "delta", "--set", "1", "--pq", "1,3")[0] == 2

    def test_bad_grid_exit_2(self, capsys):
        rc, _, err = run(capsys, "delta", "--set", "9", "--grid", "4")
        assert rc == 2

    def test_certify(self, capsys):
        rc, out, _ = run(capsys, "delta", "--set", "1", "--grid", "512", "--certify")
        d = json.loads(out)
        assert rc == 0
        assert d["certificate"]["certified_min"] >= -1e-6
        assert d["certificate"]["lipschitz_bound"] > 0


class TestExtremal:
    def test_build_verify_write(self, capsys, tmp_path):
        out_file = tmp_path / "t310.json"
        rc, out, _ = run(capsys, "extremal", "--p", "3", "--q", "10", "--out", str(out_file))
        assert rc == 0
        d = json.loads(out)
        assert d["support_ok"] is True
        assert d["certified_min"] >= -1e-9
        assert d["t0"] == pytest.approx(0.3157379, abs=1e-6)
        T = cospoly_from_json(json.loads(out_file.read_text()))
        assert T.coeffs[0] == pytest.approx(0.3157379, abs=1e-6)
        assert T.degree == 7

    def test_coarse_grid_fails_membership(self, capsys):
        rc, out, _ = run(capsys, "extremal", "--p", "3", "--q", "10", "--grid", "256")
        assert rc == 1
        assert json.loads(out)["certified_min"] < -1e-9

    def test_invalid_input_exit_2(self, capsys):
        rc, _, err = run(capsys, "extremal", "--p", "2", "--q", "4")
        assert rc == 2 and "NotCoprime" in err

    def test_p4(self, capsys):
        rc, out, _ = run(capsys, "extremal", "--p", "4", "--q", "11")
        assert rc == 0 and json.loads(out)["support_ok"] is True


class TestTable:
    def test_csv_skips_inadmissible(self, capsys):
        rc, out, _ = run(capsys, "table", "--p", "3", "--qmin", "7", "--qmax", "13")
        lines = out.strip().splitlines()
        assert rc == 0
        assert lines[0] == "q,A,gamma0"
        qs = [int(line.split(",")[0]) for line in lines[1:]]
        assert qs == [7, 8, 10, 11, 13]

    def test_with_lp_gap(self, capsys):
        rc, out, _ = run(capsys, "table", "--p", "1", "--qmin", "2", "--qmax", "4",
                         "--with-lp", "--grid", "256", "--format", "json")
        rows = json.loads(out)
        assert rc == 0
        for row in rows:
            assert 0.0 <= row["gap"] <= 2e-3
            assert row["gamma0"] == pytest.approx(1.0 / (row["q"] * row["A"]), abs=1e-12)

    def test_empty_range_exit_2(self, capsys):
        assert run(capsys, "table", "--p", "3", "--qmin", "9", "--qmax", "9")[0] == 2

    def test_non_optimal_lp_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr(properties, "delta_grid_lp",
                            lambda K, M: LPResult(ITERATION_LIMIT, None, None, 100000))
        rc, out, err = run(capsys, "table", "--p", "1", "--qmin", "2", "--qmax", "4",
                           "--with-lp", "--grid", "256")
        assert rc == 2 and out == ""
        assert err.count("\n") == 1 and "LPNotOptimal" in err and "IterationLimit" in err


class TestCheck:
    def test_mono(self, capsys):
        rc, out, _ = run(capsys, "check", "--property", "mono",
                         "--k1", "2,3", "--k2", "1,2,3", "--grid", "1024")
        assert rc == 0
        assert json.loads(out)["pass"] is True

    def test_mono_not_subset_exit_2(self, capsys):
        rc, _, err = run(capsys, "check", "--property", "mono", "--k1", "4", "--k2", "2,3")
        assert rc == 2 and "NotASubset" in err

    def test_dilate(self, capsys):
        rc, out, _ = run(capsys, "check", "--property", "dilate",
                         "--set", "2,3", "--m", "3", "--grid", "512")
        assert rc == 0 and json.loads(out)["pass"] is True

    def test_divis(self, capsys):
        rc, out, _ = run(capsys, "check", "--property", "divis",
                         "--set", "1,2,4,5", "--m", "3", "--grid", "1024")
        assert rc == 0 and json.loads(out)["pass"] is True

    @pytest.mark.parametrize("m", ["0", "-3"])
    def test_divis_divisor_below_one_exit_2(self, capsys, m):
        rc, out, err = run(capsys, "check", "--property", "divis", "--set", "2,3", "--m", m)
        assert rc == 2 and out == ""
        assert err == f"error: ValueError: divisor must be >= 1, got {m}\n"

    def test_super(self, capsys):
        rc, out, _ = run(capsys, "check", "--property", "super",
                         "--k1", "1", "--k2", "2", "--grid", "512")
        assert rc == 0 and json.loads(out)["pass"] is True

    def test_pairing(self, capsys):
        rc, out, _ = run(capsys, "check", "--property", "pairing", "--pq", "3,10")
        d = json.loads(out)
        assert rc == 0 and d["pass"] is True
        assert abs(d["values"][0] - d["values"][1]) <= 1e-9

    def test_vdc_finite(self, capsys):
        rc, out, _ = run(capsys, "check", "--property", "vdc", "--set", "2,3")
        d = json.loads(out)
        assert rc == 0
        assert d["label"] == "NotVanDerCorput"
        assert d["bound"] == pytest.approx(0.44721, abs=2e-3)

    def test_vdc_periodic(self, capsys):
        rc, out, _ = run(capsys, "check", "--property", "vdc", "--pq", "1,3")
        d = json.loads(out)
        assert rc == 0 and d["bound"] == pytest.approx(1 / 3, abs=1e-12)

    def test_missing_input_exit_2(self, capsys):
        assert run(capsys, "check", "--property", "mono", "--k1", "2,3")[0] == 2

    def test_non_optimal_lp_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr(properties, "delta_grid_lp",
                            lambda K, M: LPResult(ITERATION_LIMIT, None, None, 100000))
        rc, out, err = run(capsys, "check", "--property", "mono",
                           "--k1", "2,3", "--k2", "1,2,3", "--grid", "1024")
        assert rc == 2 and out == ""
        assert err.count("\n") == 1 and "LPNotOptimal" in err and "IterationLimit" in err

    def test_vdc_non_optimal_lp_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr(properties, "delta_grid_lp",
                            lambda K, M: LPResult(ITERATION_LIMIT, None, None, 100000))
        rc, out, err = run(capsys, "check", "--property", "vdc", "--set", "2,3")
        assert rc == 2 and out == ""
        assert err.count("\n") == 1 and "LPNotOptimal" in err and "IterationLimit" in err


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("turan", "--p", "2", "--q", "5"),
        ("delta", "--set", "2,3", "--grid", "512"),
        ("check", "--property", "super", "--k1", "1", "--k2", "2", "--grid", "256"),
        ("table", "--p", "3", "--qmin", "7", "--qmax", "11"),
    ])
    def test_byte_identical_reruns(self, capsys, argv):
        rc1, out1, _ = run(capsys, *argv)
        rc2, out2, _ = run(capsys, *argv)
        assert rc1 == rc2 == 0
        assert out1 == out2


class TestPinnedBytes:
    """Exact output bytes, so that a last-bit drift in the gamma system or a
    changed pivot path of the all-equality grid LP fails.

    `extremal` stdout is left out: its certified_min follows the FFT
    library's rounding.
    """

    @pytest.mark.parametrize("argv,expected", [
        (("turan", "--p", "2", "--q", "5"),
         '{"p": 2, "q": 5, "r0": 2, "shifts": [2], '
         '"gammas": [0.44721359549995798, 0.55278640450004202], "A": 0.44721359549995793}\n'),
        (("turan", "--p", "3", "--q", "10"),
         '{"p": 3, "q": 10, "r0": 3, "shifts": [3, 4], '
         '"gammas": [0.31671842700025238, 0.47213595499957933, 0.21114561800016829], '
         '"A": 0.31573786516665264}\n'),
        (("check", "--property", "pairing", "--pq", "3,10"),
         '{"check": "pairing", "inputs": {"p": 3, "q": 10}, '
         '"values": [0.31573786516665264, 0.31573786516665253, 0.10000000000000001], '
         '"pass": true}\n'),
        (("delta", "--set", "2,3", "--grid", "2048"),
         '{"status": "Optimal", "value": 0.44721331651423213, '
         '"coeffs": [0.44721331651423213, 0.33209177325096445, 0.22069491023480337], '
         '"grid": 2048, "iterations": 13}\n'),
        (("delta", "--pq", "1,3", "--periods", "1", "--grid", "512"),
         '{"status": "Optimal", "value": 0.33331839980361722, '
         '"coeffs": [0.33331839980361722, 0.22543361826268749, -0.081161739680196077, '
         '0.24784333987657883, 0.27456638173731251], "grid": 512, "iterations": 17}\n'),
        (("table", "--p", "3", "--qmin", "7", "--qmax", "12", "--with-lp", "--grid", "1024",
          "--format", "csv"),
         "q,A,gamma0,lp,gap\n"
         "7,0.47395245819915643,0.30141660916782037,0.47394900814216939,3.4500569870421494e-06\n"
         "8,0.42677669529663692,0.29289321881345243,0.42677669529663698,-5.5511151231257827e-17\n"
         "10,0.3157378651666527,0.31671842700025232,0.31573392025378094,3.9449128717561344e-06\n"
         "11,0.28970505819852443,0.3137987699434443,0.28970107243069787,3.9857678265642349e-06\n"),
    ])
    def test_stdout(self, capsys, argv, expected):
        rc, out, _ = run(capsys, *argv)
        assert rc == 0 and out == expected

    def test_extremal_out_file(self, capsys, tmp_path):
        out_file = tmp_path / "t310.json"
        assert run(capsys, "extremal", "--p", "3", "--q", "10", "--out", str(out_file))[0] == 0
        assert out_file.read_text() == (
            '{"degree": 9, "coeffs": [0.31573786516665264, 0, 0, 0.33768317228332345, '
            '0.11055728090000841, 0.017595468166680724, 0.073704853933338907, '
            '0.14472135954999582, 0, 0]}\n')
