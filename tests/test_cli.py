"""Tests for the command line front end."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_bytes import PINNED
from qmex import __version__
from qmex.cli import _COMMANDS, _build_parser, run
from qmex.qfunctions import sigma_d_mex_series


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestSeriesCommand:
    def test_csv_golden(self, capsys):
        code, out = invoke(capsys, "series", "sigma-d-mex", "--order", "7")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,value"
        assert lines[1:] == ["0,1", "1,2", "2,1", "3,4", "4,3", "5,4", "6,8", "7,8"]

    def test_csv_uses_lf_only(self, capsys):
        _, out = invoke(capsys, "series", "sigma", "--order", "3")
        assert "\r" not in out

    def test_json_shape_and_round_trip(self, capsys):
        code, out = invoke(capsys, "series", "sigma-d-mex", "--order", "9", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["name"] == "sigma-d-mex"
        assert record["form"] == "canonical"
        assert record["order"] == 9
        assert record["meta"]["version"] == __version__
        got = tuple(int(c) for c in record["coeffs"])
        assert got == sigma_d_mex_series(9).coefficients()

    def test_form_flag(self, capsys):
        code, out = invoke(capsys, "series", "sigma-d-moex", "--order", "4", "--form", "alt2")
        assert code == 0
        assert out.splitlines()[1:] == ["0,1", "1,3", "2,1", "3,4", "4,6"]

    def test_unknown_series_is_usage_error(self, capsys):
        code, _ = invoke(capsys, "series", "sigma-q-zeta", "--order", "4")
        assert code == 2

    def test_bad_form_is_usage_error(self, capsys):
        code, _ = invoke(capsys, "series", "distinct", "--order", "4", "--form", "alt1")
        assert code == 2

    def test_negative_order_is_usage_error(self, capsys):
        code, _ = invoke(capsys, "series", "sigma", "--order", "-3")
        assert code == 2


class TestOracleCommand:
    def test_rows(self, capsys):
        code, out = invoke(capsys, "oracle", "mex", "--n", "5", "--distinct")
        assert code == 0
        assert out.splitlines() == ["n,value", "0,1", "1,2", "2,1", "3,4", "4,3", "5,4"]

    def test_all_partition_stat(self, capsys):
        code, out = invoke(capsys, "oracle", "largest", "--n", "4")
        assert code == 0
        assert out.splitlines()[-1] == "4,12"

    def test_unknown_stat(self, capsys):
        code, _ = invoke(capsys, "oracle", "median", "--n", "4")
        assert code == 2


class TestVerifyCommand:
    def test_single_identity_pass(self, capsys):
        code, out = invoke(capsys, "verify", "--identity", "euler-identity", "--order", "80")
        assert code == 0
        assert out.startswith("PASS euler-identity")

    def test_oracle_identity_with_max(self, capsys):
        code, out = invoke(
            capsys, "verify", "--identity", "sigma-d-mex-oracle", "--oracle-max", "15"
        )
        assert code == 0
        assert "range 15" in out

    def test_all_small(self, capsys):
        code, out = invoke(capsys, "verify", "--all", "--order", "50", "--oracle-max", "12")
        assert code == 0
        lines = [l for l in out.splitlines() if l]
        assert len(lines) >= 14
        assert all(l.startswith("PASS") for l in lines)

    def test_negative_order_rejected(self, capsys):
        code, _ = invoke(capsys, "verify", "--identity", "thm-sigma-d-mex", "--order", "-1")
        assert code == 2

    def test_unknown_identity_rejected(self, capsys):
        code, _ = invoke(capsys, "verify", "--identity", "fermat-last")
        assert code == 2

    def test_all_walks_the_all_parts_census_once(self, capsys, monkeypatch):
        from qmex import partitions

        walks = []
        all_censuses = partitions._all_censuses
        monkeypatch.setattr(partitions, "_all_censuses", lambda n: walks.append(n) or all_censuses(n))
        partitions._CENSUSES.clear()
        code, _ = invoke(capsys, "verify", "--all")
        assert code == 0
        assert len(walks) == 1, walks

    @pytest.mark.parametrize(
        ("flags", "err"),
        [
            (["--order", "9000"], "order 9000 is outside the supported range 0..8000"),
            (["--oracle-max", "46"], "the partitions of 46 exceed the enumeration budget"
             " of 100000 partitions; the largest n within it is 45"),
            (["--order", "10", "--oracle-max", "9000"], "the partitions of 9000 exceed the"
             " enumeration budget of 100000 partitions; the largest n within it is 45"),
            (["--order", "5", "--oracle-max", "50"], "the partitions of 50 exceed the"
             " enumeration budget of 100000 partitions; the largest n within it is 45"),
            (["--order", "9000", "--oracle-max", "9001"], "order 9000 is outside the supported range 0..8000"),
        ],
    )
    def test_all_refuses_the_first_bad_range_in_registry_order(self, capsys, flags, err):
        # the refusal pass runs oracle entries largest range first; no message may change
        code = run(["verify", "--all", *flags])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {err}\n")

    def test_all_and_identity_conflict(self, capsys):
        code, _ = invoke(capsys, "verify", "--all", "--identity", "euler-identity")
        assert code == 2


class TestNumericCommands:
    def test_hrr_row(self, capsys):
        code, out = invoke(capsys, "hrr", "--n", "10", "--terms", "3")
        assert code == 0
        header, row = out.splitlines()
        assert header == "n,terms,partial_sum,rounded,residual"
        fields = row.split(",")
        assert fields[0] == "10" and fields[1] == "3"
        assert fields[3] == "93"  # mex-sum over all partitions of 10
        assert float(fields[4]) < 0.5

    def test_hrr_validation(self, capsys):
        code, _ = invoke(capsys, "hrr", "--n", "0")
        assert code == 2

    def test_asym_value(self, capsys):
        code, out = invoke(capsys, "asym", "--kind", "sigma-d-mex", "--n", "3")
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert row[:2] == ["sigma-d-mex", "3"]
        assert float(row[2]) == pytest.approx(3.856782105463211, rel=1e-12)

    def test_tauberian_rows(self, capsys):
        code, out = invoke(capsys, "tauberian", "--t", "0.2", "--order", "200")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "name,value"
        names = [l.split(",")[0] for l in lines[1:]]
        assert names == ["tauberian_ratio", "eta_ratio"]
        for l in lines[1:]:
            assert 0.5 < float(l.split(",")[1]) < 1.5

    def test_tauberian_underordered_is_error(self, capsys):
        code, out = invoke(capsys, "tauberian", "--t", "0.1", "--order", "100")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("t", ["0.3", "nan", "0"])
    def test_tauberian_bad_t_leaves_no_stdout(self, capsys, t):
        code, out = invoke(capsys, "tauberian", "--t", t, "--order", "100")
        assert code == 2
        assert out == ""

    def test_hrr_overflow_is_integrity_failure(self, capsys):
        code = run(["hrr", "--n", "200000", "--terms", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "numerical integrity failure" in captured.err

    @pytest.mark.parametrize("n", ["222", "250", "300"])
    def test_hrr_past_exact_rounding_is_integrity_failure(self, capsys, n):
        code, out = invoke(capsys, "hrr", "--n", n, "--terms", "20")
        assert code == 1
        assert out == ""

    def test_asym_overflow_is_integrity_failure(self, capsys):
        code, out = invoke(capsys, "asym", "--kind", "sigma-mex", "--n", "100000")
        assert code == 1
        assert out == ""

    def test_hrr_n_beyond_float_is_integrity_failure(self, capsys):
        code, out = invoke(capsys, "hrr", "--n", "1" + "0" * 400, "--terms", "1")
        assert code == 1
        assert out == ""

    def test_tauberian_underflowing_t_is_usage_error(self, capsys):
        code, out = invoke(capsys, "tauberian", "--t", "1e-300", "--order", "5")
        assert code == 2
        assert out == ""

    def test_hrr_terms_over_cap_refused_before_work(self, capsys, monkeypatch):
        from qmex import asymptotics

        def no_work(*args):
            raise AssertionError("kloosterman_A called")

        monkeypatch.setattr(asymptotics, "kloosterman_A", no_work)
        terms = str(asymptotics.HRR_MAX_TERMS + 1)
        code, out = invoke(capsys, "hrr", "--n", "30", "--terms", terms)
        assert code == 2
        assert out == ""

    def test_eval_overflow_is_integrity_failure(self, capsys, monkeypatch):
        from qmex import asymptotics
        from qmex.series import IntSeries

        monkeypatch.setattr(
            asymptotics, "sigma_d_mex_series", lambda order: IntSeries([1] * order + [10**400])
        )
        code = run(["tauberian", "--t", "0.2", "--order", "200"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "coefficient 200 " in captured.err

    def test_determinism(self, capsys):
        _, first = invoke(capsys, "series", "a-d", "--order", "30", "--format", "json")
        _, second = invoke(capsys, "series", "a-d", "--order", "30", "--format", "json")
        assert first == second


class TestRefineCommand:
    def test_mex_slice(self, capsys):
        code, out = invoke(capsys, "refine", "mex", "--index", "1", "--order", "5")
        assert code == 0
        assert out.splitlines()[1:] == ["0,1", "1,0", "2,1", "3,1", "4,1", "5,2"]

    def test_bad_index(self, capsys):
        code, _ = invoke(capsys, "refine", "mex", "--index", "0", "--order", "5")
        assert code == 2

    def test_json_name(self, capsys):
        code, out = invoke(capsys, "refine", "moex", "--index", "1", "--order", "8", "--format", "json")
        assert code == 0
        assert json.loads(out)["name"] == "refined-moex-1"

    @pytest.mark.parametrize("kind", ["mex", "omex", "moex", "maex"])
    def test_index_far_past_the_order_is_zero_at_once(self, capsys, monkeypatch, kind):
        from qmex import qfunctions

        def no_stream(*args):
            raise AssertionError("slice stream ran")

        monkeypatch.setattr(qfunctions, "_slices", no_stream)
        code, out = invoke(capsys, "refine", kind, "--index", str(10**12), "--order", "50")
        assert code == 0
        assert out.splitlines() == ["n,value"] + [f"{n},0" for n in range(51)]


class _NoStore(dict):
    """A series store that fails any test that reads or writes it."""

    def get(self, *args):
        raise AssertionError("store read")

    def __setitem__(self, key, value):
        raise AssertionError("store written")


class TestOrderCap:
    @pytest.fixture
    def no_build(self, monkeypatch):
        from qmex import qfunctions

        def no_work(*args, **kwargs):
            raise AssertionError("builder body ran")

        monkeypatch.setattr(qfunctions, "_STORE", _NoStore())
        for name in ("_euler_product", "_nested_sum", "_slices", "_mul_binomial_inplace", "_div_binomial_inplace"):
            monkeypatch.setattr(qfunctions, name, no_work)

    @pytest.mark.parametrize(
        "argv",
        [
            ["series", "distinct", "--order", str(10**12)],
            ["export", "sigma-mex", "--order", str(10**12), "--out", "{out}"],
            ["refine", "mex", "--index", "1", "--order", str(10**12)],
            ["tauberian", "--t", "0.1", "--order", str(10**12)],
        ],
    )
    def test_huge_order_refused_before_any_work(self, capsys, tmp_path, no_build, argv):
        out_file = tmp_path / "out.json"
        code, out = invoke(capsys, *(a.format(out=out_file) for a in argv))
        assert code == 2
        assert out == ""
        assert not out_file.exists()

    def test_caps_bound_each_builder(self, capsys, no_build):
        from qmex.qfunctions import _CATALOGUE, MAX_ORDER, Form, available_series

        for name in available_series():
            for form in _CATALOGUE[name][1] or (Form.CANONICAL,):
                argv = ["series", name, "--form", form.value, "--order"]
                code, out = invoke(capsys, *argv, str(MAX_ORDER + 1))
                assert (code, out) == (2, ""), (name, form)
                # MAX_ORDER itself passes the cap and reaches the store
                with pytest.raises(AssertionError, match="store read"):
                    invoke(capsys, *argv, str(MAX_ORDER))

    def test_verify_order_above_the_cap_refused_before_any_work(self, capsys, monkeypatch, no_build):
        from qmex import identities
        from qmex.identities import Comparison, registry
        from qmex.qfunctions import MAX_ORDER

        def no_work(*args, **kwargs):
            raise AssertionError("identity route ran")

        monkeypatch.setattr(identities, "poch", no_work)
        names = [d.name for d in registry() if d.comparison is Comparison.SERIES_SERIES]
        assert names
        for argv in [["--identity", name] for name in names] + [["--all"]]:
            code, out = invoke(capsys, "verify", *argv, "--order", str(MAX_ORDER + 1))
            assert (code, out) == (2, ""), argv

    def test_verify_all_checks_every_range_before_verifying_any(self, capsys, monkeypatch, no_build):
        from qmex import partitions

        def no_walk(*args):
            raise AssertionError("census walked")

        monkeypatch.setattr(partitions, "_walk", no_walk)
        # --order 8000 is within the cap; --oracle-max 46 is over the all-parts budget
        code, out = invoke(capsys, "verify", "--all", "--order", "8000", "--oracle-max", "46")
        assert (code, out) == (2, "")

    @pytest.mark.parametrize(
        ("argv", "reads", "other"),
        [
            (["sigma-d-mex-oracle", "--order", "10"], "--oracle-max", "--order"),
            (["sigma-d-mex-oracle", "--order", "10", "--oracle-max", "10"], "--oracle-max", "--order"),
            (["sigma-sum-identity", "--oracle-max", "10"], "--order", "--oracle-max"),
            (["sigma-sum-identity", "--order", "10", "--oracle-max", "10"], "--order", "--oracle-max"),
        ],
    )
    def test_verify_identity_refuses_the_range_flag_its_entry_does_not_read(
        self, capsys, monkeypatch, no_build, argv, reads, other
    ):
        from qmex import partitions

        def no_walk(*args):
            raise AssertionError("census walked")

        monkeypatch.setattr(partitions, "_CENSUSES", {})
        monkeypatch.setattr(partitions, "_walk", no_walk)
        code = run(["verify", "--identity", *argv])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert f"it reads {reads}, not {other}" in captured.err

    def test_caps_leave_room_for_the_orders_in_use(self):
        from qmex.asymptotics import required_order
        from qmex.qfunctions import MAX_ORDER, sigma_star_series

        # the order-2000 builds, chern at 400, and tauberian at t = 0.1
        assert MAX_ORDER >= max(2000, required_order(0.1))
        assert sigma_star_series(MAX_ORDER).order == MAX_ORDER


class TestExportCommand:
    def test_json_file_round_trip(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out = invoke(
            capsys, "export", "sigma-d-mex", "--order", "12", "--out", str(target)
        )
        assert code == 0
        assert str(target) in out
        record = json.loads(target.read_text())
        assert tuple(int(c) for c in record["coeffs"]) == sigma_d_mex_series(12).coefficients()
        assert "generated_at" in record["meta"]

    def test_csv_file(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, _ = invoke(
            capsys, "export", "distinct", "--order", "4", "--format", "csv", "--out", str(target)
        )
        assert code == 0
        assert target.read_text() == "n,value\n0,1\n1,1\n2,1\n3,2\n4,2\n"

    def test_json_file_equals_series_stdout_but_for_the_stamp(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, _ = invoke(capsys, "export", "a-d", "--order", "30", "--form", "alt1", "--out", str(target))
        assert code == 0
        record = json.loads(target.read_text())
        del record["meta"]["generated_at"]
        _, out = invoke(capsys, "series", "a-d", "--order", "30", "--form", "alt1", "--format", "json")
        assert json.dumps(record, indent=2) + "\n" == out

    def test_unwritable_path(self, capsys, tmp_path):
        code, _ = invoke(
            capsys, "export", "distinct", "--order", "4",
            "--out", str(tmp_path / "missing" / "out.json"),
        )
        assert code == 2


class TestTopLevel:
    def test_python_m_qmex(self):
        import qmex

        src = os.path.dirname(os.path.dirname(os.path.abspath(qmex.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "qmex", "--version"], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"qmex {__version__}"
        assert proc.stderr == ""

    def test_unknown_command(self, capsys):
        code, _ = invoke(capsys, "spectralize")
        assert code == 2

    def test_no_command(self, capsys):
        code, _ = invoke(capsys)
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, _ = invoke(capsys, "--help")
        assert code == 0

    def test_version(self, capsys):
        code, out = invoke(capsys, "--version")
        assert code == 0


@pytest.mark.skipif(sys.version_info >= (3, 12), reason="argparse's wording was captured under CPython 3.11")
class TestPinnedBytes:
    @pytest.mark.parametrize(
        ("argv", "code", "out", "err"), PINNED, ids=[" ".join(p[0]) or "(no argv)" for p in PINNED]
    )
    def test_exit_code_stdout_and_stderr(self, capsys, monkeypatch, argv, code, out, err):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help and usage at COLUMNS - 2
        got = run(argv)
        captured = capsys.readouterr()
        assert (got, captured.out, captured.err) == (code, out, err)


def _outcome(parser, argv):
    """The namespace a parse gives, or its exit code with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


# every option string, its prefixes, values that pass and fail each type and
# choice, and words no command takes
_TOKENS = sorted(
    {
        "--order", "--form", "--format", "--n", "--distinct", "--all", "--identity", "--oracle-max",
        "--terms", "--kind", "--t", "--index", "--out", "--o", "--or", "--f", "--fo", "--te", "--i",
        "--d", "-h", "--help", "--version", "--", "-", "-1", "-3", "0", "1", "5", "30", "1.5", "0.1",
        "x", "nan", "1e-300", "canonical", "alt1", "alt2", "csv", "json", "xml", "mex", "moex", "maex",
        "omex", "largest", "median", "sigma", "sigma-d-mex", "a-d", "distinct", "euler-identity",
        "thm-sigma-d-mex", "sigma-mex", "sigma-l", "extra", "nope", *_COMMANDS,
    }
)


class TestParserPerCommand:
    @settings(max_examples=300, deadline=None)
    @given(command=st.sampled_from(sorted(_COMMANDS)), rest=st.lists(st.sampled_from(_TOKENS), max_size=7))
    def test_one_command_parser_equals_the_full_parser(self, command, rest):
        # parse only: no handler runs, so no series or oracle work is done
        argv = [command, *rest]
        assert _outcome(_build_parser(command), argv) == _outcome(_build_parser(None), argv)

    def test_a_named_command_builds_only_its_own_parser(self, capsys):
        _build_parser.cache_clear()
        code, out = invoke(capsys, "hrr", "--n", "30", "--terms", "5")
        assert code == 0 and out.startswith("n,terms,")
        assert _build_parser.cache_info().currsize == 1
        parser = _build_parser("hrr")  # the parser run() built, from the cache
        assert _build_parser.cache_info().hits == 1
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(sub.choices) == ["hrr"]

    def test_python_m_qmex_reads_sys_argv(self, capsys):
        import qmex

        _, want = invoke(capsys, "hrr", "--n", "30", "--terms", "5")
        src = os.path.dirname(os.path.dirname(os.path.abspath(qmex.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        argv = [sys.executable, "-m", "qmex", "hrr", "--n", "30", "--terms", "5"]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, "")
