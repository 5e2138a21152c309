import json
import os
import time

import pytest

from galoiscensus import census, cli, families
from galoiscensus.cli import main
from galoiscensus.families import cross_validate


def test_classify_quartic_text(capsys):
    assert main(["classify", "--degree", "4", "--coeffs", "0,0,8,12"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "A4"
    assert out[1] == "disc = 331776"
    assert out[2] == "I = 144, J = -1728"


def test_classify_json(capsys):
    assert main(["classify", "--degree", "3", "--coeffs", "1,-2,-1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["class"] == "A3" and payload["disc"] == 49
    assert payload["I"] == 7 and payload["J"] == -7


def test_classify_wrong_arity_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--degree", "4", "--coeffs", "1,2"])
    assert exc.value.code == 2


def test_classify_non_integer_coeffs(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--degree", "3", "--coeffs", "1,x,3"])
    assert exc.value.code == 2


def test_classify_rejects_coefficients_past_the_contract(monkeypatch, capsys):
    # d = 5.005e19 is 0 mod 5 * 7 * 11 * 13, so every root filter passes and
    # the divisor scan of d would trial-divide up to 7e9; it must never start
    def no_classify(f):
        raise AssertionError(f"classified {f}")

    monkeypatch.setattr(cli, "classify_quartic", no_classify)
    monkeypatch.setattr(cli, "classify_cubic", no_classify)
    for argv in (["--degree", "4", "--coeffs", "0,0,0,50050000000000000000"],
                 ["--degree", "3", "--coeffs=-1000001,0,0"]):
        with pytest.raises(SystemExit) as exc:
            main(["classify", *argv])
        assert exc.value.code == 2, argv
        assert "|coefficient| <= 10^6" in capsys.readouterr().err


def test_classify_at_the_contract_bound(capsys):
    assert main(["classify", "--degree", "4", "--coeffs", "0,0,0,1000000"]) == 0
    assert capsys.readouterr().out.splitlines() == ["V4", "disc = 256000000000000000000", "I = 12000000, J = 0"]
    assert main(["classify", "--degree", "3", "--coeffs=-1000000,0,1000000", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["coeffs"] == [-1000000, 0, 1000000]


def test_classify_takes_a_negative_first_coefficient_as_a_separate_value(capsys):
    argv = ["classify", "--degree", "3", "--coeffs", "-1000000,0,1000000", "--format", "json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["coeffs"] == [-1000000, 0, 1000000]
    assert main(["classify", "--degree", "4", "--coeffs", "-1,0,0,1"]) == 0
    separate = capsys.readouterr().out
    for argv in (["--coeffs=-1,0,0,1"], ["--coef", "-1,0,0,1"]):
        assert main(["classify", "--degree", "4", *argv]) == 0
        assert capsys.readouterr().out == separate, argv


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["census", "--degree", "3", "--height", "2", "--frobnicate"])
    assert exc.value.code == 2


def test_census_json(capsys):
    assert main(["census", "--degree", "3", "--height", "1", "--threads", "1"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["counts"] == {"reducible": 15, "S3": 12, "A3": 0}
    assert payload["total"] == 27
    # data stream is machine-clean; progress went to stderr
    assert captured.out.strip().startswith("{")


def test_census_progress_goes_to_stderr(capsys):
    assert main(["census", "--degree", "4", "--height", "2", "--threads", "1"]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 1
    assert json.loads(captured.out)["total"] == 5**4
    assert "census: 3/3 stripes, " in captured.err
    assert "stripes/s, ETA 0 s" in captured.err


def test_progress_rate_excludes_resumed_stripes(monkeypatch, capsys):
    clock = iter([100.0, 102.0, 102.5, 104.0])
    monkeypatch.setattr(cli.time, "monotonic", lambda: next(clock))
    progress = cli._progress_printer("census")
    progress(31, 61)  # 30 stripes came from the journal; the clock starts here
    progress(32, 61)
    progress(33, 61)  # within a second of the last line: not printed
    progress(34, 61)
    assert capsys.readouterr().err.splitlines() == [
        "census: 31/61 stripes",
        "census: 32/61 stripes, 0.50 stripes/s, ETA 58 s",
        "census: 34/61 stripes, 0.75 stripes/s, ETA 36 s",
    ]


def test_progress_rate_excludes_table_build(monkeypatch, capsys):
    # the clock starts at the first stripe, after the table is built
    build = census.build_irreducible_table

    def slow_build(degree, height):
        time.sleep(1.5)
        return build(degree, height)

    monkeypatch.setattr(census, "build_irreducible_table", slow_build)
    argv = ["census", "--degree", "3", "--height", "3", "--strategy", "table", "--threads", "1"]
    assert main(argv) == 0
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == "census: 1/4 stripes" and lines[-1].startswith("census: 4/4 stripes, ")
    rates = [float(line.split(", ")[1].split()[0]) for line in lines[1:]]
    assert rates and min(rates) > 5  # 4 stripes / 1.5 s if the build counted

    assert main(["census", "--degree", "3", "--height", "0", "--threads", "1"]) == 0
    assert capsys.readouterr().err.splitlines() == ["census: 1/1 stripes"]


def test_census_csv_to_file(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main(
        ["census", "--degree", "3", "--height", "1", "--threads", "1",
         "--format", "csv", "--out", str(out)]
    )
    assert code == 0
    assert out.read_text().splitlines()[0] == "class,count"


def test_census_csv_stdout_matches_out_file(tmp_path, capsysbinary):
    argv = ["census", "--degree", "3", "--height", "1", "--threads", "1", "--format", "csv"]
    out = tmp_path / "report.csv"
    assert main(argv + ["--out", str(out)]) == 0
    capsysbinary.readouterr()
    assert main(argv) == 0
    stdout = capsysbinary.readouterr().out
    assert stdout == out.read_bytes()
    assert stdout.endswith(b"A3,0\n")


def test_census_height_cap_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["census", "--degree", "4", "--height", "9999", "--threads", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "--degree", "3", "--height", "2", "--threads", "1", "--journal", "{dir}"],
        ["census", "--degree", "3", "--height", "2", "--threads", "1", "--out", "{dir}/missing/x.json"],
        ["family", "--name", "a3", "--height", "2", "--out", "{dir}/missing/x"],
        ["verify-identities", "--suite", "star", "--window", "1", "--out", "{dir}/missing/x"],
    ],
)
def test_unwritable_journal_or_out_is_usage_error_before_any_work(argv, tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("the work started")

    for name in ("run_census", "run_suites", "gen_a3_family"):
        monkeypatch.setattr(cli, name, no_work)
    argv = [arg.format(dir=tmp_path) for arg in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"cannot write {argv[-1]}" in capsys.readouterr().err


def test_out_write_error_is_usage_error(monkeypatch, capsys):
    # an error while writing the report, after the probe opened the path,
    # is a usage error too
    def full(path, *args, **kwargs):
        raise OSError(28, "No space left on device", path)

    monkeypatch.setattr(cli, "open", full, raising=False)
    with pytest.raises(SystemExit) as exc:
        with cli._output("report.json", cli.build_parser()) as write:
            write("x")
    assert exc.value.code == 2
    assert "cannot write report.json: No space left on device" in capsys.readouterr().err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_out_write_error_mid_stream_is_usage_error(monkeypatch, capsys):
    # --out opens, then a write of the member lines fails: a usage error,
    # reported once, with no summary line
    monkeypatch.setattr(families, "_CHUNK", 64)
    with pytest.raises(SystemExit) as exc:
        main(["family", "--name", "a3", "--height", "300", "--threads", "1", "--out", "/dev/full"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.count("cannot write /dev/full: No space left on device") == 1


def test_verify_identities_ok(capsys):
    assert main(["verify-identities", "--suite", "discF", "--window", "8"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"suites", "failures"}
    assert payload["failures"] == 0
    assert payload["suites"][0]["identity_name"] == "discF"


def test_verify_identities_all_small(capsys):
    assert main(["verify-identities", "--suite", "all", "--window", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [s["identity_name"] for s in payload["suites"]] == [
        "symmetry", "star", "discF", "surface",
    ]


def test_verify_identities_negative_window_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-identities", "--suite", "all", "--window", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "window must be >= 0, got -1" in captured.err
    assert captured.out == ""


def test_family_v4(capsys):
    assert main(["family", "--name", "v4-biquadratic", "--height", "60"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["mismatch_count"] == 0
    assert summary["family"] == "v4-biquadratic" and summary["height"] == 60
    member = json.loads(lines[0])
    assert member["family"] == "v4-biquadratic" and len(member["coeffs"]) == 4
    assert member["class"] == "V4"


def test_family_summary_reports_time_and_rate(monkeypatch, capsys):
    clock = iter([10.0, 12.5])
    monkeypatch.setattr(cli.time, "perf_counter", lambda: next(clock))
    assert main(["family", "--name", "a3", "--height", "5"]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["family a3: 11 members, 0 mismatches, 2.50 s, 4 members/s"]
    assert json.loads(captured.out.splitlines()[-1])["members_checked"] == 11


def test_family_threads_zero_uses_every_core(monkeypatch, capsys):
    # --threads reaches the engine as given, and the engine asks for the
    # core count only for 0 (one core here, so no pool starts)
    seen, asked = [], []

    def spy(units, workers=1, write=None):
        seen.append(workers)
        return cross_validate(units, workers, write)

    monkeypatch.setattr(cli, "cross_validate", spy)
    monkeypatch.setattr(families.os, "cpu_count", lambda: asked.append(1) or 1)
    assert main(["family", "--name", "a3", "--height", "5", "--threads", "0"]) == 0
    assert main(["family", "--name", "a3", "--height", "5", "--threads", "2"]) == 0
    assert seen == [0, 2] and asked == [1]


def test_family_negative_threads_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["family", "--name", "a3", "--height", "5", "--threads", "-1"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_family_bad_delta():
    with pytest.raises(SystemExit) as exc:
        main(["family", "--name", "d4vc", "--height", "100", "--delta", "zero"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--name", "d4vc", "--height", "-1"], "height must be >= 0, got -1"),
        (["--name", "a4", "--height", "0"], "bound must be >= 1"),
        (["--name", "a3", "--height", "-1"], "height must be >= 0, got -1"),
        (["--name", "v4-biquadratic", "--height", "-1"], "height must be >= 0, got -1"),
    ],
)
def test_family_generator_error_is_usage_error(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["family", *argv])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_param_witness(capsys):
    assert main(["param-witness", "--coeffs", "1,-2,-1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["u"] == 7 and payload["z"] == 2


def test_param_witness_takes_a_negative_first_coefficient_as_a_separate_value(capsys):
    assert main(["param-witness", "--coeffs", "-1,-2,1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cubic"] == [-1, -2, 1] and payload["disc"] == 49


def test_param_witness_rejects_s3(capsys):
    assert main(["param-witness", "--coeffs", "0,0,-2"]) == 1
    assert "error" in capsys.readouterr().err


def test_param_witness_beyond_exact_primality_is_usage_error(capsys):
    # X^3 + tX^2 + (t - 3)X - 1 is A3 with J = (2t - 3) I, so g = gcd(J, Y)
    # is I = t^2 - 3t + 9, here 4.0e24 with a cofactor past psi_13
    t = 2_000_000_000_009
    with pytest.raises(SystemExit) as exc:
        main(["param-witness", "--coeffs", f"{t},{t - 3},-1"])
    assert exc.value.code == 2
    assert "is_prime is exact only below" in capsys.readouterr().err


def test_asym_constants(capsys):
    assert main(["asym", "--n", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["c_n"] - 15.1595) < 1e-4
    assert payload["form_agreement"] < 1e-12
    assert payload["k_n"] == [3, 1]


def test_asym_with_heights(capsys):
    assert main(["asym", "--n", "3", "--heights", "10,20", "--threads", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [e["H"] for e in payload["fit"]["entries"]] == [10, 20]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--n", "3", "--heights", "5", "--threads", "-1"], "workers must be >= 0"),
        (["--n", "4", "--heights", "401"], "exceeds the int64-safe cap"),
        (["--n", "3", "--heights", "2,2"], "heights must be distinct and >= 1, got 2,2"),
        (["--n", "3", "--heights", "0"], "heights must be distinct and >= 1, got 0"),
    ],
)
def test_asym_census_error_is_usage_error(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["asym", *argv])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_asym_rejects_bad_heights_before_any_census(monkeypatch):
    def no_census(*args, **kwargs):
        raise AssertionError("a census ran")

    monkeypatch.setattr("galoiscensus.cli.run_census", no_census)
    for heights in ("2,2", "0", "3,-1", "5,4,5"):
        with pytest.raises(SystemExit) as exc:
            main(["asym", "--n", "3", "--heights", heights])
        assert exc.value.code == 2, heights


def test_census_json_roundtrip_byte_identical(capsys):
    from galoiscensus.census import report_from_json, report_to_json

    assert main(["census", "--degree", "4", "--height", "2", "--threads", "1"]) == 0
    text = capsys.readouterr().out.strip()
    assert report_to_json(report_from_json(text)) == text


def test_all_json_outputs_roundtrip_byte_identical(capsys):
    invocations = [
        ["classify", "--degree", "4", "--coeffs", "1,1,1,1", "--format", "json"],
        ["verify-identities", "--suite", "discF", "--window", "4"],
        ["family", "--name", "a3", "--height", "5"],
        ["param-witness", "--coeffs", "1,-2,-1"],
        ["asym", "--n", "3"],
    ]
    for argv in invocations:
        assert main(argv) == 0
        for line in capsys.readouterr().out.strip().splitlines():
            assert json.dumps(json.loads(line)) == line, argv


def test_census_table_strategy(capsys):
    assert main(["census", "--degree", "4", "--height", "3", "--strategy", "table"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["strategy"] == "table"
    assert payload["counts"]["D4"] == 188


def test_family_d4vc_height_past_int64_cap_is_usage_error(capsys):
    height = families._MAX_HEIGHT + 1
    with pytest.raises(SystemExit) as exc:
        main(["family", "--name", "d4vc", "--height", str(height)])
    assert exc.value.code == 2
    assert f"height {height} exceeds" in capsys.readouterr().err
