import re
import subprocess
import sys
import time

import pytest

from grclib.cli import main
from grclib.decoding import AwgnBpskHard, Bsc, SimConfig, fer_simulate
from grclib.grc import grc_from_text, grc_to_text
from grclib import cli, kernels, presets


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def mixed_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("codes") / "mixed.grc"
    path.write_text(grc_to_text(presets.golay_type2_mixed()))
    return str(path)


@pytest.fixture(scope="module")
def shift_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("codes") / "shift.grc"
    path.write_text(grc_to_text(presets.golay_type1_shift(4)))
    return str(path)


def test_profile_prints_published_values(mixed_file, capsys):
    code, out, _ = run_cli(["profile", "--code", mixed_file], capsys)
    assert code == 0
    assert "SBDH 7 12 16 19 / SHDH 7 14 24 36" in out


def test_qc_file_with_a_wrong_variant_is_refused(tmp_path, capsys):
    """A QC file's variant line must name the variant its qc-gen lines
    rebuild: the Type-II mixed code relabelled type1 is an input error."""
    text = grc_to_text(presets.golay_type2_mixed()).replace("variant type2", "variant type1")
    path = tmp_path / "relabelled.grc"
    path.write_text("".join(ln for ln in text.splitlines(True) if not ln.startswith("transform")))
    code, out, err = run_cli(["profile", "--code", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err == "error: stored variant type1 disagrees with QC reconstruction (type2)\n"


def test_profile_subset_table(shift_file, capsys):
    code, out, _ = run_cli(["profile", "--code", shift_file, "--subsets"], capsys)
    assert code == 0
    assert "SBDH 7 11 13 15" in out
    assert "1|2," in out


def test_construct_qc_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "c.grc"
    code, out, _ = run_cli(
        [
            "construct",
            "--kind",
            "qc",
            "--n",
            "23",
            "--gens",
            "x^11+x^9+x^7+x^6+x^5+x+1;(1,1,0,0,0,1,1,1,0,1,0,1)",
            "--out",
            str(out_file),
        ],
        capsys,
    )
    # both polynomial text forms are accepted
    assert code == 0
    assert out_file.exists()
    code2, out2, _ = run_cli(["profile", "--code", str(out_file)], capsys)
    assert code2 == 0


# the README's Type-I example: the Golay code under the cyclic shift, m = 4
README_TYPE1 = ["construct", "--kind", "type1", "--cyclic-gen", "x^11+x^9+x^7+x^6+x^5+x+1",
                "--n", "23", "--sigma", "cyclic", "--m", "4", "--out"]


def test_construct_type1_cyclic(tmp_path, capsys):
    out_file = tmp_path / "t1.grc"
    code, _, _ = run_cli(README_TYPE1 + [str(out_file)], capsys)
    assert code == 0
    code2, out2, _ = run_cli(["profile", "--code", str(out_file)], capsys)
    assert "SBDH 7 11 13 15" in out2


def test_construct_from_a_base_file_matches_the_cyclic_gen_build(tmp_path, capsys):
    base = tmp_path / "golay.txt"
    base.write_text(presets.binary_golay().to_text())
    from_base, from_gen = tmp_path / "base.grc", tmp_path / "gen.grc"
    flags = ["--sigma", "cyclic", "--m", "2", "--out"]
    assert run_cli(["construct", "--kind", "type1", "--base", str(base), *flags,
                    str(from_base)], capsys)[0] == 0
    # the README command up to its --sigma flag builds the base from --cyclic-gen
    assert run_cli(README_TYPE1[:-5] + flags + [str(from_gen)], capsys)[0] == 0
    assert from_base.read_bytes() == from_gen.read_bytes()


def test_construct_extended_sigma_on_the_extended_golay_base(tmp_path, capsys):
    base = tmp_path / "golay24.txt"
    base.write_text(presets.binary_golay().extend().to_text())
    out_file = tmp_path / "ext.grc"
    code, _, _ = run_cli(["construct", "--kind", "type1", "--base", str(base),
                          "--sigma", "extended", "--m", "3", "--out", str(out_file)], capsys)
    assert code == 0
    code, out, _ = run_cli(["profile", "--code", str(out_file)], capsys)
    assert code == 0
    assert out.splitlines()[1] == "SBDH 8 12 14 / SHDH 8 16 24"


def test_construct_without_out_prints_the_file(tmp_path, capsys):
    out_file = tmp_path / "t1.grc"
    assert run_cli(README_TYPE1 + [str(out_file)], capsys)[0] == 0
    code, out, err = run_cli(README_TYPE1[:-1], capsys)
    assert (code, err) == (0, "")
    assert out == out_file.read_text()


def test_type1_file_with_a_flipped_entry_is_refused(tmp_path, capsys):
    """A Type-I file without QC lines is rebuilt from its first block and
    perm lines: a flipped entry in the last block is an input error."""
    path = tmp_path / "flipped.grc"
    assert run_cli(README_TYPE1 + [str(path)], capsys)[0] == 0
    lines = path.read_text().splitlines(True)
    row = lines[1].split()
    row[-1] = str(1 - int(row[-1]))
    lines[1] = " ".join(row) + "\n"
    path.write_text("".join(lines))
    code, out, err = run_cli(["profile", "--code", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err == "error: stored generator disagrees with variant reconstruction\n"


def test_bounds_command(mixed_file, capsys):
    code, out, _ = run_cli(["bounds", "--code", mixed_file], capsys)
    assert code == 0
    assert out.startswith("bound,inputs,bound_value,actual,verdict,note")
    assert "singleton-block" in out
    assert "violated" not in out


def test_bounds_of_a_type1_file_check_the_kappa_bound(tmp_path, capsys):
    """A Type-I file keeps no generator polynomial, yet its base's is read
    off the rows: the file gets the kappa row the Python-built code gets."""
    out_file = tmp_path / "shift.grc"
    assert run_cli(README_TYPE1 + [str(out_file)], capsys)[0] == 0
    code, out, _ = run_cli(["bounds", "--code", str(out_file)], capsys)
    assert code == 0
    assert out.splitlines()[-1] == (
        "cyclic-kappa-lower,n=23;m=4;kappa=11;d=7,(7, 11, 13, 14),(7, 11, 13, 15),satisfied,"
    )


def test_verify_table_single_row(capsys):
    code, out, _ = run_cli(["verify-table", "--rows", "1,2,37"], capsys)
    assert code == 0
    data_rows = [ln for ln in out.splitlines() if ln and not ln.startswith(("no,", "#"))]
    assert len(data_rows) == 3
    assert all(",verified," in ln for ln in data_rows)


def test_verify_table_mismatch_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "no,n,k,g1_hex,g2_hex,d1,d2,ud2\n1,31,6,263CADD,4E1A917D,15,23,30\n"
    )
    code, out, _ = run_cli(["verify-table", "--file", str(bad)], capsys)
    assert code == 2
    assert "attempted" in out


@pytest.mark.parametrize(
    "text, named",
    [
        ("no,n,k,g1_hex,d1,d2,ud2\n1,31,6,263CADD,15,23,30\n", "g2_hex"),
        ("", "no, n, k"),
        ("no,n,k,g1_hex,g2_hex,d1,d2,ud2\n1,31,6\n", "line 2"),
    ],
    ids=["missing-column", "empty", "short-row"],
)
def test_verify_table_malformed_file_is_error(tmp_path, capsys, text, named):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    code, out, err = run_cli(["verify-table", "--file", str(bad)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and named in err


def test_simulate_requires_seed(tmp_path, mixed_file, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(f"code = {mixed_file}\nchannel = bsc 0.1\nframes = 5\nmax_depth = 2\n")
    code, _, err = run_cli(["simulate", "--config", str(cfg)], capsys)
    assert code == 1
    assert "seed" in err


def test_simulate_zero_frames_is_usage_error(tmp_path, mixed_file, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        f"code = {mixed_file}\nchannel = bsc 0.1\nframes = 0\nseed = 1\nmax_depth = 2\n"
    )
    code, _, err = run_cli(["simulate", "--config", str(cfg)], capsys)
    assert code == 1


def test_simulate_writes_csv(tmp_path, mixed_file, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        f"code = {mixed_file}\nchannel = awgn -5\nframes = 30\nseed = 7\n"
        "max_depth = 2\ncode_id = mixed\n"
    )
    out_file = tmp_path / "fer.csv"
    code, out, _ = run_cli(
        ["simulate", "--config", str(cfg), "--out", str(out_file)], capsys
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == (
        "code_id,channel,snr_db_or_p,depth,frames,frame_errors,fer,false_accepts,seed"
    )
    assert len(lines) == 3
    assert lines[1].startswith("mixed,awgn-bpsk-hard,-5.0,1,30,")


def test_simulate_byte_identical_with_same_seed(tmp_path, mixed_file, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        f"code = {mixed_file}\nchannel = bsc 0.2\nframes = 25\nseed = 42\nmax_depth = 3\n"
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(a)], capsys)[0] == 0
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_with_crc_verifier(tmp_path, mixed_file, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        f"code = {mixed_file}\nchannel = bsc 0.3\nframes = 40\nseed = 6\n"
        "max_depth = 2\nverifier = crc x^3+x+1\n"
    )
    code, out, _ = run_cli(["simulate", "--config", str(cfg)], capsys)
    assert code == 0
    # false-accept column is populated (possibly zero, but parseable)
    for line in out.splitlines()[1:]:
        assert line.split(",")[7].isdigit()


@pytest.mark.parametrize(
    "line, prefix",
    [
        ("verifier = crc", "usage error:"),  # no polynomial
        ("verifier = crc 0", "error:"),  # the zero polynomial divides nothing
        ("combining = maybe", "usage error:"),
        # a later line overrides the config's channel
        ("channel = foo 1", "usage error: unknown channel kind 'foo'"),
        ("channel = bsc", "usage error: channel must be 'bsc P' or 'awgn SNR_DB'"),
    ],
)
def test_simulate_rejects_bad_config_values(tmp_path, shift_file, capsys, line, prefix):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        f"code = {shift_file}\nchannel = bsc 0.1\nframes = 5\nseed = 1\nmax_depth = 4\n{line}\n"
    )
    code, out, err = run_cli(["simulate", "--config", str(cfg)], capsys)
    assert code == 1 and out == ""
    assert err.startswith(prefix)


@pytest.mark.parametrize(
    "seed, extra, flags, message",
    [
        ("-1", "", [], "seed"),
        ("1", "scheme = bogus", [], "scheme"),
        ("1", "", ["--threads", "0"], "threads"),
        ("1", "", ["--threads", "-3"], "threads"),
    ],
)
def test_simulate_rejects_bad_sim_config(tmp_path, shift_file, capsys, monkeypatch,
                                         seed, extra, flags, message):
    def no_table(*args, **kwargs):
        raise AssertionError("a codeword table was built for a rejected config")

    monkeypatch.setattr(kernels, "build_table", no_table)
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        f"code = {shift_file}\nchannel = bsc 0.1\nframes = 5\nseed = {seed}\nmax_depth = 4\n"
        f"{extra}\n"
    )
    code, out, err = run_cli(["simulate", "--config", str(cfg), *flags], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and message in err


def test_simulate_combining_off(tmp_path, shift_file, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        f"code = {shift_file}\nchannel = bsc 0.2\nframes = 30\nseed = 4\nmax_depth = 4\n"
        "combining = off\ncode_id = shift\n"
    )
    code, out, _ = run_cli(["simulate", "--config", str(cfg)], capsys)
    assert code == 0
    want = fer_simulate(
        SimConfig(presets.golay_type1_shift(4), Bsc(0.2), frames=30, seed=4, max_depth=4,
                  combining=False, code_id="shift")
    )
    assert out.splitlines()[1:] == want.csv_rows()


def test_search_command(capsys):
    code, out, _ = run_cli(
        ["search", "--n", "31", "--k", "6", "--budget", "8", "--seed", "3"], capsys
    )
    assert code == 0
    assert out.startswith("n,k,g_hex,cofactor_hexes,sbdh,shdh")


def test_search_missing_seed_is_usage(capsys):
    code, _, _ = run_cli(["search", "--n", "31", "--k", "6", "--budget", "8"], capsys)
    assert code == 1


def test_unknown_command_is_usage(capsys):
    assert run_cli(["frobnicate"], capsys)[0] == 1


def test_missing_file_is_error(capsys):
    code, _, err = run_cli(["profile", "--code", "/nonexistent/x.grc"], capsys)
    assert code == 1


def test_empty_code_file_is_error(tmp_path, capsys):
    empty = tmp_path / "empty.grc"
    empty.write_text("")
    code, _, err = run_cli(["profile", "--code", str(empty)], capsys)
    assert code == 1
    assert err.startswith("error:") and "header" in err


ROWS = "1 0 0 1\n0 0 1 0\n"


@pytest.mark.parametrize(
    "text, flags, prefix, message",
    [
        # a GRC file and a plain code file whose header says m = 0
        ("2 4 2 0\n" + ROWS + "variant none\n", [], "error:", "block count m must be >= 1"),
        ("2 4 2 0\n" + ROWS, [], "error:", "block count m must be >= 1"),
        # --m 0 is rejected, not read as "no --m"
        ("2 4 2 2\n" + ROWS, ["--m", "0"], "usage error:", "--m must be >= 1"),
        ("2 4 2\n" + ROWS, ["--m", "0"], "usage error:", "--m must be >= 1"),
        # variants other than type1|type2|none
        ("2 4 2 2\n" + ROWS + "variant bogus\n", [], "error:", "unknown variant 'bogus'"),
        ("2 4 2 2\n" + ROWS + "variant perm 9 9\n", [], "error:", "unknown variant 'perm'"),
        # QC lines without their block length or polynomial, or with a block
        # length the header disagrees with
        ("2 4 1 2\n1 0 1 0\nvariant none\nqc-n\n", [], "error:", "qc-n N"),
        ("2 4 1 2\n1 0 1 0\nvariant none\nqc-n 2\nqc-gen\n", [], "error:", "qc-gen POLY"),
        ("2 4 1 2\n1 0 1 0\nvariant none\nqc-n 99999999999999999999\nqc-gen 1\n", [],
         "error:", "disagrees with the header"),
        # finding the characteristic of 2^61 - 1 by trial division would not end
        (f"{2**61 - 1} 2 1 1\n1 0\n", [], "error:", "field order"),
    ],
    ids=["grc-m0", "plain-m0", "flag-m0-header-m", "flag-m0-no-header-m", "variant-bogus",
         "variant-perm", "qc-n-bare", "qc-gen-bare", "qc-n-huge", "huge-prime-order"],
)
def test_malformed_code_files_exit_1(tmp_path, capsys, text, flags, prefix, message):
    path = tmp_path / "f.grc"
    path.write_text(text)
    code, _, err = run_cli(["profile", "--code", str(path), *flags], capsys)
    assert code == 1
    assert err.startswith(prefix) and message in err


def test_grc_file_is_told_by_the_line_after_the_rows(tmp_path, capsys):
    # "variant" elsewhere in a plain code file does not make it a GRC file
    path = tmp_path / "plain.txt"
    path.write_text("2 4 2 2\n" + ROWS + "no variant line here\n")
    code, out, _ = run_cli(["profile", "--code", str(path)], capsys)
    assert code == 0
    assert "blocked" in out and "SBDH 1 1 / SHDH 1 1" in out
    # the --m flag still overrides the header's m of a plain code file
    code, out, _ = run_cli(["profile", "--code", str(path), "--m", "1"], capsys)
    assert code == 0 and "GrcCode[(4,1),2]" in out


def test_construct_rejects_non_prime_power(capsys):
    code, _, err = run_cli(
        ["construct", "--kind", "qc", "--q", "6", "--n", "7", "--gens", "x+1"], capsys
    )
    assert code == 1
    assert "not a prime power" in err


def test_cap_exceeded_exit_code(mixed_file, capsys):
    code, _, err = run_cli(["profile", "--code", mixed_file, "--cap", "4"], capsys)
    assert code == 3
    assert "cap" in err


def test_verify_table_schema(capsys):
    _, out, _ = run_cli(["verify-table", "--rows", "1"], capsys)
    assert out.splitlines()[0] == (
        "no,n,k,status,d1_listed,d1_computed,d2_listed,d2_computed,"
        "ud2_listed,ud2_computed,pads,note,elapsed_s"
    )


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "grclib.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "demo-example1" in proc.stdout


def test_nan_snr_is_rejected(tmp_path, mixed_file, capsys):
    code, out, err = run_cli(["demo-example1", "--snr-db", "nan", "--frames", "1"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "NaN" in err
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(f"code = {mixed_file}\nchannel = awgn nan\nframes = 5\nseed = 1\nmax_depth = 2\n")
    code, out, err = run_cli(["simulate", "--config", str(cfg)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "NaN" in err


def test_infinite_snr_keeps_its_crossover():
    assert AwgnBpskHard(float("inf")).crossover == 0.0
    assert AwgnBpskHard(float("-inf")).crossover == 0.5


def test_repetition_scheme_needs_a_type1_code(tmp_path, mixed_file, capsys):
    # the scheme's Chase candidates undo Type-I permutations; a Type-II code has none
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        f"code = {mixed_file}\nchannel = bsc 0.1\nframes = 5\nseed = 1\nmax_depth = 2\n"
        "scheme = repetition\n"
    )
    code, out, err = run_cli(["simulate", "--config", str(cfg)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Type-I" in err


def test_verify_table_huge_n_is_undecodable(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "no,n,k,g1_hex,g2_hex,d1,d2,ud2\n1,99999999999999999999,4,D,B,3,4,6\n"
    )
    code, out, _ = run_cli(["verify-table", "--file", str(bad)], capsys)
    assert code == 2
    assert ",undecodable," in out and "no interpretation matches the listed dimension" in out


@pytest.fixture(scope="module")
def gf7_file(tmp_path_factory):
    """A plain GF(7) [24, 20] code, one block: 7^20 codewords, about 2^56."""
    rows = [[int(i == j) for j in range(20)] + [(i + j) % 7 for j in range(4)] for i in range(20)]
    path = tmp_path_factory.mktemp("codes") / "gf7.code"
    path.write_text("7 24 20 1\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
    return str(path)


def test_qary_code_above_cap_exit_code(tmp_path, gf7_file, capsys):
    # the cap bounds log2 of the codeword count, not the dimension
    code, out, err = run_cli(["profile", "--code", gf7_file], capsys)
    assert code == 3 and out == ""
    assert err.startswith("cap exceeded:")
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(f"code = {gf7_file}\nchannel = bsc 0.1\nframes = 5\nseed = 1\nmax_depth = 1\n")
    code, out, err = run_cli(["simulate", "--config", str(cfg)], capsys)
    assert code == 3 and out == ""
    assert err.startswith("cap exceeded:")


@pytest.mark.parametrize(
    "args, message",
    [
        (["verify-table", "--rows", "1", "--threads", "-3"], "threads"),
        (["demo-example1", "--frames", "0"], "frames"),
        (["demo-example1", "--threads", "0"], "threads"),
    ],
)
def test_counts_below_one_fail_before_output(capsys, args, message):
    code, out, err = run_cli(args, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and message in err


def test_oversized_polynomials_are_errors(tmp_path, shift_file, capsys):
    # 10^15 coefficients cannot be allocated on any host, so this fails at once
    huge = "x^1000000000000000+1"
    for args in (
        ["construct", "--kind", "type1", "--cyclic-gen", huge, "--n", "7", "--m", "2",
         "--sigma", "cyclic"],
        ["construct", "--kind", "qc", "--n", "1000000000000000", "--gens", "x+1"],
    ):
        code, out, err = run_cli(args, capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "too large" in err
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        f"code = {shift_file}\nchannel = bsc 0.1\nframes = 5\nseed = 1\nmax_depth = 4\n"
        f"verifier = crc {huge}\n"
    )
    code, out, err = run_cli(["simulate", "--config", str(cfg)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "too large" in err


def test_construct_refuses_a_huge_generator_before_building(capsys, monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("a structure of the refused size was built")

    monkeypatch.setattr(cli, "type1_regular", build)
    monkeypatch.setattr(cli, "from_qc_generators", build)
    monkeypatch.setattr(cli.Poly, "xn_minus_1", build)
    type1 = ["construct", "--kind", "type1", "--cyclic-gen", "x^3+x+1", "--sigma", "cyclic"]
    for args in (
        type1 + ["--n", "7", "--m", "1000000000"],
        type1 + ["--n", "10000000", "--m", "2"],
        ["construct", "--kind", "qc", "--n", "10000000", "--gens", "x^3+x+1;x+1"],
    ):
        code, out, err = run_cli(args, capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "generator too large" in err


# exponent 10^30: no coefficient list of that length fits an index
HUGE_EXPONENT = "x^1000000000000000000000000000000+1"
TYPE2_GOLAY = ["construct", "--kind", "type2", "--cyclic-gen", presets.GOLAY_GEN, "--n", "23",
               "--m", "2", "--charpoly"]


@pytest.mark.parametrize("flag", ["cyclic-gen", "charpoly", "crc"])
def test_polynomial_exponents_beyond_an_index_are_errors(tmp_path, shift_file, capsys, flag):
    # the degree is read off the terms and checked against its bound (below
    # n, equal to k, below k) before any coefficient list is built
    if flag == "crc":
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            f"code = {shift_file}\nchannel = bsc 0.1\nframes = 5\nseed = 1\nmax_depth = 4\n"
            f"verifier = crc {HUGE_EXPONENT}\n"
        )
        args = ["simulate", "--config", str(cfg)]
    elif flag == "charpoly":
        args = TYPE2_GOLAY + [HUGE_EXPONENT]
    else:
        args = ["construct", "--kind", "type1", "--cyclic-gen", HUGE_EXPONENT, "--n", "7",
                "--m", "2", "--sigma", "cyclic"]
    code, out, err = run_cli(args, capsys)
    assert code == 1 and out == ""
    assert err.startswith(("error:", "usage error:")) and "degree" in err


def test_charpoly_of_wrong_degree_builds_no_companion_matrix(capsys, monkeypatch):
    def no_matrix(f):
        raise AssertionError("a companion matrix was built for a charpoly of the wrong degree")

    monkeypatch.setattr(cli, "companion_matrix", no_matrix)
    for charpoly in ("x^3+x+1", "x^4000+x+1", HUGE_EXPONENT):
        code, out, err = run_cli(TYPE2_GOLAY + [charpoly], capsys)
        assert code == 1 and out == ""
        assert err.startswith(("error:", "usage error:")) and "degree" in err


def test_qc_generator_exponents_are_reduced_mod_n(tmp_path, capsys):
    # x^20000000 = x^6 mod x^7 - 1: parsed term by term, never as a dense
    # list of 2 * 10^7 coefficients
    outputs = []
    for gens in ("x^6+1", "x^20000000+1"):
        out_file = tmp_path / "c.grc"
        t0 = time.perf_counter()
        code, out, err = run_cli(
            ["construct", "--kind", "qc", "--n", "7", "--gens", gens, "--out", str(out_file)],
            capsys,
        )
        assert time.perf_counter() - t0 < 1.0
        assert code == 0, err
        outputs.append((out, out_file.read_text()))
    assert outputs[0] == outputs[1]
    # a GRC file's qc-gen lines are read the same way
    text = outputs[0][1].replace("qc-gen (1,0,0,0,0,0,1)", "qc-gen x^20000000+1")
    assert text != outputs[0][1]
    assert grc_from_text(text) == grc_from_text(outputs[0][1])


# ``grc demo-example1 --frames 20 --seed 3``, FER timings stripped
DEMO_OUTPUT = """\
== constructions ==
type1 shift GrcCode[(23,4),12]_2:type1: SBDH 7 11 13 15 / SHDH 7 14 21 28
type2 mixed GrcCode[(23,4),12]_2:type2: SBDH 7 12 16 19 / SHDH 7 14 24 36
classical repetition GrcCode[(23,4),12]_2:type1: full Hamming distance 28
b-symbol view: 4-symbol distance 15
ir-linear comparator: [92,12,36] (the type2 code under prefix decoding)
== bounds ==
bound,inputs,bound_value,actual,verdict,note
singleton-block,n=23;r=1;k=12,12,7,satisfied,neither
griesmer-block,q=2;n=23;r=1;k=12;d_r=7,22,23,satisfied,
singleton-block,n=23;r=2;k=12,18,11,satisfied,neither
griesmer-block,q=2;n=23;r=2;k=12;d_r=11,51,69,satisfied,
singleton-block,n=23;r=3;k=12,20,13,satisfied,neither
griesmer-block,q=2;n=23;r=3;k=12;d_r=13,110,161,satisfied,
singleton-block,n=23;r=4;k=12,21,15,satisfied,neither
griesmer-block,q=2;n=23;r=4;k=12;d_r=15,244,345,satisfied,
type1-upper,n=23;k=12;r=1,12,7,satisfied,
type1-upper,n=23;k=12;r=2,13,11,satisfied,
type1-upper,n=23;k=12;r=3,14,13,satisfied,
type1-upper,n=23;k=12;r=4,15,15,satisfied,
cyclic-kappa-lower,n=23;m=4;kappa=11;d=7,(7, 11, 13, 14),(7, 11, 13, 15),satisfied,
singleton-block,n=23;r=1;k=12,12,7,satisfied,neither
griesmer-block,q=2;n=23;r=1;k=12;d_r=7,22,23,satisfied,
singleton-block,n=23;r=2;k=12,18,12,satisfied,neither
griesmer-block,q=2;n=23;r=2;k=12;d_r=12,54,69,satisfied,
singleton-block,n=23;r=3;k=12,20,16,satisfied,neither
griesmer-block,q=2;n=23;r=3;k=12;d_r=16,132,161,satisfied,
singleton-block,n=23;r=4;k=12,21,19,satisfied,neither
griesmer-block,q=2;n=23;r=4;k=12;d_r=19,309,345,satisfied,
type1-upper,n=23;k=12;r=1,12,7,not-applicable,
type1-upper,n=23;k=12;r=2,13,12,not-applicable,
type1-upper,n=23;k=12;r=3,14,16,not-applicable,exceeds the Type-I-only bound
type1-upper,n=23;k=12;r=4,15,19,not-applicable,exceeds the Type-I-only bound
shdh-tradeoff-upper,q=2;m=4;d_m=19;d1=7,75,36,satisfied,
qc-type2-lower,n=23;m=4;d=7,((7, 11, 13, 14), (7, 14, 21, 28)),((7, 12, 16, 19), (7, 14, 24, 36)),not-applicable,cofactor degrees not strictly increasing
== notes ==
note,golay-dimension,the binary Golay code is [23,12,7]: its degree-11 generator forces dimension 12 even where the m=11 repetition is quoted with dimension 11
note,levenshtein-count,literal channel-count formula gives 70 for (n=23, d=7, t=4); the worked value 1+C(7,3)=36 is also recorded; not reconciled
note,shdh-tradeoff-example,for (q=2, m=2, d_2=11, d_1=6) the trade-off formula gives 16; the worked example claims a maximum of 12; formula implemented as printed
note,simplex-d2,the [15,4] Simplex m=4 repetition has second sub-block distance exactly 12 (only the lower bound 12 is quoted elsewhere)
== fer comparison ==
channel: awgn -5.0 dB -> induced crossover 0.2132
type1-shift: D1=0.3000 D2=0.0500 D3=0.0500 D4=0.0000
type2-mixed: D1=0.3000 D2=0.0000 D3=0.0000 D4=0.0000
classical-repetition: D1=0.3000 D2=0.3000 D3=0.1000 D4=0.0500
bsymbol: D1=0.3000 D2=0.3000 D3=0.3000 D4=0.0000
ir-linear: D1=0.8500 D2=0.4000 D3=0.0500 D4=0.0000
code_id,channel,snr_db_or_p,depth,frames,frame_errors,fer,false_accepts,seed
type1-shift,awgn-bpsk-hard,-5.0,1,20,6,0.300000,0,3
type1-shift,awgn-bpsk-hard,-5.0,2,20,1,0.050000,0,3
type1-shift,awgn-bpsk-hard,-5.0,3,20,1,0.050000,0,3
type1-shift,awgn-bpsk-hard,-5.0,4,20,0,0.000000,0,3
type2-mixed,awgn-bpsk-hard,-5.0,1,20,6,0.300000,0,3
type2-mixed,awgn-bpsk-hard,-5.0,2,20,0,0.000000,0,3
type2-mixed,awgn-bpsk-hard,-5.0,3,20,0,0.000000,0,3
type2-mixed,awgn-bpsk-hard,-5.0,4,20,0,0.000000,0,3
classical-repetition,awgn-bpsk-hard,-5.0,1,20,6,0.300000,0,3
classical-repetition,awgn-bpsk-hard,-5.0,2,20,6,0.300000,0,3
classical-repetition,awgn-bpsk-hard,-5.0,3,20,2,0.100000,0,3
classical-repetition,awgn-bpsk-hard,-5.0,4,20,1,0.050000,0,3
bsymbol,awgn-bpsk-hard,-5.0,1,20,6,0.300000,0,3
bsymbol,awgn-bpsk-hard,-5.0,2,20,6,0.300000,0,3
bsymbol,awgn-bpsk-hard,-5.0,3,20,6,0.300000,0,3
bsymbol,awgn-bpsk-hard,-5.0,4,20,0,0.000000,0,3
ir-linear,awgn-bpsk-hard,-5.0,1,20,17,0.850000,0,3
ir-linear,awgn-bpsk-hard,-5.0,2,20,8,0.400000,0,3
ir-linear,awgn-bpsk-hard,-5.0,3,20,1,0.050000,0,3
ir-linear,awgn-bpsk-hard,-5.0,4,20,0,0.000000,0,3
"""


def test_demo_prints_constructions_bounds_notes_and_fer(capsys):
    code, out, err = run_cli(["demo-example1", "--frames", "20", "--seed", "3"], capsys)
    assert (code, err) == (0, "")
    assert re.sub(r"  \(\d+\.\ds\)$", "", out, flags=re.M) == DEMO_OUTPUT
