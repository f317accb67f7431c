import subprocess
import sys

import pytest

from grclib.cli import main
from grclib.grc import grc_to_text
from grclib import presets


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


def test_construct_type1_cyclic(tmp_path, capsys):
    out_file = tmp_path / "t1.grc"
    code, _, _ = run_cli(
        [
            "construct",
            "--kind",
            "type1",
            "--cyclic-gen",
            "x^11+x^9+x^7+x^6+x^5+x+1",
            "--n",
            "23",
            "--sigma",
            "cyclic",
            "--m",
            "4",
            "--out",
            str(out_file),
        ],
        capsys,
    )
    assert code == 0
    code2, out2, _ = run_cli(["profile", "--code", str(out_file)], capsys)
    assert "SBDH 7 11 13 15" in out2


def test_bounds_command(mixed_file, capsys):
    code, out, _ = run_cli(["bounds", "--code", mixed_file], capsys)
    assert code == 0
    assert out.startswith("bound,inputs,bound_value,actual,verdict,note")
    assert "singleton-block" in out
    assert "violated" not in out


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
