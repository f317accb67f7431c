"""Malformed input never ends in a traceback: every command that reads a
file gets valid GRC files, plain code files, simulate configs and catalog
CSVs, and mutations of them, and ``construct``, ``search``, ``verify-table``
and ``demo-example1`` get valid and bad values of their flags; each must
return one of the documented exit codes (0 ok, 1 usage or input error, 2
mismatch, 3 cap exceeded).
Polynomial exponents, in flags and in a config's CRC, take the huge values
too."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from grclib.cli import main
from grclib.codes import LinearCode
from grclib.codetable import hex_encode
from grclib.fields import field_create
from grclib.grc import as_blocked, from_qc_generators, grc_to_text, type1_regular, type2
from grclib.perms import Permutation
from grclib.poly import Poly, companion_matrix

GF2, GF3 = field_create(2), field_create(3)
HAMMING = LinearCode.cyclic(GF2, 7, Poly.parse(GF2, "x^3+x+1"))  # [7, 4]
SIMPLEX = LinearCode.cyclic(GF2, 7, Poly.parse(GF2, "x^4+x^3+x^2+1"))  # [7, 3]
TERNARY = LinearCode.from_rows(GF3, [[1, 0, 1, 2], [0, 1, 1, 1]])
QC = from_qc_generators(7, [Poly.parse(GF2, "x^3+x+1"), Poly.parse(GF2, "x^3+x^2+1")])

GRC_FILES = [
    grc_to_text(as_blocked(TERNARY, 2)),
    grc_to_text(type1_regular(SIMPLEX, Permutation.cyclic_shift(7), 2)),
    grc_to_text(type2(SIMPLEX, companion_matrix(Poly.parse(GF2, "x^3+x+1")), 2)),
    grc_to_text(QC),
]
CODE_FILES = [HAMMING.to_text(), SIMPLEX.to_text(2), TERNARY.to_text(2)]
# n, k, the two block generators in hex, and listed (d1, d2, ud2): the first
# row verifies, the second lists a d2 one too high
CATALOG = "no,n,k,g1_hex,g2_hex,d1,d2,ud2\n" + "".join(
    f"{no},7,4,{hex_encode(a)},{hex_encode(b)},{d1},{d2},{ud2}\n"
    for no, (a, b), (d1, d2, ud2) in (
        (1, QC.qc, (3, 4, 6)),
        (2, QC.qc, (3, 5, 6)),
    )
)

# zero, negative, huge (one of them the prime 2^61 - 1), NaN, infinite and
# non-integer values
HUGE = ["10" * 15, str(2**61 - 1)]
BAD_VALUES = ["0", "-1", "-7", "2", *HUGE, "nan", "inf", "-inf", "1.5", "x", "0x10", "-"]
# polynomials in both text forms, malformed ones, and exponents past any index
POLYS = ["x^3+x+1", "x^3+x^2+1", "x^4+x^3+x^2+1", "x^2+x+1", "x+1", "1", "0", "x^3",
         "(1,1,0,1)", "2x^2+1", "", "x^", "+"]
HUGE_POLYS = [*(f"x^{h}+1" for h in HUGE), f"x^{HUGE[0]}+x+1", f"x^{HUGE[1]}+x^{HUGE[1]}+x+1"]
UNKNOWN_LINES = ["bogus 1 2", "variant", "variant type1", "perm 0 1", "transform 1",
                 "qc-n", "qc-n 7", "qc-gen", "qc-gen x+1", "= 3", "channel", "#"]


@st.composite
def mutated(draw, text: str, sep: str | None = None, values: list[str] = BAD_VALUES) -> str:
    """``text`` after up to three line or field mutations: a field replaced
    by a bad value, a line dropped, duplicated or shortened, a field
    appended, or an unknown line inserted."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        fields = lines[i].split(sep)
        kind = draw(st.sampled_from(["field", "drop", "dup", "short", "long", "insert"]))
        if kind == "field" and fields:
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(values))
            lines[i] = (sep or " ").join(fields)
        elif kind == "drop":
            del lines[i]
        elif kind == "dup":
            lines.insert(i, lines[i])
        elif kind == "short":
            lines[i] = (sep or " ").join(fields[:-1])
        elif kind == "long":
            lines[i] = (sep or " ").join(fields + [draw(st.sampled_from(["1", "0", "x"]))])
        else:
            lines.insert(i, draw(st.sampled_from(UNKNOWN_LINES)))
    return "\n".join(lines) + "\n"


def config_text(code_path: str) -> st.SearchStrategy[str]:
    values = st.fixed_dictionaries({
        "channel": st.sampled_from(["bsc 0.1", "bsc 0.3", "awgn -2", "awgn 3"]),
        "frames": st.integers(1, 20).map(str),
        "seed": st.integers(0, 2**70).map(str),
        "max_depth": st.sampled_from(["1", "2", "5", *HUGE]),
        "scheme": st.sampled_from(["multiround", "repetition", "bsymbol", "ir"]),
        "verifier": st.sampled_from(["genie", "crc x^3+x+1", *(f"crc {f}" for f in HUGE_POLYS)]),
        "combining": st.sampled_from(["on", "off"]),
    })
    return values.map(
        lambda v: f"code = {code_path}\n" + "".join(f"{k} = {x}\n" for k, x in v.items())
    )


def _check_exit_code(args: list[str]) -> None:
    code = main(args)  # an exception escaping here fails the test
    assert code in (0, 1, 2, 3), (args, code)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_inputs_end_in_an_exit_code(tmp_path, capsys, data):
    kind = data.draw(st.sampled_from(["grc", "code", "config", "catalog"]))
    code_file, other = tmp_path / "code.txt", tmp_path / "other.txt"
    if kind == "catalog":
        other.write_text(data.draw(mutated(CATALOG, sep=",")))
        _check_exit_code(["verify-table", "--file", str(other), "--cap", "8"])
    elif kind == "config":
        code_file.write_text(data.draw(st.sampled_from(GRC_FILES + CODE_FILES)))
        # no huge frame counts: those are long runs, not malformed input
        values = [v for v in BAD_VALUES if v not in HUGE]
        other.write_text(data.draw(config_text(str(code_file)).flatmap(
            lambda t: mutated(t, values=values))))
        _check_exit_code(["simulate", "--config", str(other)])
    else:
        text = data.draw(st.sampled_from(GRC_FILES if kind == "grc" else CODE_FILES))
        code_file.write_text(data.draw(mutated(text)))
        command = data.draw(st.sampled_from(["profile", "bounds"]))
        flags = data.draw(st.sampled_from([[], ["--m", "2"], ["--m", "0"], ["--subsets"]]))
        if command == "bounds" and flags == ["--subsets"]:
            flags = []
        _check_exit_code([command, "--code", str(code_file), "--cap", "8", *flags])
    capsys.readouterr()


# a valid command line per construction, and the values each flag may take
CONSTRUCT = [
    {"--kind": "qc", "--n": "7", "--gens": "x^3+x+1;x^3+x^2+1"},
    {"--kind": "qc", "--q": "3", "--n": "4", "--gens": "x^2+1;2x^2+2"},
    {"--kind": "type1", "--cyclic-gen": "x^3+x+1", "--n": "7", "--m": "2", "--sigma": "cyclic"},
    {"--kind": "type2", "--cyclic-gen": "x^4+x^3+x^2+1", "--n": "7", "--m": "3",
     "--charpoly": "x^3+x+1"},
]
polys = st.one_of(st.sampled_from(POLYS), st.sampled_from(HUGE_POLYS))
FLAG_VALUES = {
    "--kind": st.sampled_from(["qc", "type1", "type2", "bogus"]),
    "--q": st.sampled_from(["2", "3", "4", "0", "-1", "6", "x"]),
    "--n": st.sampled_from(["7", "4", "8", "0", "-1", "x", "10000000", *HUGE]),
    "--m": st.sampled_from(["1", "2", "4", "0", "-1", "x", "1.5", "1000000000", *HUGE]),
    "--sigma": st.sampled_from(["cyclic", "extended", "2,3,4,5,6,7,1", "1,1,2", "0,1", "x",
                                f"1,{HUGE[0]}"]),
    "--gens": st.lists(polys, min_size=1, max_size=3).map(";".join),
    "--cyclic-gen": polys,
    "--charpoly": polys,
}


@st.composite
def mutated_flags(draw, lines: list[dict[str, str]], values: dict) -> list[str]:
    """One of the valid command lines ``lines`` after one to three
    mutations: a flag set to a valid or bad value from ``values`` (one of
    another line included), or dropped."""
    flags = dict(draw(st.sampled_from(lines)))
    for _ in range(draw(st.integers(1, 3))):
        flag = draw(st.sampled_from(sorted(values)))
        if draw(st.integers(0, 2)):
            flags[flag] = draw(values[flag])
        else:
            flags.pop(flag, None)
    return [x for flag, value in flags.items() for x in (flag, value)]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flags=mutated_flags(CONSTRUCT, FLAG_VALUES))
def test_malformed_construct_flags_end_in_an_exit_code(tmp_path, capsys, flags):
    _check_exit_code(["construct", *flags, "--out", str(tmp_path / "c.grc")])
    capsys.readouterr()


# ``search`` flags: a block length up to 63 and small dimensions keep every
# candidate's profile cheap; a huge --n is a long factorisation, not
# malformed input
SEARCH = {"--n": "31", "--k": "6", "--budget": "3", "--seed": "1", "--m": "2"}
SEARCH_VALUES = {
    "--n": st.sampled_from(["7", "15", "31", "63", "2", "1", "0", "-1", "x", "1.5"]),
    "--k": st.sampled_from(["1", "4", "6", "7", "9", "0", "-1", "64", "x"]),
    "--budget": st.sampled_from(["0", "1", "3", "-1", "x"]),
    "--seed": st.sampled_from(["0", "1", "-1", str(2**70), "x"]),
    "--m": st.sampled_from(["1", "2", "3", "6", "7", "0", "-1", "x"]),
    "--cap": st.sampled_from(["8", "0", "-1", "x"]),
}


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flags=mutated_flags([SEARCH], SEARCH_VALUES))
def test_malformed_search_flags_end_in_an_exit_code(capsys, flags):
    _check_exit_code(["search", *flags])
    capsys.readouterr()


# ``verify-table`` flags on the two-row CATALOG: at most two rows, so a huge
# --threads starts at most two threads
VERIFY = {"--rows": "1,2", "--cap": "8", "--threads": "1"}
VERIFY_VALUES = {
    "--rows": st.sampled_from(["1", "2", "1,2", "3", "1,,2", "x", ",", "2**70", str(2**70)]),
    "--cap": st.sampled_from(["8", "0", "-1", "x", *HUGE]),
    "--threads": st.sampled_from(["1", "2", "0", "-1", "x", "1.5", *HUGE]),
}


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flags=mutated_flags([VERIFY], VERIFY_VALUES))
def test_malformed_verify_table_flags_end_in_an_exit_code(tmp_path, capsys, flags):
    catalog = tmp_path / "catalog.csv"
    catalog.write_text(CATALOG)
    _check_exit_code(["verify-table", "--file", str(catalog), *flags])
    capsys.readouterr()


# ``demo-example1`` flags, each passed as --flag=value so that a value such
# as -inf reaches the flag's own check; --frames takes only the valid values
# 1 and 2 and bad ones, never a long run, so a huge --threads starts at most
# two threads
DEMO = {"--threads": "1", "--snr-db": "-5", "--seed": "1"}
DEMO_VALUES = {
    "--threads": st.sampled_from(["1", "2", "0", "-1", "x", *HUGE]),
    "--snr-db": st.sampled_from(["-5", "0", "3.5", "-40", "nan", "inf", "-inf", "x"]),
    "--seed": st.sampled_from(["0", "1", "-1", str(2**70), "x"]),
}


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flags=mutated_flags([DEMO], DEMO_VALUES),
       frames=st.sampled_from(["1", "2", "0", "-1", "x", "1.5", "nan"]))
def test_malformed_demo_flags_end_in_an_exit_code(capsys, flags, frames):
    pairs = [f"{flag}={value}" for flag, value in zip(flags[::2], flags[1::2])]
    _check_exit_code(["demo-example1", f"--frames={frames}", *pairs])
    capsys.readouterr()
