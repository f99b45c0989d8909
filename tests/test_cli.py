import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import asdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levicycles import families
from levicycles.families import FAMILIES
from levicycles.arrangement import ArrangementError, arrangement_to_json
from levicycles.claims import NAMED_CLAIMS
from levicycles.cycles import InducedCycleWitness, exists_cycle, validate_witness
from levicycles.projective import MAX_COEFFICIENT_DIGITS, MAX_CONDUCTOR, MAX_SCALAR_CHARS, arrangement_from_lines
from levicycles.cli import CHECKERS, EXIT_BROKEN_PIPE, EXIT_OK, EXIT_REFUTED, EXIT_UNKNOWN, EXIT_USAGE, run

from conftest import cyclic_nine_three


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("arrangements")
    out = {}
    for name, arr in [
        ("cyclic_nine_three", cyclic_nine_three()),
        ("mu4", families.mu4()),
        ("generic3", families.generic(3)),
        ("ten_line", families.ten_line()),
    ]:
        path = root / f"{name}.json"
        path.write_text(arrangement_to_json(arr) + "\n", encoding="utf-8")
        out[name] = str(path)
    return out


# -- build / stats


def test_build_and_stats_text(tmp_path, capsys):
    target = str(tmp_path / "np5.json")
    assert run(["build", "near_pencil", "--k", "5", "-o", target]) == EXIT_OK
    assert capsys.readouterr().out == f"wrote {target}: k = 5, s = 5\n"
    assert run(["stats", target]) == EXIT_OK
    assert capsys.readouterr().out == (
        "k = 5\ns = 5\nt_2 = 4\nt_4 = 1\nmodular points: 0, 1, 2, 3, 4\n"
    )


def test_stats_json(tmp_path, capsys):
    target = str(tmp_path / "tm.json")
    assert run(["build", "two_modular", "--a", "5", "--b", "6", "-o", target]) == EXIT_OK
    capsys.readouterr()
    assert run(["stats", target, "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["k"] == 10
    assert doc["s"] == 22
    assert doc["t"] == {"2": 20, "5": 1, "6": 1}
    assert len(doc["modular_points"]) == 2


def test_build_with_chosen(tmp_path, capsys):
    target = str(tmp_path / "awk.json")
    code = run(["build", "a_w_k", "--m", "5", "--k", "2", "--chosen", "0,2", "-o", target])
    assert code == EXIT_OK
    assert "k = 11" in capsys.readouterr().out


def test_build_missing_parameter(tmp_path, capsys):
    code = run(["build", "generic", "-o", str(tmp_path / "g.json")])
    assert code == EXIT_USAGE
    assert "needs parameters: k" in capsys.readouterr().err


def test_build_bad_chosen(tmp_path, capsys):
    code = run(["build", "a_w_k", "--m", "5", "--k", "1", "--chosen", "1,x",
                "-o", str(tmp_path / "x.json")])
    assert code == EXIT_USAGE
    assert "comma-separated integers" in capsys.readouterr().err


def test_build_unknown_family(tmp_path, capsys):
    assert run(["build", "nope", "-o", str(tmp_path / "x.json")]) == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "generic", "--k", "100000", "-o", "{out}"],
        ["build", "two_modular", "--a", "2", "--b", "257", "-o", "{out}"],
        ["verify", "--claim", "ceva-range", "--n", "100000"],
        ["verify", "--claim", "mu3-range", "--m", "257"],
    ],
)
def test_family_parameter_above_line_limit_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "big.json"
    start = time.perf_counter()
    assert run([word.format(out=out) for word in argv]) == EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "exceeds the limit of 256" in captured.err
    assert not out.exists()


def test_build_above_line_limit_writes_nothing(tmp_path, capsys):
    # ceva(n) has 3n lines: n = 86 is the first past MAX_LINES = 256.
    out = tmp_path / "ceva86.json"
    assert run(["build", "ceva", "--n", "86", "-o", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line count 258 exceeds the limit of 256\n"
    assert not out.exists()
    out = tmp_path / "ceva85.json"
    assert run(["build", "ceva", "--n", "85", "-o", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == f"wrote {out}: k = 255, s = 7228\n"
    assert run(["stats", str(out)]) == EXIT_OK
    assert capsys.readouterr().out.startswith("k = 255\ns = 7228\n")


def test_stats_rejects_invalid_arrangement(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"k": 3, "points": [{"id": 0, "lines": [0, 2]}]}', encoding="utf-8")
    assert run(["stats", str(bad)]) == EXIT_USAGE
    assert "invalid arrangement" in capsys.readouterr().err


def _set(*path_and_value):
    *path, key, value = path_and_value

    def mutate(doc):
        for step in path:
            doc = doc[step]
        doc[key] = value

    return mutate


def _cyclotomic_scalar(text):
    # The scalar bounds hold over cyclotomic fields only.  mu4's rational
    # rows read the same over Q(e), e^3 = 1.
    def mutate(doc):
        doc["coordinates"]["field"] = {"type": "cyclotomic", "conductor": 3}
        doc["coordinates"]["lines"][0][1] = text

    return mutate


def _lone_line_with_bool_k(doc):
    # A lone line has no points, so nothing but k is wrong.
    doc.clear()
    doc.update({"k": True, "points": []})


def _replace_with(new_doc):
    def mutate(doc):
        doc.clear()
        doc.update(new_doc)

    return mutate


def _swap_rows(a, b):
    def mutate(doc):
        rows = doc["coordinates"]["lines"]
        rows[a], rows[b] = rows[b], rows[a]

    return mutate


# Malformed documents derived from mu4 with its rational coordinates; each
# used to end in a traceback (or, for a boolean k or line id, a large
# conductor or coordinates that contradict the points, to be accepted).
HOSTILE_DOCUMENTS = [
    ("point-lines-int", ["stats"], _set("points", 0, "lines", 5)),
    ("line-names-int", ["levi", "--json"], _set("line_names", 7)),
    ("bad-scalar", ["cycles", "--exists", "3"], _set("coordinates", "lines", 0, 1, "1+*x")),
    ("zero-denominator", ["stats"], _set("coordinates", "lines", 0, 1, "1/0")),
    ("zero-triple", ["verify", "--all"], _set("coordinates", "lines", 0, ["0", "0", "0"])),
    ("field-string", ["oracle-check"], _set("coordinates", "field", "q")),
    ("k-bool", ["stats"], _lone_line_with_bool_k),
    ("point-id-list", ["stats"], _set("points", 0, "id", [0])),
    ("coordinate-row-int", ["stats"], _set("coordinates", "lines", 0, 5)),
    ("scalar-int", ["stats"], _set("coordinates", "lines", 0, 1, 1)),
    ("line-id-list", ["stats"], _replace_with({"k": 2, "points": [{"id": 0, "lines": [[0], 1]}]})),
    ("line-id-bool", ["stats"], _replace_with({"k": 2, "points": [{"id": 0, "lines": [True, 0]}]})),
    ("scalar-exponent", ["stats"], _set("coordinates", "lines", 0, 0, "1e1000")),
    ("conductor-above-bound", ["stats"],
     _set("coordinates", "field", {"type": "cyclotomic", "conductor": MAX_CONDUCTOR + 1})),
    ("scalar-over-long", ["stats"], _cyclotomic_scalar("0" * (MAX_SCALAR_CHARS + 1))),
    ("coefficient-over-long", ["stats"], _cyclotomic_scalar(f"{10**MAX_COEFFICIENT_DIGITS}*e")),
    ("rows-swapped", ["stats"], _swap_rows(0, 1)),
    ("scalar-perturbed", ["cycles", "--longest"], _set("coordinates", "lines", 3, 1, "-2")),
    ("row-repeated", ["verify", "--all"], _set("coordinates", "lines", 4, ["1", "0", "0"])),
]


@pytest.mark.parametrize(
    "command, mutate", [case[1:] for case in HOSTILE_DOCUMENTS], ids=[case[0] for case in HOSTILE_DOCUMENTS]
)
def test_hostile_document_is_usage_error(tmp_path, capsys, command, mutate):
    doc = json.loads(arrangement_to_json(arrangement_from_lines(families.mu4_coordinate_lines())))
    mutate(doc)
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run([command[0], str(path), *command[1:]]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def _costly_rows(count):
    """
    ``count`` rows over Q(e), e^31 = 1, the largest degree under
    MAX_CONDUCTOR, whose every entry has thirty numerators over one
    denominator, all of MAX_COEFFICIENT_DIGITS digits: every entry has as
    many terms and digits as the limits allow.  Row j is
    (A_j, A_j - D, A_j - 2D) with A_j = A_0 - 3jD, so every row is a line
    through (1:-2:1).
    """
    top = 10**MAX_COEFFICIENT_DIGITS - 1
    rows = [
        ["+".join(f"{top - 30 * entry - i}/{top - 1}*e^{i}" for i in range(30)) for entry in range(3 * j, 3 * j + 3)]
        for j in range(count)
    ]
    assert max(len(text) for row in rows for text in row) <= MAX_SCALAR_CHARS
    return rows


def _best_of_three(argv, capsys, code):
    """The best time of up to three runs of ``argv``, each ending in ``code``, and the last output."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        assert run(argv) == code
        best = min(best, time.perf_counter() - start)
        captured = capsys.readouterr()
        if best < 2.0:
            break
    return best, captured


def test_costliest_document_within_the_scalar_limits_loads_quickly(tmp_path, capsys):
    # 256 costly rows listed as near_pencil(256).  The rows are all
    # concurrent, so they contradict the listed points and the document is
    # refused.  About 0.5 s a run on a 2-core x86-64 VM; the bound holds
    # for the best of up to three runs, which keeps a busy host's stalls
    # out of it.
    doc = json.loads(arrangement_to_json(families.near_pencil(256)))
    doc["coordinates"] = {"field": {"type": "cyclotomic", "conductor": 31}, "lines": _costly_rows(256)}
    path = tmp_path / "costly.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    best, captured = _best_of_three(["stats", str(path)], capsys, EXIT_USAGE)
    assert captured.err.startswith("error: coordinates do not realise point 0: no meet of the coordinate lines")
    assert best < 2.0


def test_costliest_realisable_document_loads_quickly(tmp_path, capsys):
    # The same rows, with the last one moved off their common point:
    # near_pencil(256), whose 255-fold point is confirmed exactly by 253
    # dot products with the rows as written.
    rows = _costly_rows(256)
    rows[-1][2] = rows[-1][1]  # (A, A - D, A - D) misses (1:-2:1)
    doc = json.loads(arrangement_to_json(families.near_pencil(256)))
    doc["coordinates"] = {"field": {"type": "cyclotomic", "conductor": 31}, "lines": rows}
    path = tmp_path / "costly.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    best, captured = _best_of_three(["stats", str(path)], capsys, EXIT_OK)
    assert captured.out.startswith("k = 256\ns = 256\nt_2 = 255\nt_255 = 1\n")
    assert best < 2.0


def test_repeated_coordinate_row_exits_without_a_traceback(tmp_path):
    doc = json.loads(arrangement_to_json(arrangement_from_lines(families.mu4_coordinate_lines())))
    doc["coordinates"]["lines"][5] = doc["coordinates"]["lines"][2]
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "levicycles.cli", "stats", str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_USAGE, "", "error: coordinates: lines 2 and 5 coincide\n")


def test_row_that_is_a_multiple_of_another_is_named(tmp_path, capsys):
    # Rows equal only up to scaling have proportional images mod p, and one
    # exact cross product shows that their lines coincide.
    doc = json.loads(arrangement_to_json(arrangement_from_lines(families.mu4_coordinate_lines())))
    rows = doc["coordinates"]["lines"]
    rows[1], rows[4] = ["1", "2", "3"], ["2", "4", "6"]
    path = tmp_path / "multiple.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["stats", str(path)]) == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: coordinates: lines 1 and 4 coincide\n")


def test_missing_file(capsys):
    assert run(["stats", "/nonexistent/thing.json"]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_non_utf8_file_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfebad")
    assert run(["stats", str(bad)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


_json_value = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 300) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_scalar = st.sampled_from(["0", "1", "-1", "2/3", "1/0", "e", "e^2", "1+e", "x"]) | _json_value
_point = st.fixed_dictionaries(
    {"id": st.integers(0, 5) | _json_value, "lines": st.lists(st.integers(0, 5) | _json_value, max_size=4)}
)
_document = st.fixed_dictionaries(
    {
        "k": st.integers(-1, 6) | _json_value,
        "points": st.lists(_point | _json_value, max_size=6) | _json_value,
    },
    optional={
        "line_names": st.lists(_json_value, max_size=6) | _json_value,
        "point_names": st.lists(_json_value, max_size=6) | _json_value,
        "coordinates": st.fixed_dictionaries(
            {
                "field": st.sampled_from([{"type": "rational"}, {"type": "cyclotomic", "conductor": 3}])
                | _json_value,
                "lines": st.lists(st.lists(_scalar, min_size=3, max_size=3) | _json_value, max_size=6)
                | _json_value,
            }
        ),
    },
)
# valid documents, whole or with one top-level key replaced
_VALID = [
    json.loads(arrangement_to_json(arr))
    for arr in (families.generic(3), families.near_pencil(4), arrangement_from_lines(families.mu4_coordinate_lines()))
]
_near_miss = st.sampled_from(_VALID) | st.builds(
    lambda doc, key, value: {**doc, key: value},
    st.sampled_from(_VALID),
    st.sampled_from(["k", "points", "line_names", "point_names", "coordinates"]),
    _json_value,
)
_FUZZ_COMMANDS = (["stats"], ["levi", "--json"], ["cycles", "--exists", "3", "--budget", "1000"])


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.binary(max_size=40) | (_document | _near_miss).map(lambda doc: json.dumps(doc).encode("utf-8")))
@example(b"[" * 100_000)
def test_fuzz_file_surface_exits_cleanly(tmp_path_factory, data):
    # Random bytes and arrangement-shaped JSON may only end in exit 0-3, and
    # a usage error always says why; any exception escaping run() fails here.
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_bytes(data)
    for command in _FUZZ_COMMANDS:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run([command[0], str(path), *command[1:]])
        assert code in (EXIT_OK, EXIT_REFUTED, EXIT_USAGE, EXIT_UNKNOWN)
        if code == EXIT_USAGE:
            assert err.getvalue().startswith("error: ")


# The witness reader has no CLI command yet, so it is fuzzed directly:
# random text, shaped documents, and valid ones with one key replaced.
_NINE_THREE = cyclic_nine_three()
_VALID_WITNESS = asdict(exists_cycle(_NINE_THREE, 9).witness)
_id_list = st.lists(st.integers(-1, 20) | _json_value, max_size=10) | _json_value
_witness_document = st.fixed_dictionaries({"lines": _id_list, "points": _id_list})
_reader_near_miss = st.builds(
    lambda key, value: {**_VALID_WITNESS, key: value},
    st.sampled_from(["lines", "points"]),
    _json_value,
)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.text(max_size=40) | (_witness_document | _reader_near_miss).map(json.dumps))
@example("[" * 100_000)
@example(json.dumps(_VALID_WITNESS))
def test_fuzz_witness_reader(text):
    # Only ArrangementError may leave the reader, a witness that loads is
    # checked by validate_witness without raising, and its canonical form
    # is either computed or refused with an ArrangementError.
    try:
        witness = InducedCycleWitness.from_json(text)
    except ArrangementError:
        return
    validate_witness(_NINE_THREE, witness)
    with contextlib.suppress(ArrangementError):
        witness.canonical()


# argv for the commands that read FILE: mostly their own flags, a foreign
# one now and then, and values drawn per flag; FILE names the files fixture.
# Every solver call runs under a budget of at most 1000 nodes, so each argv
# ends quickly whatever it asks for.
_COMMAND_FLAGS = {  # command -> (its mode flags, its other flags)
    "stats": ([], ["--format"]),
    "levi": (["--dot", "--json"], []),
    "cycles": (["--longest", "--exists", "--spectrum"], ["--witness", "--format"]),
    "verify": (["--all", "--claim"], ["--n", "--m", "--k", "--chosen", "--format", "--timing"]),
    "oracle-check": ([], []),
}
_SWITCHES = {"--dot", "--json", "--longest", "--witness", "--all", "--timing", "--threads"}
_FLAG_VALUES = {
    "--format": st.sampled_from(["text", "json", "xml"]),
    "--claim": st.sampled_from([*CHECKERS, *NAMED_CLAIMS, "bogus"]),
    "--chosen": st.sampled_from(["0,2", "1", "1,x", "5,5", ""]),
}
_INT = (st.integers(-5, 12) | st.sampled_from([257, 10**6])).map(str)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    modes, flags = _COMMAND_FLAGS[command]
    argv = [command]
    file = draw(st.sampled_from(["mu4", "cyclic_nine_three", "generic3", "ten_line", None]))
    if file is not None:
        argv.append(file)
    if command in ("cycles", "verify"):
        argv += ["--budget", str(draw(st.integers(-5, 1000)))]
    # A mode flag comes first, so that most calls get past argparse.
    first = [draw(st.sampled_from(modes))] if modes else []
    for flag in first + draw(st.lists(st.sampled_from([*modes, *flags, "--a", "--threads"]), max_size=3)):
        argv.append(flag)
        if flag not in _SWITCHES:
            argv.append(draw(_FLAG_VALUES.get(flag, _INT)))
    return argv


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_argv())
@example(["verify", "--budget", "1000", "--claim", "awk-max", "--m", "1000000", "--k", "2"])
@example(["verify", "--budget", "1000", "--claim", "ceva-range", "--n", "257"])
@example(["cycles", "mu4", "--budget", "1000", "--exists", "1000000"])
def test_fuzz_argv_exits_cleanly(files, argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run([files.get(word, word) for word in argv])
    assert code in (EXIT_OK, EXIT_REFUTED, EXIT_USAGE, EXIT_UNKNOWN)
    if code == EXIT_USAGE:
        assert "error:" in err.getvalue()


# argv for build: a family (or an unknown name), mostly its own flags, now
# and then a foreign one, with small, boundary and huge values.
_BUILD_FLAGS = ["--m", "--n", "--k", "--a", "--b", "--chosen"]
_BUILD_INT = (st.integers(2, 9) | st.integers(-3, 12) | st.sampled_from([85, 86, 257, 10**6])).map(str)


@st.composite
def _build_argv(draw):
    family = draw(st.sampled_from([*sorted(FAMILIES), "bogus"]))
    own = [f"--{p}" for p in FAMILIES.get(family, (None, ()))[1]]
    flags = [flag for flag in own if draw(st.integers(0, 9))]  # each dropped 1 time in 10
    if not draw(st.integers(0, 4)):  # a foreign flag 1 time in 5
        flags.append(draw(st.sampled_from(_BUILD_FLAGS)))
    argv = ["build", family]
    for flag in dict.fromkeys(flags):
        argv += [flag, draw(_FLAG_VALUES["--chosen"] if flag == "--chosen" else _BUILD_INT)]
    return argv


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_build_argv())
@example(["build", "ceva", "--n", "86"])
@example(["build", "a_w_k", "--m", "7", "--k", "3", "--chosen", "0,2,4"])
def test_fuzz_build_exits_cleanly_and_writes_loadable_files(tmp_path_factory, argv):
    # build exits 0 or 2; a usage error says why and writes nothing; a
    # written file loads with stats and holds what build reported.
    out = tmp_path_factory.getbasetemp() / "fuzz-build" / "out.json"
    out.parent.mkdir(exist_ok=True)
    out.unlink(missing_ok=True)
    stdout, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        code = run([*argv, "-o", str(out)])
    assert code in (EXIT_OK, EXIT_USAGE)
    if code == EXIT_USAGE:
        assert "error:" in err.getvalue()
        assert not out.exists()
        return
    stats = io.StringIO()
    with contextlib.redirect_stdout(stats), contextlib.redirect_stderr(err):
        assert run(["stats", str(out)]) == EXIT_OK
    k, s = stats.getvalue().splitlines()[:2]
    assert stdout.getvalue() == f"wrote {out}: {k}, {s}\n"


# -- levi


def test_levi_dot(files, capsys):
    assert run(["levi", files["mu4"], "--dot"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("graph levi {\n")
    assert out.endswith("}\n")
    assert '  x0 [shape=circle, part="point"];' in out
    assert "  x0 -- y0;" in out


def test_levi_json(files, capsys):
    assert run(["levi", files["cyclic_nine_three"], "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["s"] == 18 and doc["k"] == 9
    assert len(doc["edges"]) == 45


def test_levi_requires_format_flag(files, capsys):
    assert run(["levi", files["mu4"]]) == EXIT_USAGE


# -- cycles


def test_cycles_longest_text(files, capsys):
    assert run(["cycles", files["cyclic_nine_three"], "--longest"]) == EXIT_OK
    assert capsys.readouterr().out == "longest induced cycle: length 18 (9 lines)\n"


def test_cycles_longest_text_without_a_cycle(tmp_path, capsys):
    # Three lines through one point: the Levi graph is a star.
    pencil = tmp_path / "pencil.json"
    pencil.write_text('{"k": 3, "points": [{"id": 0, "lines": [0, 1, 2]}]}', encoding="utf-8")
    assert run(["cycles", str(pencil), "--longest"]) == EXIT_OK
    assert capsys.readouterr().out == "no induced cycle\n"


def test_cycles_longest_witness(files, capsys):
    assert run(["cycles", files["cyclic_nine_three"], "--longest", "--witness"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "longest induced cycle: length 18 (9 lines)"
    assert out[1].startswith("witness lines=[0, ")


def test_cycles_exists_text(files, capsys):
    assert run(["cycles", files["cyclic_nine_three"], "--exists", "8"]) == EXIT_OK
    assert capsys.readouterr().out == "length 16: absent\n"
    assert run(["cycles", files["cyclic_nine_three"], "--exists", "9"]) == EXIT_OK
    assert capsys.readouterr().out == "length 18: found\n"


def test_cycles_exists_bad_length(files, capsys):
    assert run(["cycles", files["cyclic_nine_three"], "--exists", "2"]) == EXIT_USAGE
    assert "i >= 3" in capsys.readouterr().err


def test_cycles_spectrum_text(files, capsys):
    assert run(["cycles", files["mu4"], "--spectrum", "6"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "i =  3  length   6  found\n"
        "i =  4  length   8  found\n"
        "i =  5  length  10  absent\n"
        "i =  6  length  12  absent\n"
    )


def test_cycles_longest_json(files, capsys):
    assert run(["cycles", files["cyclic_nine_three"], "--longest", "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "found"
    assert doc["length"] == 18
    assert doc["nodes"] > 0
    assert len(doc["witness"]["lines"]) == 9


def test_cycles_exists_json(files, capsys):
    assert run(["cycles", files["mu4"], "--exists", "5", "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"i": 5, "status": "absent", "nodes": doc["nodes"]}


def test_cycles_spectrum_json(files, capsys):
    assert run(["cycles", files["mu4"], "--spectrum", "4", "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"3", "4"}
    assert doc["3"]["status"] == "found"


def test_cycles_budget_exhausted(files, capsys):
    assert run(["cycles", files["cyclic_nine_three"], "--longest", "--budget", "0"]) == EXIT_UNKNOWN
    assert capsys.readouterr().out == "unknown: budget exhausted\n"
    assert run(["cycles", files["cyclic_nine_three"], "--spectrum", "4", "--budget", "0"]) == EXIT_UNKNOWN


@pytest.mark.parametrize("mode", [["--longest"], ["--exists", "9"], ["--spectrum", "4"]])
def test_cycles_negative_budget_is_usage_error(files, capsys, mode):
    assert run(["cycles", files["cyclic_nine_three"], *mode, "--budget", "-1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "budget" in captured.err


def test_verify_negative_budget_is_usage_error(files, capsys):
    code = run(["verify", files["cyclic_nine_three"], "--claim", "c6", "--budget", "-1"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("i_max", ["2", "-5"])
def test_cycles_spectrum_below_three_is_usage_error(files, capsys, i_max):
    assert run(["cycles", files["cyclic_nine_three"], "--spectrum", i_max]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "i_max >= 3" in captured.err


def test_cycles_spectrum_above_line_limit_is_usage_error(files, capsys):
    assert run(["cycles", files["mu4"], "--spectrum", "1000000"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "256" in captured.err
    assert run(["cycles", files["mu4"], "--spectrum", "256"]) == EXIT_OK
    assert capsys.readouterr().out.count("\n") == 256 - 2


def test_cycles_requires_mode(files):
    assert run(["cycles", files["mu4"]]) == EXIT_USAGE


# -- verify


def test_verify_single_checker(files, capsys):
    assert run(["verify", files["cyclic_nine_three"], "--claim", "c6"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("c6: Confirmed\n")
    assert "[+] not all lines concurrent" in out


def test_verify_all_exit_codes(files, capsys):
    assert run(["verify", files["ten_line"], "--all"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "c6: Confirmed" in out and "no-2k-supersolvable: NotApplicable" in out
    # the triangle's full-length cycle refutes the modular obstruction
    assert run(["verify", files["generic3"], "--all"]) == EXIT_REFUTED


def test_verify_named_claim_refuted(files, capsys):
    argv = ["verify", files["mu4"], "--claim", "ceva-range", "--n", "4"]
    assert run(argv) == EXIT_REFUTED
    out = capsys.readouterr().out
    assert out.startswith("ceva-range: Refuted")
    assert "no induced cycle of length 18" in out


def test_verify_named_claim_needs_no_file(capsys):
    assert run(["verify", "--claim", "hesse-longest"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("hesse-longest: Confirmed")


def test_verify_named_claim_ignores_file(capsys):
    assert run(["verify", "/dev/null", "--claim", "ceva-range", "--n", "4"]) == EXIT_REFUTED
    assert capsys.readouterr().out.startswith("ceva-range: Refuted")


def test_verify_checker_requires_file(capsys):
    assert run(["verify", "--claim", "c6"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert run(["verify", "--all"]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


def test_threads_flag_is_gone(files, capsys):
    for argv in (
        ["cycles", files["mu4"], "--exists", "3", "--threads", "2"],
        ["verify", files["mu4"], "--claim", "c6", "--threads", "2"],
        ["oracle-check", files["mu4"], "--threads", "2"],
    ):
        assert run(argv) == EXIT_USAGE
        assert "unrecognized arguments: --threads" in capsys.readouterr().err


def test_verify_named_claim_with_params(files, capsys):
    assert run(["verify", files["mu4"], "--claim", "ceva-range", "--n", "5"]) == EXIT_OK
    capsys.readouterr()
    assert run(["verify", files["mu4"], "--claim", "ceva-range"]) == EXIT_USAGE
    assert "error: claim 'ceva-range': family 'ceva' needs parameters: n" in capsys.readouterr().err


def test_verify_named_claim_refuses_flags_it_does_not_take(capsys):
    assert run(["verify", "--claim", "hesse-longest", "--n", "100000"]) == EXIT_USAGE
    assert (
        "error: claim 'hesse-longest': family 'hesse' does not take parameter 'n'"
        in capsys.readouterr().err
    )
    assert run(["verify", "--claim", "ceva-range", "--n", "5", "--k", "9"]) == EXIT_USAGE
    assert "error: claim 'ceva-range': family 'ceva' does not take parameter 'k'" in capsys.readouterr().err
    assert run(["verify", "--claim", "mu3-range", "--m", "5", "--chosen", "1"]) == EXIT_USAGE
    assert "does not take parameter 'chosen'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["{mu4}", "--all", "--m", "9", "--k", "3"],
        ["{mu4}", "--claim", "c6", "--n", "4"],
        ["{mu4}", "--claim", "c6", "--chosen", "1,2"],
        ["--all", "--a", "3"],
    ],
)
def test_verify_refuses_family_flags_without_a_named_claim(files, capsys, argv):
    assert run(["verify", *(word.format(mu4=files["mu4"]) for word in argv)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --")
    assert "family flags go with a named claim" in captured.err


def test_verify_awk_max_at_m_8_is_decided(files, capsys):
    assert run(["verify", files["mu4"], "--claim", "awk-max", "--m", "8", "--k", "2"]) == EXIT_OK
    assert run(["verify", "--claim", "awk-max", "--m", "8", "--k", "4"]) == EXIT_REFUTED


def test_verify_unknown_claim(files, capsys):
    assert run(["verify", files["mu4"], "--claim", "bogus"]) == EXIT_USAGE
    assert "unknown claim" in capsys.readouterr().err


def test_verify_json_omits_wall_time_by_default(files, capsys):
    assert run(["verify", files["mu4"], "--claim", "c6", "--format", "json"]) == EXIT_OK
    docs = json.loads(capsys.readouterr().out)
    assert len(docs) == 1
    assert "wall_time" not in docs[0]
    assert docs[0]["verdict"] == "Confirmed"


def test_verify_json_with_timing(files, capsys):
    code = run(["verify", files["mu4"], "--claim", "c6", "--format", "json", "--timing"])
    assert code == EXIT_OK
    docs = json.loads(capsys.readouterr().out)
    assert "wall_time" in docs[0]


def test_verify_text_timing_line(files, capsys):
    assert run(["verify", files["mu4"], "--claim", "c6", "--timing"]) == EXIT_OK
    assert "wall time:" in capsys.readouterr().out


def test_verify_deterministic_output(files, capsys):
    run(["verify", files["ten_line"], "--all"])
    first = capsys.readouterr().out
    run(["verify", files["ten_line"], "--all"])
    assert capsys.readouterr().out == first


# -- oracle-check


def test_oracle_check_agrees(files, capsys):
    assert run(["oracle-check", files["mu4"]]) == EXIT_OK
    assert capsys.readouterr().out == (
        "solver lengths: 6, 8\noracle lengths: 6, 8\nagree\n"
    )


def test_oracle_check_too_large(tmp_path, capsys):
    target = str(tmp_path / "big.json")
    run(["build", "ceva", "--n", "5", "-o", target])
    capsys.readouterr()
    # 15 lines + 28 points = 43 Levi vertices, past the oracle's cap
    assert run(["oracle-check", target]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


# -- golden output

# Each call, with the files fixture's names standing for their paths, maps to
# the first 16 hex digits of the sha256 of "<exit code>\n<stdout>", so a byte
# that moves in any of these outputs fails here; a change that means to move
# one updates its digest and says why.  Calls whose output names a path
# (build) or a wall time (--timing) are left out.
GOLDEN_CLI = {
    "stats mu4": "f83e8d7f26bda93b",
    "stats mu4 --format json": "66bcfbe9ed5d2775",
    "stats cyclic_nine_three": "c4af3bd1df8a8aee",
    "stats ten_line --format json": "4d4481326338877b",
    "levi mu4 --dot": "b1cb3cd8038a659c",
    "levi mu4 --json": "2c2a5c4650a1e391",
    "levi cyclic_nine_three --json": "dc3908b0e6c27a17",
    "cycles cyclic_nine_three --longest": "f42f9b461c02c799",
    "cycles cyclic_nine_three --longest --witness": "795c681fa1b7ac5a",
    "cycles cyclic_nine_three --longest --format json": "d44f3d62342ae446",
    "cycles mu4 --longest --witness": "c96f319c38726ff3",
    "cycles generic3 --longest --format json": "b301dc874ddb9f73",
    "cycles cyclic_nine_three --exists 8": "207d98fbe27c1400",
    "cycles cyclic_nine_three --exists 9 --witness": "6ea24a50ec3cb009",
    "cycles cyclic_nine_three --exists 9 --format json": "bcd1fe4ebd4fa0f5",
    "cycles mu4 --exists 5 --format json": "3aef7e19e02da193",
    "cycles mu4 --spectrum 6 --witness": "3e9da4f219a971f6",
    "cycles mu4 --spectrum 6 --format json": "e602369f793175fb",
    "cycles cyclic_nine_three --spectrum 9 --witness": "fecea15ffc0864c7",
    "cycles cyclic_nine_three --spectrum 9 --format json": "c5ac7d1c0e72d24f",
    "cycles cyclic_nine_three --longest --budget 5": "105d97da52a391f5",
    "cycles cyclic_nine_three --spectrum 9 --budget 100 --format json": "aafbda23ca252634",
    "verify ten_line --all": "e652ce37b3ba227c",
    "verify ten_line --all --format json": "3df46ec3d547c8b1",
    "verify generic3 --all": "c126bd6462d0624f",
    "verify mu4 --all --format json": "98a22ade5f6b37ae",
    "verify cyclic_nine_three --claim c6": "f4d3bdc74af1356d",
    "verify cyclic_nine_three --claim c8": "3625b23590fc9504",
    "verify cyclic_nine_three --claim c10": "84724ff341f1461b",
    "verify cyclic_nine_three --claim t3-bounds": "8cbeacc4f901074d",
    "verify cyclic_nine_three --claim t3-bounds --budget 5 --format json": "d009cdec0cbd0be0",
    "verify mu4 --claim t3-bounds": "b5feeacf29a890fc",
    "verify mu4 --claim tq-bounds": "836ad4ebd52469b1",
    "verify cyclic_nine_three --claim no-2k-supersolvable --format json": "0d947af69ba57f42",
    "verify generic3 --claim no-2k-supersolvable": "d215d3a54f7d1dc2",
    "verify --claim nine-three-longest": "a539dca77d42376f",
    "verify --claim ten-line-longest": "ddd9a64b199ba951",
    "verify --claim hesse-longest --format json": "869211ae80876ac7",
    "verify --claim mu4-longest": "28e06af1b0ee499f",
    "verify --claim ceva-range --n 4": "e0a21d71da233e7e",
    "verify --claim ceva-range --n 5 --format json": "7b25adc2ef2d4dfc",
    "verify --claim mu3-range --m 4": "4aed9e91bad52d9d",
    "verify --claim mu3-range --m 5 --format json": "68eaeca04c006ca6",
    "verify --claim awk-max --m 5 --k 1": "b63d4990fb171cee",
    "verify --claim awk-max --m 6 --k 2 --chosen 0,2": "bfb3cd3ba20b691f",
    "verify --claim awk-max --m 8 --k 2": "a7fdb7beeb26af57",
    "oracle-check mu4": "d8f11b8b3d7c2295",
    "oracle-check cyclic_nine_three": "5d3607b7593ed0ab",
    "oracle-check generic3": "e02a361483433f7d",
}


def test_cli_output_golden(files, capsys):
    digests = {}
    for call in GOLDEN_CLI:
        code = run([files.get(word, word) for word in call.split()])
        stdout = capsys.readouterr().out
        digests[call] = hashlib.sha256(f"{code}\n{stdout}".encode("utf-8")).hexdigest()[:16]
    assert digests == GOLDEN_CLI


# -- top-level behavior


def test_cli_import_loads_no_networkx_or_multiprocessing():
    code = (
        "import sys, levicycles.cli; "
        "print(sorted({'networkx', 'multiprocessing'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout
    assert out == "[]\n"


def test_module_runs_as_script():
    proc = subprocess.run(
        [sys.executable, "-m", "levicycles.cli", "verify", "--claim", "hesse-longest"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == EXIT_OK
    assert proc.stdout.startswith("hesse-longest: Confirmed")


def test_closed_stdout_exits_141_quietly():
    # The read end is closed before the command writes, as when a reader
    # such as ``head -1`` has exited: every write fails with EPIPE.
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "levicycles.cli", "verify", "--claim", "hesse-longest"],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            timeout=120,
        )
    finally:
        os.close(write)
    assert proc.returncode == EXIT_BROKEN_PIPE == 141
    assert proc.stderr == ""


def test_no_arguments_is_usage_error():
    assert run([]) == EXIT_USAGE


def test_help_exits_cleanly(capsys):
    assert run(["--help"]) == EXIT_OK
    assert "levicycles" in capsys.readouterr().out
