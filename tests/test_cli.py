import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levicycles import families
from levicycles.arrangement import arrangement_to_json
from levicycles.projective import MAX_CONDUCTOR, arrangement_from_lines
from levicycles.cli import EXIT_OK, EXIT_REFUTED, EXIT_UNKNOWN, EXIT_USAGE, run

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


def _lone_line_with_bool_k(doc):
    # A lone line has no points, so nothing but k is wrong.
    doc.clear()
    doc.update({"k": True, "points": []})


def _replace_with(new_doc):
    def mutate(doc):
        doc.clear()
        doc.update(new_doc)

    return mutate


# Malformed documents derived from mu4 with its rational coordinates; each
# used to end in a traceback (or, for a boolean k or line id or a large
# conductor, to be accepted).
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
    assert "requires parameter 'n'" in capsys.readouterr().err


def test_verify_guarded_claim_is_unknown(files, capsys):
    code = run(["verify", files["mu4"], "--claim", "awk-max", "--m", "8", "--k", "2"])
    assert code == EXIT_UNKNOWN


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


def test_no_arguments_is_usage_error():
    assert run([]) == EXIT_USAGE


def test_help_exits_cleanly(capsys):
    assert run(["--help"]) == EXIT_OK
    assert "levicycles" in capsys.readouterr().out
