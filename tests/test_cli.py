import json

import pytest

from whsg.cli import main, tokenize
from whsg.errors import OperandError
from whsg.fixtures import rees, z2
from whsg.oracle import dumps_table, z2_table
from whsg.structure import dumps_structure, load_structure


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("whs")
    (root / "rees.whs").write_text(dumps_structure(rees()))
    (root / "z2.whs").write_text(dumps_structure(z2()))
    (root / "z2_table.json").write_text(dumps_table(z2_table()))
    import whsg.fixtures as fx

    (root / "null3.whs").write_text(dumps_structure(fx.null3()))
    (root / "free2.whs").write_text(dumps_structure(fx.free2()))
    (root / "mirror.json").write_text(json.dumps({
        "alphabet": ["a", "b"],
        "grammar": {
            "nonterminals": ["P"],
            "start": "P",
            "productions": [["P", ["a", "P", "a"]], ["P", ["b", "P", "b"]],
                            ["P", ["a", "#2", "a"]], ["P", ["b", "#2", "b"]]],
        },
    }))
    (root / "skewed.json").write_text(json.dumps({
        "alphabet": ["a", "b"],
        "grammar": {
            "nonterminals": ["P"],
            "start": "P",
            "productions": [["P", ["a", "#2", "b"]]],
        },
    }))
    return root


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"answer", "witnesses", "reason", "elapsed_ms"}
    return code, report


def test_tokenize():
    assert tokenize("bc", {"a", "b", "c"}) == ("b", "c")
    assert tokenize("x11,x22", {"x11", "x22"}) == ("x11", "x22")
    assert tokenize("x11x22", {"x11", "x22"}) == ("x11", "x22")
    with pytest.raises(OperandError):
        tokenize("bz", {"a", "b"})


def test_tokenize_rejects_an_empty_symbol():
    # an empty symbol matches at every position, so the greedy scan never
    # advanced; a structure built with check=False can still hold one
    for text in ("x", "a", "a,b"):
        with pytest.raises(OperandError, match="empty symbol"):
            tokenize(text, {"", "a"})


def test_is_monoid_report(fixture_dir, capsys):
    code, report = run(capsys, "is-monoid", fixture_dir / "rees.whs")
    assert code == 0
    assert report["answer"] == "yes"
    assert report["witnesses"]["identity"] == ["i"]


def test_word_eq_report(fixture_dir, capsys):
    code, report = run(capsys, "word-eq", fixture_dir / "null3.whs", "bc", "cb")
    assert code == 0 and report["answer"] == "true"
    code, report = run(capsys, "word-eq", fixture_dir / "null3.whs", "b", "c")
    assert code == 0 and report["answer"] == "false"


def test_is_free_report(fixture_dir, capsys):
    code, report = run(capsys, "is-free", fixture_dir / "free2.whs")
    assert code == 0 and report["answer"] == "yes"


def test_multiply_and_represent(fixture_dir, capsys):
    code, report = run(capsys, "multiply", fixture_dir / "z2.whs", "g", "g")
    assert code == 0 and report["witnesses"]["result"] == ["e"]
    code, report = run(capsys, "represent", fixture_dir / "z2.whs", "ggg")
    assert code == 0 and report["witnesses"]["result"] == ["g"]


def test_green_flag(fixture_dir, capsys):
    code, report = run(capsys, "green", fixture_dir / "rees.whs", "a", "b",
                       "--rel", "R")
    assert code == 0 and report["answer"] == "true"
    code, report = run(capsys, "green", fixture_dir / "rees.whs", "b", "c",
                       "--rel", "R")
    assert code == 0 and report["answer"] == "false"


def test_green_names_an_empty_operand(fixture_dir, capsys):
    # "," tokenizes to the empty word; green reports it as multiply does
    for cmd in ("green", "multiply"):
        code, report = run(capsys, cmd, fixture_dir / "z2.whs", ",", "g")
        assert code == 1 and report["answer"] == "error"
        assert report["reason"] == "word '<empty>' is not a representative"


def test_validate_and_normalize(fixture_dir, capsys):
    code, report = run(capsys, "validate", fixture_dir / "rees.whs",
                       "--depth", "4")
    assert code == 0 and report["answer"] == "yes"
    out = fixture_dir / "rees_norm.whs"
    code, report = run(capsys, "normalize", fixture_dir / "rees.whs",
                       "-o", out)
    assert code == 0 and report["answer"] == "yes"
    ns = load_structure(out)
    assert ns.in_reps(("e",))


def test_from_table(fixture_dir, capsys):
    out = fixture_dir / "z2_made.whs"
    code, report = run(capsys, "from-table", fixture_dir / "z2_table.json",
                       "-o", out)
    assert code == 0
    s = load_structure(out)
    assert s.alphabet == ("e", "g")


def test_defect_check(fixture_dir, capsys):
    code, report = run(capsys, "defect-check", fixture_dir / "mirror.json")
    assert code == 0 and report["answer"] == "no"
    code, report = run(capsys, "defect-check", fixture_dir / "skewed.json")
    assert code == 0 and report["answer"] == "yes"
    assert report["witnesses"]["defect"] == ["a", "#2", "b"]
    # Y derives a, a a, ... on one side: a pumping defect has a witness too
    pumping = fixture_dir / "pumping.json"
    pumping.write_text(json.dumps({
        "alphabet": ["a"],
        "grammar": {
            "nonterminals": ["O", "Y"],
            "start": "O",
            "productions": [["O", ["Y", "#2", "a"]], ["Y", ["a", "Y"]],
                            ["Y", ["a"]]],
        },
    }))
    code, report = run(capsys, "defect-check", pumping)
    assert code == 0 and report["answer"] == "yes"
    assert report["witnesses"]["defect"] == ["a", "a", "#2", "a"]


def test_input_error_exit_code(fixture_dir, capsys):
    bad = fixture_dir / "broken.whs"
    bad.write_text("{not json")
    code, report = run(capsys, "is-monoid", bad)
    assert code == 1 and report["answer"] == "error"
    code, report = run(capsys, "word-eq", fixture_dir / "null3.whs", "bz", "c")
    assert code == 1 and report["answer"] == "error"


def test_malformed_lists_are_input_errors(fixture_dir, capsys):
    # a transition with two entries and a production with one used to
    # escape the parser as bare ValueErrors
    data = json.loads(dumps_structure(z2()))
    data["reps"]["transitions"][0] = ["q0", "e"]
    bad = fixture_dir / "short_transition.whs"
    bad.write_text(json.dumps(data))
    code, report = run(capsys, "is-monoid", bad)
    assert code == 1 and report["answer"] == "error"
    data = json.loads(dumps_structure(z2()))
    data["table"]["productions"][0] = ["S"]
    bad = fixture_dir / "short_production.whs"
    bad.write_text(json.dumps(data))
    code, report = run(capsys, "is-monoid", bad)
    assert code == 1 and report["answer"] == "error"
    grammar = json.loads((fixture_dir / "mirror.json").read_text())
    grammar["grammar"]["productions"][0] = ["P"]
    bad = fixture_dir / "short_production.json"
    bad.write_text(json.dumps(grammar))
    code, report = run(capsys, "defect-check", bad)
    assert code == 1 and report["answer"] == "error"


def test_internal_error_exit_code(fixture_dir, capsys, monkeypatch):
    import whsg.basic

    def broken(_s):
        raise ValueError("kernel fault")

    monkeypatch.setattr(whsg.basic, "is_commutative", broken)
    code, report = run(capsys, "is-commutative", fixture_dir / "z2.whs")
    assert code == 3 and report["answer"] == "error"
    assert report["reason"].startswith("internal error:")
    assert "kernel fault" in report["reason"]


def test_is_clifford_on_five_generators(fixture_dir, capsys):
    # the chain semilattice min(i, j), every element a generator
    names = [f"c{i}" for i in range(5)]
    chain = fixture_dir / "chain5.json"
    chain.write_text(json.dumps({
        "elements": names,
        "table": [[names[min(i, j)] for j in range(5)] for i in range(5)],
        "generators": names,
    }))
    code, _ = run(capsys, "from-table", chain, "-o", fixture_dir / "chain5.whs")
    assert code == 0
    code, report = run(capsys, "is-clifford", fixture_dir / "chain5.whs")
    assert code == 0 and report["answer"] == "yes"
    assert len(report["witnesses"]) == 5


def test_is_clifford_takes_no_options(fixture_dir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["is-clifford", str(fixture_dir / "z2.whs"),
              "--max-alphabet-clifford", "1"])
    assert exc.value.code == 2
    streams = capsys.readouterr()
    assert streams.out == "" and "unrecognized arguments" in streams.err


def test_reports_are_deterministic(fixture_dir, capsys):
    _, first = run(capsys, "is-monoid", fixture_dir / "rees.whs")
    _, second = run(capsys, "is-monoid", fixture_dir / "rees.whs")
    first.pop("elapsed_ms")
    second.pop("elapsed_ms")
    assert first == second


def test_structure_flag_and_missing_file_are_usage_errors(fixture_dir, capsys):
    for argv in (["is-group", "--structure", str(fixture_dir / "z2.whs")],
                 ["is-group"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


def _structure_data(fixture_dir):
    return json.loads(dumps_structure(z2()))


def _table_data(fixture_dir):
    return json.loads(dumps_table(z2_table()))


def _grammar_data(fixture_dir):
    return json.loads((fixture_dir / "mirror.json").read_text())


# every list of each kind of input file, by its path in the JSON value
JSON_ARRAYS = [
    ("is-monoid", "structure", _structure_data,
     [["alphabet"], ["reps", "states"], ["reps", "initial"],
      ["reps", "accepting"], ["reps", "transitions"], ["reps", "transitions", 0],
      ["table", "nonterminals"], ["table", "productions"],
      ["table", "productions", 0], ["table", "productions", 0, 1],
      ["assignment", "e"]]),
    ("from-table", "table", _table_data,
     [["elements"], ["table"], ["table", 0], ["generators"]]),
    ("defect-check", "grammar", _grammar_data,
     [["alphabet"], ["grammar", "nonterminals"], ["grammar", "productions"],
      ["grammar", "productions", 0], ["grammar", "productions", 0, 1]]),
]


@pytest.mark.parametrize("command, kind, make, path", [
    pytest.param(command, kind, make, path,
                 id=f"{kind}:{'/'.join(map(str, path))}")
    for command, kind, make, paths in JSON_ARRAYS for path in paths])
def test_lists_must_be_json_arrays(fixture_dir, capsys, command, kind, make, path):
    # the list becomes the string of its entries, as "generators": "eg",
    # which a reader iterating it would take character by character
    data = make(fixture_dir)
    *outer, last = path
    holder = data
    for key in outer:
        holder = holder[key]
    holder[last] = "".join(map(str, holder[last]))
    bad = fixture_dir / f"{kind}_not_an_array.json"
    bad.write_text(json.dumps(data))
    code, report = run(capsys, command, bad)
    assert code == 1 and report["answer"] == "error"
    assert report["reason"].startswith(f"malformed {kind} file: ")
    assert "is not a JSON array" in report["reason"]


@pytest.mark.parametrize("rows", [[["e", "x", "y"]], [["e"], ["e"]]],
                         ids=["wide-row", "extra-row"])
def test_table_rows_must_match_the_elements(fixture_dir, capsys, rows):
    bad = fixture_dir / "bad_rows.json"
    bad.write_text(json.dumps({"elements": ["e"], "table": rows,
                               "generators": ["e"]}))
    out = fixture_dir / "bad_rows.whs"
    code, report = run(capsys, "from-table", bad, "-o", out)
    assert code == 1 and report["answer"] == "error"
    assert "elements" in report["reason"] and not out.exists()


def test_grammar_alphabet_may_not_declare_a_separator(fixture_dir, capsys):
    grammar = _grammar_data(fixture_dir)
    grammar["alphabet"].append("#2")
    bad = fixture_dir / "reserved.json"
    bad.write_text(json.dumps(grammar))
    code, report = run(capsys, "defect-check", bad)
    assert code == 1 and report["answer"] == "error"
    assert "reserved symbol '#2'" in report["reason"]


def _empty_symbol_structure(fixture_dir):
    # z2 with a letter "" that is its own representative, which tokenizing
    # "x" would match forever
    data = _structure_data(fixture_dir)
    data["alphabet"].append("")
    data["reps"]["states"].append("q3")
    data["reps"]["accepting"].append("q3")
    data["reps"]["transitions"].append(["q0", "", "q3"])
    return data


def _empty_symbol_table(fixture_dir):
    # z2's table with its identity named ""
    def name(x):
        return "" if x == "e" else x

    data = _table_data(fixture_dir)
    return {"elements": list(map(name, data["elements"])),
            "table": [list(map(name, row)) for row in data["table"]],
            "generators": list(map(name, data["generators"]))}


def _empty_symbol_grammar(fixture_dir):
    data = _grammar_data(fixture_dir)
    data["alphabet"].append("")
    return data


@pytest.mark.parametrize("make, command", [
    (_empty_symbol_structure, ["multiply", "x", "e"]),
    (_empty_symbol_structure, ["is-monoid"]),
    (_empty_symbol_table, ["from-table"]),
    (_empty_symbol_grammar, ["defect-check"])],
    ids=["structure-multiply", "structure-is-monoid", "table", "grammar"])
def test_empty_symbol_is_an_input_error(fixture_dir, capsys, make, command):
    # a symbol is a nonempty string
    bad = fixture_dir / "empty_symbol.json"
    bad.write_text(json.dumps(make(fixture_dir)))
    out = fixture_dir / "empty_symbol.whs"
    extra = ["-o", out] if command[0] == "from-table" else command[1:]
    code, report = run(capsys, command[0], bad, *extra)
    assert code == 1 and report["answer"] == "error"
    assert "empty symbol ''" in report["reason"]
    assert not out.exists()


@pytest.mark.parametrize("content", [b"\xff\xfe{}",
                                     b'{"alphabet": ' + b"[" * 100000],
                         ids=["not-utf8", "nested-too-deep"])
def test_undecodable_file_is_an_input_error(fixture_dir, capsys, content):
    bad = fixture_dir / "undecodable.whs"
    bad.write_bytes(content)
    code, report = run(capsys, "is-monoid", bad)
    assert code == 1 and report["answer"] == "error"
    assert report["reason"].startswith("cannot read structure file: ")


@pytest.mark.parametrize("command, kind", [("is-monoid", "structure"),
                                           ("from-table", "table"),
                                           ("defect-check", "grammar")])
def test_unreadable_file_names_its_kind(fixture_dir, capsys, command, kind):
    code, report = run(capsys, command, fixture_dir / "missing.json")
    assert code == 1 and report["answer"] == "error"
    assert report["reason"].startswith(f"cannot read {kind} file: ")


def test_multicharacter_symbols_tokenize_end_to_end(fixture_dir, capsys):
    from whsg.fixtures import rb22

    (fixture_dir / "rb22.whs").write_text(dumps_structure(rb22()))
    code, report = run(capsys, "word-eq", fixture_dir / "rb22.whs",
                       "x11x22x22", "x11x22")
    assert code == 0 and report["answer"] == "true"
    code, report = run(capsys, "multiply", fixture_dir / "rb22.whs",
                       "x22", "x11")
    assert code == 0 and report["witnesses"]["result"] == ["x22", "x11"]


STRUCTURE_COMMANDS = [["validate"], ["normalize"], ["multiply", "a", "a"],
                      ["represent", "a"], ["word-eq", "a", "a"],
                      ["green", "a", "a"], ["is-monoid"], ["is-group"],
                      ["is-commutative"], ["is-completely-simple"],
                      ["is-clifford"], ["is-free"]]


@pytest.mark.parametrize("command", STRUCTURE_COMMANDS, ids=lambda c: c[0])
def test_empty_alphabet_is_an_input_error(fixture_dir, capsys, command):
    # no semigroup has an empty generating set
    empty = fixture_dir / "empty_alphabet.whs"
    empty.write_text(json.dumps({
        "alphabet": [],
        "reps": {"states": ["q0"], "initial": ["q0"], "accepting": [],
                 "transitions": []},
        "table": {"nonterminals": ["S"], "start": "S", "productions": []},
    }))
    code, report = run(capsys, command[0], empty, *command[1:])
    assert code == 1 and report["answer"] == "error"
    assert "empty alphabet" in report["reason"]
