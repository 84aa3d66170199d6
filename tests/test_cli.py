import hashlib
import json
import sys
from pathlib import Path

import pytest

from crglobal import breakable, cli, families, verify
from crglobal.cli import build_parser, main, parse_table_text, table_to_json
from crglobal.globaldet import extract_theta
from crglobal.statements import Record
from crglobal.verify import records_to_json_lines


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def table_text(s):
    lines = [str(s.order)]
    lines.extend(" ".join(str(v) for v in row) for row in s.table)
    return "\n".join(lines) + "\n"


def test_round_trip_all_corpus_members(corpus_members):
    for name, s in corpus_members:
        doc = table_to_json(name, s)
        back = parse_table_text(doc)
        assert back.table == s.table and back.labels == s.labels, name
        back_txt = parse_table_text(table_text(s))
        assert back_txt.table == s.table, name


def test_analyze_left_zero(tmp_path, capsys):
    path = write(tmp_path, "l2.txt", table_text(families.left_zero(2)))
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "completely regular: yes" in out
    assert "component 0 [left-zero]" in out


def test_analyze_trivial(tmp_path, capsys):
    path = write(tmp_path, "t.txt", "1\n0\n")
    assert main(["analyze", path]) == 0
    assert "order: 1" in capsys.readouterr().out


def test_parser_is_built_once_per_process(tmp_path, capsys):
    path = write(tmp_path, "t.txt", "1\n0\n")
    for _ in range(3):
        assert main(["analyze", path]) == 0
    assert build_parser.cache_info().misses == 1


def test_analyze_non_associative(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "2\n0 0\n1 0\n")
    assert main(["analyze", path]) == 2
    assert "(1*0)*1" in capsys.readouterr().err


def test_analyze_malformed(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "3\n0 1\n1 1\n")
    assert main(["analyze", path]) == 2


def test_analyze_rejects_trailing_rows(tmp_path, capsys):
    path = write(tmp_path, "extra.txt", table_text(families.left_zero(3)) + "9 9 9\n")
    assert main(["analyze", path]) == 2
    err = capsys.readouterr().err
    assert err == "error: expected 3 rows, found 4\n"


def test_analyze_rejects_empty_file(tmp_path, capsys):
    path = write(tmp_path, "empty.txt", "\n")
    assert main(["analyze", path]) == 2
    assert capsys.readouterr().err == "error: empty table\n"


def test_analyze_names_missing_table_key(tmp_path, capsys):
    path = write(tmp_path, "bad.json", '{"order": 1}')
    assert main(["analyze", path]) == 2
    assert capsys.readouterr().err == "error: the JSON document has no 'table' key\n"


def assert_one_line_error(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert len(captured.err.encode()) < 200, captured.err[:300]


@pytest.mark.parametrize(
    "text",
    [
        '{"table": 5}',
        '{"table": [1, 2]}',
        '{"table": null}',
        '{"table": [[0]], "labels": 5}',
        '{"order": 5, "table": [[0]]}',
        '{"table": [[0]], "order": true}',
        '{"table": [[0]], "order": 1.0}',
        '{"table": [[0]], "order": "1"}',
        '{"table": [[0, 1], [1, 0]], "labels": ["a", "a"]}',
        '{"order": 1}',
        pytest.param('{"table": ' + "[" * 200_000 + "]" * 200_000 + "}", id="deeply-nested"),
        "2 junk\n0 0\n1 1\n",
        pytest.param('{"table": [[[' + "1, " * 199_999 + "1]]]}", id="long-entry"),
        pytest.param('{"table": [[0]], "order": [' + "0, " * 99_999 + "0]}", id="long-order"),
        pytest.param(" ".join(["1"] * 100_000) + "\n0\n", id="long-first-line"),
    ],
)
def test_analyze_rejects_malformed_table_document(tmp_path, capsys, text):
    path = write(tmp_path, "bad.txt", text)
    assert main(["analyze", path]) == 2
    assert_one_line_error(capsys)


def test_breakable_cyclic_2(tmp_path, capsys):
    path = write(tmp_path, "z2.txt", table_text(families.cyclic_group(2)))
    assert main(["breakable", path]) == 0
    out = capsys.readouterr().out
    assert "pair-condition subsemigroups: 1" in out
    assert "triple-condition subsemigroups: 2" in out
    assert "MISMATCH" not in out


def test_breakable_left_zero(tmp_path, capsys):
    path = write(tmp_path, "l2.txt", table_text(families.left_zero(2)))
    assert main(["breakable", path]) == 0
    assert "pair-condition subsemigroups: 3" in capsys.readouterr().out


def test_breakable_bound(tmp_path, capsys):
    path = write(tmp_path, "l13.txt", table_text(families.left_zero(13)))
    assert main(["breakable", path]) == 2


def test_breakable_rejects_non_regular(tmp_path, capsys):
    path = write(tmp_path, "null.txt", "2\n0 0\n0 0\n")
    assert main(["breakable", path]) == 2


def test_globaliso_left_zero_pair(tmp_path, capsys):
    path = write(tmp_path, "l2.txt", table_text(families.left_zero(2)))
    eta_path = str(tmp_path / "eta.json")
    assert main(["globaliso", path, path, "--emit-eta", eta_path]) == 0
    out = capsys.readouterr().out
    assert out.count("psi ") >= 2
    raw = Path(eta_path).read_bytes()
    etas = json.loads(raw)
    assert raw == (json.dumps(etas, sort_keys=True) + "\n").encode()
    assert len(etas) == 6
    assert all(sorted(e["eta"]) == [0, 1] for e in etas)


def test_globaliso_refuses_an_unwritable_eta_path_before_the_search(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "l2.txt", table_text(families.left_zero(2)))

    def no_search(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(cli, "collect_psis", no_search)
    for eta_path in (tmp_path / "missing" / "eta.json", tmp_path):
        assert main(["globaliso", path, path, "--emit-eta", str(eta_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --emit-eta ") and "is not a file in an existing directory" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["l2.txt"]


def test_globaliso_distinct_globals(tmp_path, capsys):
    a = write(tmp_path, "z2.txt", table_text(families.cyclic_group(2)))
    b = write(tmp_path, "l2.txt", table_text(families.left_zero(2)))
    assert main(["globaliso", a, b]) == 1


def test_globaliso_trivial(tmp_path, capsys):
    path = write(tmp_path, "t.txt", "1\n0\n")
    assert main(["globaliso", path, path]) == 0


def test_globaliso_bound(tmp_path):
    path = write(tmp_path, "l6.txt", table_text(families.left_zero(6)))
    assert main(["globaliso", path, path]) == 2


def test_globaliso_refuses_above_the_power_green_bound_before_searching(tmp_path, capsys, monkeypatch):
    # the statement suite cannot check an order-9 pair, so no search starts
    def search(*args, **kwargs):
        raise AssertionError("find_isomorphisms was called")

    monkeypatch.setattr(verify, "find_isomorphisms", search)
    path = write(tmp_path, "rb33.json", table_to_json("rb33", families.rect_band(3, 3)))
    assert main(["globaliso", path, path, "--max-order", "9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: order 9 exceeds the power-Green bound 8\n"


def test_globaliso_extracts_each_component_map_once(tmp_path, capsys, named):
    # construct_eta hands its component map to the suite and to the report
    path = write(tmp_path, "lz2-over-zero.json", table_to_json("lz2-over-zero", named["lz2-over-zero"]))
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is extract_theta.__code__:
            calls.append(frame)

    sys.setprofile(profile)
    try:
        assert main(["globaliso", path, path]) == 0
    finally:
        sys.setprofile(None)
    maps = capsys.readouterr().out.count("psi ")
    assert maps > 1 and len(calls) == maps


def test_globaliso_rejects_limit_zero(tmp_path, capsys):
    path = write(tmp_path, "l2.txt", table_text(families.left_zero(2)))
    assert main(["globaliso", path, path, "--limit", "0"]) == 2
    assert_one_line_error(capsys)


def test_verify_quick_passes_and_is_deterministic(capsys):
    assert main(["verify", "--profile", "quick"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--profile", "quick"]) == 0
    second = capsys.readouterr().out
    assert first == second
    for line in first.strip().splitlines():
        rec = json.loads(line)
        assert rec["ok"] is True


def test_verify_injection_fails(capsys, planted_non_cr, verify_digests):
    assert main(["verify", "--profile", "quick"]) == 3
    out = capsys.readouterr().out
    bad = [json.loads(line) for line in out.strip().splitlines() if not json.loads(line)["ok"]]
    assert bad and all(rec["witness"] for rec in bad)
    assert hashlib.sha256(out.encode()).hexdigest() == verify_digests["injected-quick"]



def test_verify_reports_a_library_contradiction_as_falsified(capsys, monkeypatch):
    # verify reads no input but its profile, so a refusal raised inside the
    # battery is the library contradicting itself: exit 3, never exit 2
    real = breakable.is_a3_mask
    planted = []

    def is_a3_mask(s, mask):
        if s.order == 3 and mask == 0b011 and not planted:
            planted.append(mask)
            return False
        return real(s, mask)

    monkeypatch.setattr(breakable, "is_a3_mask", is_a3_mask)
    assert main(["verify", "--profile", "quick"]) == 3
    err = capsys.readouterr().err
    assert planted
    assert err.startswith("falsified: ") and "triple-product class" in err

# same-order pairs given to `globaliso`: self pairs with left zero, group and
# rectangular band components, one labelled, and one pair with no subset
# isomorphism
GLOBALISO_PAIRS = [
    ("left-zero-3", "left-zero-3"),
    ("lz2-over-zero", "point-over-lz2"),
    ("rect-band-2-2", "rect-band-2-2"),
    ("z2-over-lz2", "z2-over-lz2"),
    ("lz3-monoid", "lz3-monoid"),
    ("rb22-over-zero", "rb22-over-zero"),
]

# sha256 of the CLI's stdout, each run headed by its arguments and exit code:
# `analyze` and `breakable` over every completely regular corpus member of
# order <= 6, `globaliso` over GLOBALISO_PAIRS; a change that alters the output
# on purpose updates these digests and says so in CHANGES.md
CLI_DIGESTS = {
    "analyze": "10daa7d7007e99b9b3adc4db388a504eadee33ab37303bb09a719a8397cc09f8",
    "breakable": "8d6a8362ac5d532db7ca7facb79cd0b294a7ca3d48ccc7163cd3dc880877d906",
    "globaliso": "cf5220789202d357fb50126c482e68e6d75f0ab5573cdb1d055da16862cb60b0",
}


def test_cli_stdout_digests(tmp_path, capsys, cr6):
    paths = {}
    for name, s in cr6:
        paths[name] = write(tmp_path, f"{name}.json", table_to_json(name, s))
    runs = {
        "analyze": [[name] for name in paths],
        "breakable": [[name] for name in paths],
        "globaliso": [list(pair) for pair in GLOBALISO_PAIRS],
    }
    for command, arg_lists in runs.items():
        out = []
        for names in arg_lists:
            code = main([command] + [paths[name] for name in names])
            out.append(f"{command} {' '.join(names)} -> {code}\n{capsys.readouterr().out}")
        assert hashlib.sha256("".join(out).encode()).hexdigest() == CLI_DIGESTS[command], command


def test_corpus_export_round_trip(tmp_path, capsys):
    out_dir = str(tmp_path / "corpus")
    assert main(["corpus", "--out", out_dir, "--profile", "quick"]) == 0
    reloaded = parse_table_text(Path(out_dir, "clifford-3.json").read_text())
    assert reloaded.table == dict(families.corpus("quick"))["clifford-3"].table


def test_unreadable_path_is_operational_error(capsys):
    assert main(["analyze", "/no/such/file"]) == 2


def test_help_and_max_order(tmp_path, capsys):
    for argv in (["--help"], ["corpus", "--help"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: crglobal") and captured.err == ""
    path = write(tmp_path, "l2.txt", table_text(families.left_zero(2)))
    assert main(["breakable", path, "--max-order", "2"]) == 0
    assert main(["globaliso", path, path, "--max-order", "2"]) == 0
    l3 = write(tmp_path, "l3.txt", table_text(families.left_zero(3)))
    for argv in (["breakable", l3, "--max-order", "2"], ["globaliso", l3, l3, "--max-order", "2"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: order 3 exceeds --max-order 2\n"


def test_verify_has_no_seed(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--seed", "1"])
    assert info.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_records_serialize_as_sorted_json_of_their_fields():
    records = [
        Record("plain", "a|b#psi0", 3, True),
        Record("quoted", 'say "hi"', 0, False, 'a "quoted" witness'),
        Record("escapes", "back\\slash", 1, False, "line one\nline two\t\\"),
        Record("unicode", "ρ-partition", 2, False, "η ≠ φ ∘ ψ, naïve 🙂"),
        Record("none", "", 7, True, None),
        Record("empty", "", 0, True, ""),
        Record('check "q" \\ é', 'scope "q"\r\n\\ ∅ \U0001d4ab', 5, False, 'w "q"\\\n\x00\x1f\x7f \u2028 ψ\udcff'),
        Record("big", "x" * 300, 10**20, True, "\\" * 7 + '"' * 3),
    ]
    assert records_to_json_lines([]) == "\n"
    lines = records_to_json_lines(records)
    assert lines.endswith("\n")
    assert lines.split("\n")[:-1] == [json.dumps(vars(r), sort_keys=True) for r in records]
