import json

import pytest
from click.testing import CliRunner

from bocskit import io as bio
from bocskit.cli import main
from bocskit.corpus import random_corpus


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    runner = CliRunner()
    target = tmp_path_factory.mktemp("fix")
    result = runner.invoke(main, ["fixtures", "--dir", str(target)])
    assert result.exit_code == 0, result.output
    return target


def test_fixtures_emit_files(fixture_dir):
    names = sorted(p.name for p in fixture_dir.iterdir())
    assert names == ["e0.json", "e1.json", "e2.json", "e3.json"]
    doc = json.loads((fixture_dir / "e1.json").read_text())
    assert doc["schema"] == "bocskit/algebra"
    assert doc["vertices"]["count"] == 1
    assert len(doc["arrows"]) == 1
    assert len(doc["relations"]) == 1


def test_classify_e0(fixture_dir):
    runner = CliRunner()
    result = runner.invoke(main, ["classify", str(fixture_dir / "e0.json")])
    assert result.exit_code == 0
    assert json.loads(result.output)["label"] == "quasi-hereditary"


def test_verify_e1(fixture_dir):
    runner = CliRunner()
    result = runner.invoke(main, ["verify", str(fixture_dir / "e1.json")])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["ok"]
    assert doc["bocs"]["bocs_class"] == "one-cyclic directed"
    assert doc["verdicts"]["morita_compare"]["verdict"] == "isomorphic"


def test_bocs_e2_delta(fixture_dir):
    runner = CliRunner()
    result = runner.invoke(main, ["bocs", str(fixture_dir / "e2.json"),
                                  "--mode", "delta"])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["schema"] == "bocskit/bocs"
    assert doc["bocs_class"] == "directed"


def test_burt_butler_roundtrip(fixture_dir, tmp_path):
    runner = CliRunner()
    bpath = tmp_path / "e2-bocs.json"
    result = runner.invoke(main, ["--out", str(bpath), "bocs",
                                  str(fixture_dir / "e2.json"),
                                  "--mode", "delta"])
    assert result.exit_code == 0
    result = runner.invoke(main, ["burt-butler", str(bpath)])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["ok"]
    assert doc["right_algebra"]["dim"] == 3


def test_text_and_json_carry_identical_verdicts(fixture_dir):
    runner = CliRunner()
    as_json = runner.invoke(main, ["verify", str(fixture_dir / "e0.json")])
    as_text = runner.invoke(main, ["--format", "text", "verify",
                                   str(fixture_dir / "e0.json")])
    assert as_json.exit_code == 0 and as_text.exit_code == 0
    doc = json.loads(as_json.output)
    verdict = doc["verdicts"]["morita_compare"]["verdict"]
    assert f'verdicts.morita_compare.verdict: "{verdict}"' in as_text.output
    assert "verdicts.standard_check.ok: true" in as_text.output


def test_out_writes_file(fixture_dir, tmp_path):
    runner = CliRunner()
    out = tmp_path / "report.json"
    result = runner.invoke(main, ["--out", str(out), "verify",
                                  str(fixture_dir / "e0.json")])
    assert result.exit_code == 0
    assert json.loads(out.read_text())["ok"]


# a two-cycle with rad^2 = 0 admits neither mode
_TWO_CYCLE = {
    "schema": "bocskit/algebra", "version": 1,
    "vertices": {"count": 2},
    "arrows": [{"name": "a", "source": 1, "target": 2},
               {"name": "b", "source": 2, "target": 1}],
    "relations": [{"terms": [{"coefficient": "1",
                              "path": ["a", "b"]}]},
                  {"terms": [{"coefficient": "1",
                              "path": ["b", "a"]}]}],
    "order": [1, 2],
}


def test_failure_gives_error_object(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_TWO_CYCLE))
    runner = CliRunner(mix_stderr=False) if hasattr(
        CliRunner, "mix_stderr") else CliRunner()
    result = runner.invoke(main, ["verify", str(path)])
    assert result.exit_code == 1
    err = json.loads(result.output.strip().splitlines()[-1])
    assert err["stage"] == "classify"
    assert "mode not admitted" in err["error"]


def test_bocs_error_after_parsing_names_construct_bocs(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_TWO_CYCLE))
    result = CliRunner().invoke(main, ["bocs", str(path)])
    assert result.exit_code == 1
    assert result.stdout == ""
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "mode not admitted",
                                    "stage": "construct_bocs"}


def test_verify_error_outside_the_stages_is_one_json_line(tmp_path):
    # corpus member 9 has a decomposable candidate module, whose
    # endomorphism algebra is not elementary
    alg, order, _ = random_corpus(20260823, count=10, max_dim=5,
                                  require_bocs=False)[9]
    path = tmp_path / "c09.json"
    path.write_text(bio.emit(bio.algebra_to_doc(alg, order)))
    result = CliRunner(catch_exceptions=False).invoke(
        main, ["verify", "--rmax", "3", str(path)])
    assert result.exit_code == 1
    assert result.stdout == "" and "Traceback" not in result.output
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert "not elementary" in err["error"]
    assert err["stage"] == "pipeline"


def test_malformed_input_rejected(fixture_dir, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema": "bocskit/algebra", ')
    runner = CliRunner()
    result = runner.invoke(main, ["classify", str(path)])
    assert result.exit_code == 1
    err = json.loads(result.output.strip().splitlines()[-1])
    assert "parse error" in err["error"]
    # a relation path entry that is a list, on e1's document
    doc = json.loads((fixture_dir / "e1.json").read_text())
    doc["relations"][0]["terms"][0]["path"] = [["x"], "x"]
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["classify", str(path)])
    assert result.exit_code == 1 and "Traceback" not in result.output
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert err == {"error": "schema violation at "
                            "/relations/0/terms/0/path/0", "stage": "input"}


def test_bad_bocs_document_fails_at_the_boundary(fixture_dir, tmp_path):
    runner = CliRunner()
    bpath = tmp_path / "e0-bocs.json"
    result = runner.invoke(main, ["--out", str(bpath), "bocs",
                                  str(fixture_dir / "e0.json"),
                                  "--rmax", "3"])
    assert result.exit_code == 0, result.output
    good = json.loads(bpath.read_text())
    base = good["base"]
    term = {"coefficient": "1", "path": [["x"], "x"]}
    for field, value, pointer in [
            ("d", [[9, 1, 1]], "/d/0"),
            ("r_max", -3, "/r_max"),
            ("eps", dict(good["eps"], data=[["1e1000000", "0"],
                                            ["0", "1"]]), "/eps/data/0/0"),
            ("base", 5, "/base"),
            ("base", dict(base, arrows=[{"name": "", "source": 1,
                                         "target": 1}]),
             "/base/arrows/0/name"),
            ("base", dict(base, relations=[{"terms": [term]}]),
             "/base/relations/0/terms/0/path/0")]:
        bpath.write_text(json.dumps(dict(good, **{field: value})))
        result = runner.invoke(main, ["burt-butler", str(bpath)])
        assert result.exit_code == 1
        lines = result.output.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": f"schema violation at {pointer}", "stage": "input"}


def test_a_document_of_the_wrong_kind_fails_at_the_boundary(fixture_dir,
                                                            tmp_path):
    runner = CliRunner()
    bpath = tmp_path / "e1-bocs.json"
    result = runner.invoke(main, ["--out", str(bpath), "bocs",
                                  str(fixture_dir / "e1.json"),
                                  "--rmax", "3"])
    assert result.exit_code == 0, result.output
    for command, path, kind in [
            ("verify", bpath, "an algebra"),
            ("burt-butler", fixture_dir / "e1.json", "a bocs")]:
        result = runner.invoke(main, [command, str(path)])
        assert result.exit_code == 1
        assert result.stdout == ""
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": f"expected {kind} document",
                                        "stage": "input"}


def test_exponent_coefficient_fails_at_the_boundary(fixture_dir, tmp_path):
    doc = json.loads((fixture_dir / "e1.json").read_text())
    doc["relations"][0]["terms"][0]["coefficient"] = "1e1000000"
    path = tmp_path / "e1-exp.json"
    path.write_text(json.dumps(doc))
    result = CliRunner().invoke(main, ["verify", str(path)])
    assert result.exit_code == 1
    lines = result.output.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "schema violation at /relations/0/terms/0/coefficient",
        "stage": "input"}


@pytest.mark.parametrize("args", [
    ["verify", "--rmax", "1", "e0.json"],
    ["bocs", "--rmax", "1", "e0.json"]])
def test_bad_parameters_are_usage_errors(fixture_dir, args):
    runner = CliRunner()
    args = [str(fixture_dir / a) if a.endswith(".json") else a for a in args]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "Invalid value" in result.output


def test_dim_bound_is_an_unknown_option(fixture_dir):
    result = CliRunner().invoke(
        main, ["--dim-bound", "4", "verify", str(fixture_dir / "e0.json")])
    assert result.exit_code == 2
    assert "No such option" in result.output

