"""The command line, called in-process through cli.main."""

import json

from padicover import cli

DOCSTRING_COVER = {
    "p": 5,
    "e": 1,
    "critical": [{"x": "5", "m": 3}, {"x": "0", "m": 2}, {"x": "-1", "m": 2}],
}


def test_example8_writes_the_nine_showcase_models(tmp_path, capsys):
    assert cli.main(["example8", "--out", str(tmp_path)]) == 0
    index = json.loads((tmp_path / "index.json").read_text())
    assert len(index["bundle"]) == 9
    assert json.loads(capsys.readouterr().out)["models"] == 9


def test_classify_emits_the_branch_tree(tmp_path, capsys):
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(DOCSTRING_COVER))
    assert cli.main(["classify", "--cover", str(path), "--emit-branch-tree"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "branch_tree" in doc
    assert "error" not in doc["branch_tree"]
