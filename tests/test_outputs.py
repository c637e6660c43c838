"""tools/outputs.py --diff, on two tiny canned corpora."""
import importlib.util
import json
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "outputs", Path(__file__).resolve().parents[1] / "tools" / "outputs.py")
outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outputs)


def corpus(root, phi, loss, out, metric):
    """A corpus of two CSV files, two JSON files and one fixed file."""
    (root / "offset").mkdir(parents=True)
    (root / "offset" / "dump.csv").write_text(f"theta,phi\n0.0,{phi!r}\n0.1,2.5\n")
    (root / "sweep.csv").write_text(f"rho,metric\n1.0,{metric}\n")
    (root / "run.json").write_text(json.dumps({"records": [{"loss": 1.0}, {"loss": loss}]}))
    (root / "header.json").write_text(json.dumps({"header": {"out": out, "steps": 100}}))
    (root / "exits.json").write_text('{"verify": 0}\n')
    return root


def test_diff_prints_the_largest_absolute_and_relative_difference(tmp_path, capsys):
    phi = 1.2345678901234567
    a = corpus(tmp_path / "a", phi, -0.0919, "a/run.json", 0.5)
    b = corpus(tmp_path / "b", phi + 2.0**-52, -0.5034, "b/run.json", "nan")
    assert outputs.cli(["--diff", str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "exits.json: identical",
        # a changed path, which no relative difference reads as small
        "header.json: max |diff| inf, relative inf in header.out",
        # one last-bit move: 2^-52 absolute, 2^-52 / (phi + 2^-52) relative
        "offset/dump.csv: max |diff| 2.22e-16, relative 1.8e-16 in phi",
        # a roll that ends elsewhere: |-0.0919 - -0.5034| / 0.5034
        "run.json: max |diff| 0.411, relative 0.817 in records.1.loss",
        # a failed cell, NaN where a number was
        "sweep.csv: max |diff| inf, relative inf in metric",
        "1 of 5 files identical",
    ]


def test_diff_of_equal_corpora_exits_0(tmp_path, capsys):
    a, b = (corpus(tmp_path / k, 0.5, -0.5, "run.json", "nan") for k in "ab")
    assert outputs.cli(["--diff", str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "5 of 5 files identical"
