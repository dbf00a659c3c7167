"""Golden run reports: `check` and `replay` output pinned byte for byte.

Every fixture below is one `ifsec check` command. Its JSON report and
its text report are compared with the files under `tests/golden/`, and
when the check fails, so are the JSON and text output of `ifsec replay`
on that report. Together the fixtures emit every witness type the CLI
writes: lr (reachable and universe scope), sc, ni, c1 to c6 and a
rely-guarantee lemma. `lemma-counter`, `compositional-arinc` and
`compositional-demo` pin the contracts of built-in models: `check
compositional` fails lemmas 1 and 3 on demo-insecure-counter and passes
on arinc and on demo's three components. Two fixtures
also run as `python -m ifsec.cli` children under hash seeds 0 and 1,
which the in-process tests never see. The c1 and c3 to c6 fixtures are variants of the
`PAIR` refinement from test_cli.py whose abstract model is edited so
that exactly that condition is the first to fail.

Masked are the wall time, the temporary directory the model files and
reports live in, and the sha256 digests of the model files, which pin
the fixture texts rather than the program.

After a deliberate change of output, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import pytest

import ifsec
from ifsec.cli import main
from test_cli import ABSTRACT, CONCRETE, LEAKY, PAIR, PAIR_BAD_GUARANTEE, ROLL

GOLDEN = pathlib.Path(__file__).with_name("golden")

#: Abstract models under which one refinement condition fails first.
ABSTRACT_VARIANTS = {
    # The abstract initial state has x=1, the concrete one x=0.
    "c1": ABSTRACT.replace("x in {0, 1} = 0", "x in {0, 1} = 1"),
    # Abstract poke always lands in x=0, so the concrete step to x=1
    # has no related abstract match.
    "c3": ABSTRACT.replace("  x=0 -> x:=1\n  x=1 -> x:=0\n", "  * -> x:=0\n"),
    # Abstract poke acts for hi, concrete poke for lo.
    "c4": ABSTRACT.replace("act poke lo", "act poke hi"),
    # The abstract policy has an edge hi -> lo the concrete one lacks.
    "c5": ABSTRACT.replace("lo -> lo\n", "lo -> lo\nhi -> lo\n"),
    # Abstract lo observes nothing, concrete lo observes x.
    "c6": ABSTRACT.replace("lo: x\n", ""),
}

MODEL_FILES = {
    "leaky.ifs": LEAKY,
    "roll.ifs": ROLL,
    "abstract.ifs": ABSTRACT,
    "concrete.ifs": CONCRETE,
    "pair.ifs": PAIR,
    "pair_badg.ifs": PAIR_BAD_GUARANTEE,
}
for _name, _text in ABSTRACT_VARIANTS.items():
    MODEL_FILES[f"abstract_{_name}.ifs"] = _text
    MODEL_FILES[f"pair_{_name}.ifs"] = PAIR.replace(
        "abstract: abstract.ifs", f"abstract: abstract_{_name}.ifs")

#: Fixture name -> `check` arguments; `@` stands for the model directory.
FIXTURES = {
    "lr": ("unwinding", "@/leaky.ifs"),
    "lr-universe": ("unwinding", "@/leaky.ifs", "--universe"),
    "lr-arinc-port-id": ("unwinding", "arinc-port-id"),
    "sc": ("unwinding", "@/roll.ifs"),
    "ni": ("ni", "@/leaky.ifs"),
    "c1": ("refine", "@/pair_c1.ifs"),
    "c2": ("refine", "demo-insecure-counter", "--threads", "2"),
    "c3": ("refine", "@/pair_c3.ifs"),
    "c4": ("refine", "@/pair_c4.ifs"),
    "c5": ("refine", "@/pair_c5.ifs"),
    "c6": ("refine", "@/pair_c6.ifs"),
    "lemma": ("compositional", "@/pair_badg.ifs"),
    "lemma-counter": ("compositional", "demo-insecure-counter",
                      "--threads", "2"),
    "compositional-arinc": ("compositional", "arinc"),
    "compositional-demo": ("compositional", "demo"),
    "refine-pass": ("refine", "@/pair.ifs"),
}


def write_models(directory: pathlib.Path) -> None:
    for name, text in MODEL_FILES.items():
        (directory / name).write_text(text, encoding="utf-8")


def cli(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def cli_process(*argv: str, hash_seed: str) -> tuple[int, str, str]:
    """Run `python -m ifsec.cli` in a child under the given hash seed."""
    src = os.path.dirname(os.path.dirname(ifsec.__file__))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "ifsec.cli", *argv], env=env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def check_argv(name: str, directory: pathlib.Path) -> list[str]:
    return ["check"] + [a.replace("@", str(directory)) if a.startswith("@")
                        else a for a in FIXTURES[name]]


def save_report(name: str, directory: pathlib.Path,
                run=cli) -> tuple[int, pathlib.Path]:
    """Run fixture `name` with --json and save its report."""
    code, out, _ = run(*check_argv(name, directory), "--json")
    path = directory / f"{name}.report.json"
    path.write_text(out, encoding="utf-8")
    return code, path


def normalise(text: str, directory: pathlib.Path) -> str:
    lines = [line for line in text.splitlines(keepends=True)
             if "wall_time_s" not in line and not line.startswith("wall time:")]
    masked = "".join(lines).replace(str(directory), "<models>")
    return re.sub(r"\b[0-9a-f]{64}\b", "<sha256>", masked)


def outputs(name: str, directory: pathlib.Path, run=cli) -> dict[str, str]:
    """Golden file name -> normalised output, for fixture `name`."""
    code, report = save_report(name, directory, run)
    found = {f"{name}.check.json": report.read_text(encoding="utf-8"),
             f"{name}.check.txt": run(*check_argv(name, directory))[1]}
    if code == 1:
        found[f"{name}.replay.json"] = run("replay", str(report), "--json")[1]
        found[f"{name}.replay.txt"] = run("replay", str(report))[1]
    return {key: normalise(text, directory) for key, text in found.items()}


@pytest.fixture()
def model_dir(tmp_path):
    write_models(tmp_path)
    return tmp_path


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_output_matches_golden(name, model_dir):
    for filename, text in outputs(name, model_dir).items():
        expected = (GOLDEN / filename).read_text(encoding="utf-8")
        assert text == expected, filename


@pytest.mark.parametrize("hash_seed", ["0", "1"])
@pytest.mark.parametrize("name", ["sc", "c6"])
def test_output_matches_golden_under_other_hash_seeds(name, hash_seed,
                                                      model_dir):
    # The in-process tests above only ever see this process's hash seed.
    def run(*argv):
        return cli_process(*argv, hash_seed=hash_seed)

    for filename, text in outputs(name, model_dir, run).items():
        expected = (GOLDEN / filename).read_text(encoding="utf-8")
        assert text == expected, filename


#: A golden report per witness tag that `replay` re-checks.
REPLAYED = ["c1", "c2", "c3", "c4", "c5", "c6", "lemma", "lr", "ni", "sc"]


def replayable(report: str, directory: pathlib.Path) -> str:
    """A golden check report made whole again: the model directory put
    back, each model file's digest recomputed, and the comma the masked
    wall time left behind dropped."""
    text = report.replace("<models>", json.dumps(str(directory))[1:-1])
    data = json.loads(re.sub(r",(\s*})\s*$", r"\1", text))
    if data["model"]["source"] == "file":
        data["model"]["files"] = {
            path: hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()
            for path in data["model"]["files"]}
    return json.dumps(data)


@pytest.mark.parametrize("name", REPLAYED)
def test_golden_report_replays_in_a_fresh_interpreter(name, model_dir):
    # In process, every checker module has run before replay starts; a
    # child shows that replay reaches the witness class and predicate
    # of each tag on its own.
    report = model_dir / f"{name}.report.json"
    report.write_text(replayable(
        (GOLDEN / f"{name}.check.json").read_text(encoding="utf-8"),
        model_dir), encoding="utf-8")
    code, out, err = cli_process("replay", str(report), hash_seed="0")
    assert code == 0, err
    assert normalise(out, model_dir) == \
        (GOLDEN / f"{name}.replay.txt").read_text(encoding="utf-8")


def _mutations(value):
    """Each way to break one witness field: gone, null, or retyped."""
    yield "removed", None
    if value is not None:
        yield "null", None
    for kind, other in (("string", "x"), ("list", ["x"]), ("int", 7)):
        if type(value) is not {"string": str, "list": list, "int": int}[kind]:
            yield kind, other


FAILING = sorted(set(FIXTURES) - {"refine-pass", "compositional-arinc",
                                   "compositional-demo"})


@pytest.mark.parametrize("name", FAILING)
def test_broken_witness_field_is_a_usage_error(name, model_dir):
    code, report = save_report(name, model_dir)
    assert code == 1
    data = json.loads(report.read_text(encoding="utf-8"))
    check = next(c for c in data["checks"] if c["status"] == "fail")
    witness = dict(check["witness"])
    edited = model_dir / "edited.json"
    for field in sorted(witness):
        for how, value in _mutations(witness[field]):
            broken = dict(witness)
            if how == "removed":
                del broken[field]
            else:
                broken[field] = value
            check["witness"] = broken
            edited.write_text(json.dumps(data), encoding="utf-8")
            code, _, err = cli("replay", str(edited))
            assert code == 2, (field, how)
            assert "ifsec: error:" in err, (field, how)


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.iterdir():
        stale.unlink()
    with tempfile.TemporaryDirectory() as tmp:
        directory = pathlib.Path(tmp)
        write_models(directory)
        for name in sorted(FIXTURES):
            for filename, text in outputs(name, directory).items():
                (GOLDEN / filename).write_text(text, encoding="utf-8")


if __name__ == "__main__":
    sys.exit(regenerate())
