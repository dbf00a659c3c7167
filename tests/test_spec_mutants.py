"""Mutated `.ifs` text ends with an exit code, never a traceback.

The inputs are the seed-1 files of `bench/specgen.py`: five model files
and a refinement pair over two more. Each mutant deletes, duplicates or
swaps a line, or replaces one token, of one file, and runs through
`cli.main` as every check kind that reads that file: `unwinding` and
`ni` on a model file, `refine` and `compositional` on the pair (whose
level files are mutated in place beside it). A mutant may still be a
valid file, so any exit code 0-4 passes; an uncaught exception fails.
The mutants are drawn from a fixed seed.
"""

from __future__ import annotations

import importlib.util
import pathlib
import random
import sys

import pytest

from ifsec.cli import main

SPECGEN = pathlib.Path(__file__).resolve().parents[1] / "bench" / "specgen.py"

#: Tokens a replacement may put in: the file's own, and these.
SYNTAX = ("->", ":=", "=", "==", "in", "{", "}", "{0}", "*", ",", "0", "3",
          "-1", "hi", "lo", "tau", "act", "match:", "keeps:", "may:",
          "[state]", "[actions]", "[observe]", "[alpha]", "x", "")

MUTANTS_PER_KIND = 2


def seed_files(directory: pathlib.Path) -> dict[str, str]:
    spec = importlib.util.spec_from_file_location("bench_specgen", SPECGEN)
    specgen = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the body runs
    sys.modules[spec.name] = specgen
    spec.loader.exec_module(specgen)
    specgen.generate(1, str(directory))
    return {path.name: path.read_text(encoding="utf-8")
            for path in sorted(directory.iterdir())}


def mutate(text: str, kind: str, rng: random.Random) -> str:
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        filled = [k for k, line in enumerate(lines) if line.split()]
        i = rng.choice(filled)
        tokens = lines[i].split()
        tokens[rng.randrange(len(tokens))] = rng.choice(
            SYNTAX + tuple(text.split()))
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def commands(name: str) -> tuple[tuple[str, str], ...]:
    if name.startswith("pair"):
        return (("refine", "pair.ifs"), ("compositional", "pair.ifs"))
    return (("unwinding", name), ("ni", name))


def test_mutated_spec_files_never_raise(tmp_path, capsys):
    originals = seed_files(tmp_path)
    rng = random.Random(1)
    runs = 0
    for name, text in originals.items():
        for kind in ("delete", "duplicate", "swap", "replace"):
            for _ in range(MUTANTS_PER_KIND):
                mutant = mutate(text, kind, rng)
                (tmp_path / name).write_text(mutant, encoding="utf-8")
                for check, target in commands(name):
                    try:
                        code = main(["check", check, str(tmp_path / target)])
                    except Exception as exc:  # noqa: BLE001 - the point
                        pytest.fail(f"{check} {name} ({kind}) raised "
                                    f"{exc!r} on:\n{mutant}")
                    assert code in range(5), (check, name, kind, mutant)
                    runs += 1
                capsys.readouterr()
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert runs == len(originals) * 4 * MUTANTS_PER_KIND * 2
