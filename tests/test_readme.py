"""The README's examples print what their comments say.

Every `shornoise ...` command in a shell block that is followed by
`# <output>` comment lines runs in process through main(argv), with its
--out file moved under tmp_path, and must print exactly those lines. The
Python API block is executed, and its printed lines must equal the
trailing comments of its print calls, in order. The sidecar keys that
the "Output files" section lists are the keys `spectrum_metadata` writes.
"""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from shornoise.cli import main
from shornoise.errmodel import ErrorMode, ErrorModel
from shornoise.numth import ShorInstance
from shornoise.spectrum import model_spectrum, spectrum_metadata

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def code_blocks(language: str) -> list[str]:
    return re.findall(rf"```{language}\n(.*?)```", README, flags=re.DOTALL)


def shell_examples() -> list[tuple[list[str], list[str]]]:
    """(argv, expected stdout lines) for each commented shornoise command."""
    examples = []
    for block in code_blocks("sh"):
        current = None
        for line in block.replace("\\\n", " ").splitlines():
            line = line.strip()
            if line.startswith("shornoise "):
                current = (shlex.split(line)[1:], [])
                examples.append(current)
            elif line.startswith("# ") and current is not None:
                current[1].append(line[2:])
            else:
                current = None
    return [example for example in examples if example[1]]


SHELL_EXAMPLES = shell_examples()


def test_readme_has_checked_examples() -> None:
    assert len(SHELL_EXAMPLES) >= 4
    assert len(code_blocks("python")) == 1


@pytest.mark.parametrize(
    "argv, expected",
    SHELL_EXAMPLES,
    ids=[" ".join(argv[:1] + argv[-4:]) for argv, _ in SHELL_EXAMPLES],
)
def test_shell_example(argv, expected, tmp_path, capsys) -> None:
    if "--out" in argv:
        at = argv.index("--out") + 1
        argv = argv[:at] + [str(tmp_path / argv[at])] + argv[at + 1 :]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == expected


def test_python_api_example() -> None:
    (block,) = code_blocks("python")
    expected = [
        line.split("#", 1)[1].strip()
        for line in block.splitlines()
        if line.startswith("print(") and "#" in line
    ]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(block, "README.md", "exec"), {})
    assert printed.getvalue().splitlines() == expected


def documented_sidecar_keys() -> list[str]:
    """The keys named before " - " in the "Output files" section's bullets."""
    section = README.split("### Output files\n", 1)[1].split("\n#", 1)[0]
    bullets = re.findall(r"^- (.*?) -(?: |$)", section, flags=re.MULTILINE)
    return [key for bullet in bullets for key in re.findall(r"`(\w+)`", bullet)]


def test_readme_lists_every_sidecar_key() -> None:
    # A ragged synthetic support writes the optional keys too.
    inst = ShorInstance.synthetic_instance(5, 3, offset=1)
    model = ErrorModel(ErrorMode.GAUSSIAN, delta0=0.01, sigma0=0.02)
    meta = spectrum_metadata(model_spectrum(inst, model, seed=1), seed=1)
    written = [line.split("=", 1)[0] for line in meta.splitlines()]
    assert documented_sidecar_keys() == written
