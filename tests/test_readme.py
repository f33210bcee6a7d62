"""Replay the README "Command line" examples against sha256 digests of
their stdout, recorded before the matrix emitters were rewritten."""

import hashlib
import os
import re
import shlex

import pytest

from bihooks import fock
from bihooks.cli import main

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")

# stdout of `verify` ends in the suite's wall time, masked before hashing
_SECONDS = re.compile(r"\(\d+\.\d+s\)")

GOLDEN = {
    "structure --e 3 --p 0 --k 7 --j 5":
        "9ba1d8d557476e536587fae4c40467b2cf3c8f4281539d18a5c2f54390a67d63",
    "structure --e 4 --p 0 --k 1 --j 1 --a 2 --b 1 --format json":
        "855e3580504e2e55a9a2d5cfd542976a5089755ec1fd70bea657e3d2dc174dde",
    "structure --e 2 --p 2 --k 3 --j 1":
        "de9fdd2347451a54b51e7522b7eaaaca6b4a455111f6e107dde7a83df54c0f1c",
    "decomposable --k 5 --j 3 --p 2":
        "ada92693bf546626fa4a251cc3d76653e54d240e23b9dcb2de89db26c171123d",
    "llt --e 2 --n 8 --rows bihooks":
        "6995ddfb3debe749c279001409a46d8e69420b8220d7284940aef58e96274030",
    "llt --e 3 --n 9 --format json":
        "ae1f9ff5f8861e188c6169be08bbbcb70af852256bbe2b4468aa73de306d9946",
    "qdim --shape 4|4 --e 4":
        "92b74c6d677158742f62929ddf4d0f5b9f2a00f3b4bc1441ce839da07e9825a1",
    "qdim --shape 2|2 --e 2 --word 0,0,1,1":
        "6142b5328cfbcec321e07a68ca5118daa6882e204ec4379e491dc68970166156",
    "mullineux --e 3 --shape 15|-":
        "0c7a9dd0eb24b20de5fc2e02685e3924041dd1f9e97ed6339269f6dde7f68689",
    "induce --e 4 --a 2 --b 1 --shape 4|4":
        "5d678c16167b403627ad9a714b29017ac220c01d795503509d0ab8fb47d05a23",
    "induce --e 4 --a 2 --b 1 --negate --shape 1,1,1,1|1,1,1,1":
        "c51be8a6f1911e0378c1ab46caa543255e490569f200a882d39ac778a33d9396",
    "braces --e 3 --shape 9,4|2":
        "c88d0277b8fd77eb413339f3b1fbb57817a2a39e55e8fe95abf660bb4d658c09",
    "decompnum --n 10 --m 2 --j 0 --p 3":
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "henke --n 10 --j 3 --p 3":
        "36d0beebc07e60009bb4e6e183367cb0fe2c4903b866e72bc319bb0a495d9a37",
    "summands --k 4 --j 2 --p 2":
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "factors --k 7 --j 3 --p 3 --format json":
        "27ef92d714a8dd1455e064a1f5c65d11dc72b648790d20687737c8ec80ef4276",
    "verify --suite structure --max-kj 14 --primes 0,2,3,5,7":
        "3a537cc4dbde896687f2c91f17585344df9e67e8506d6fad4248a93b84c21a27",
}

# examples too slow for the test run (one-core wall time of a fresh process)
LEFT_OUT = {
    "verify --suite llt --e 2,3 --max-kj 5": "about 10 s",
    "verify --suite words --max-kj 4": "about 8 s",
}


def readme_examples() -> list[str]:
    """The `bihooks ...` lines of the README "Command line" code block,
    without the program name and with shell quoting removed."""
    with open(README) as fh:
        text = fh.read()
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [" ".join(shlex.split(line)[1:]) for line in block.splitlines()
            if line.startswith("bihooks ")]


def test_every_readme_example_is_pinned_or_left_out():
    examples = readme_examples()
    assert len(examples) == len(set(examples))
    assert set(examples) == set(GOLDEN) | set(LEFT_OUT)
    assert not set(GOLDEN) & set(LEFT_OUT)


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_readme_example_output(command, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(fock, "_MEMORY", {})
    argv = command.split()
    if argv[0] == "llt" or argv[:3] == ["verify", "--suite", "llt"]:
        argv += ["--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    if argv[0] == "verify":
        out = _SECONDS.sub("(s)", out)
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
